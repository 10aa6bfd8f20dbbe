//===- tests/TestCompile.h - compileModule for test programs ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tests' one way from source to machine code.  A test program that
/// does not compile is a bug in the test itself, so instead of returning
/// an error every test would have to check, the helper prints the Status
/// and aborts the binary.  The returned CompiledModule keeps the IR that
/// the machine module borrows alive; `auto [IR, MM] = ...` names both.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_TESTS_TESTCOMPILE_H
#define SLDB_TESTS_TESTCOMPILE_H

#include "eval/Compile.h"

#include <cstdio>
#include <cstdlib>

namespace sldb {

inline CompiledModule compileOrAbort(std::string_view Src,
                                     const OptOptions &Opts,
                                     const CodegenOptions &CG = {}) {
  Expected<CompiledModule> C = compileModule(Src, Opts, CG);
  if (!C) {
    std::fprintf(stderr, "test program failed to compile: %s\n",
                 C.status().str().c_str());
    std::abort();
  }
  return std::move(*C);
}

} // namespace sldb

#endif // SLDB_TESTS_TESTCOMPILE_H
