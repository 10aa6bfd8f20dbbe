//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/per-figure benchmark binaries: each
/// binary first regenerates its table/figure (printed to stdout in the
/// paper's row format), then runs google-benchmark timings of the
/// machinery behind it.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_BENCH_BENCHUTIL_H
#define SLDB_BENCH_BENCHUTIL_H

#include "eval/Compile.h"
#include "ir/IRGen.h"

#include "bench/BenchSnapshot.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

namespace sldb::bench {

inline std::unique_ptr<IRModule> compile(std::string_view Src) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  if (!M) {
    std::fprintf(stderr, "benchmark source failed to compile:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return M;
}

/// Benchmark sources ship with the repository, so a compile failure is a
/// bug: report the Status and abort.
inline void check(const Status &S) {
  if (!S.ok()) {
    std::fprintf(stderr, "benchmark compile failed: %s\n", S.str().c_str());
    std::abort();
  }
}

/// Source to machine code through compileModule (failures as check()).
inline CompiledModule build(std::string_view Src, const OptOptions &Opts,
                            const CodegenOptions &CG = {},
                            const PipelineConfig &Config = {}) {
  Expected<CompiledModule> C = compileModule(Src, Opts, CG, nullptr, Config);
  check(C.status());
  return std::move(*C);
}

inline void rule(char C = '-', int Width = 72) {
  for (int I = 0; I < Width; ++I)
    std::putchar(C);
  std::putchar('\n');
}

/// Standard main: print the table (via \p PrintTable), then run timings.
/// Accepts --json=FILE (consumed before google-benchmark sees argv).
#define SLDB_BENCH_MAIN(PrintTable)                                           \
  int main(int argc, char **argv) {                                           \
    ::sldb::bench::parseSnapshotFlag(argc, argv);                             \
    PrintTable();                                                             \
    ::benchmark::Initialize(&argc, argv);                                     \
    ::benchmark::RunSpecifiedBenchmarks();                                    \
    return 0;                                                                 \
  }

} // namespace sldb::bench

#endif // SLDB_BENCH_BENCHUTIL_H
