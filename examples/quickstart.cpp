//===- examples/quickstart.cpp - 60-second tour -----------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Quickstart: compile a MiniC program with full optimization, run it under
// the R3K simulator, stop at a source breakpoint, and query variables —
// the debugger classifies each one per the paper's Figure 1 and never
// shows an optimized-away value without a warning.
//
// Build & run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Debugger.h"
#include "eval/Compile.h"

#include <cstdio>

using namespace sldb;

int main() {
  const char *Source = R"(
    int main() {
      int price = 120;
      int tax = price / 10;      // becomes dead after propagation
      int total = price + tax;
      int discount = total / 4;  // partially dead: only used when large
      if (total > 100) {
        total = total - discount; // statement 5: our breakpoint
      }
      print(total);
      return total;
    }
  )";

  // 1. Compile with the full cmcc-style optimization pipeline, then
  //    generate R3K machine code (graph-coloring register allocation,
  //    list scheduling) with the debug tables of paper §3.  The result
  //    holds the optimized IR and the machine code that borrows from it.
  Expected<CompiledModule> Build =
      compileModule(Source, OptOptions::all(), CodegenOptions());
  if (!Build) {
    std::fprintf(stderr, "compile error: %s\n", Build.status().str().c_str());
    return 1;
  }
  const MachineModule &Machine = Build->MM;

  // 2. Debug the *optimized* code, non-invasively.
  Debugger Dbg(Machine);
  FuncId Main = Machine.Info->findFunc("main");
  StmtId PrintStmt = 5; // The `total = total - discount` assignment.
  if (!Dbg.setBreakpointAtStmt(Main, PrintStmt)) {
    std::fprintf(stderr, "statement %u emitted no code\n", PrintStmt);
    return 1;
  }

  if (Dbg.run() != StopReason::Breakpoint) {
    std::fprintf(stderr, "program did not reach the breakpoint\n");
    return 1;
  }

  std::printf("stopped at statement %u of main()\n\n", PrintStmt);
  for (const VarReport &R : Dbg.reportScope()) {
    const std::string &Name = Machine.Info->var(R.Var).Name;
    std::printf("  %-9s : %-11s", Name.c_str(), varClassName(R.Class.Kind));
    if (R.HasValue) {
      if (R.IsDouble)
        std::printf(" value = %g", R.DoubleValue);
      else
        std::printf(" value = %lld", static_cast<long long>(R.IntValue));
      if (R.Class.Recoverable)
        std::printf(" (recovered)");
    }
    const std::string Warning = warningText(R.Class, Name);
    if (!Warning.empty())
      std::printf("\n              %s", Warning.c_str());
    std::printf("\n");
  }

  Dbg.resume();
  std::printf("\nprogram output: %s", Dbg.machine().outputText().c_str());
  std::printf("exit value: %lld\n",
              static_cast<long long>(Dbg.machine().exitValue()));
  return 0;
}
