//===- examples/debug_session.cpp - Full session on a real kernel -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// A scripted source-level debugging session over one of the SPEC92
// stand-in benchmarks (the LZW compressor), compiled at full optimization
// with register allocation: stop inside the hot loop across several
// iterations and watch variables move between current, recovered,
// and nonresident as execution progresses.
//
// Build & run:  ./build/examples/debug_session
//
//===----------------------------------------------------------------------===//

#include "core/Debugger.h"
#include "eval/Compile.h"
#include "eval/Programs.h"

#include <cstdio>

using namespace sldb;

int main() {
  const BenchProgram &Compress = benchmarkPrograms()[5];
  std::printf("debugging '%s' (%s)\ncompiled with the full optimization "
              "pipeline + register allocation\n\n",
              Compress.Name, Compress.Description);

  Expected<CompiledModule> Build =
      compileModule(Compress.Source, OptOptions::all(), CodegenOptions());
  if (!Build) {
    std::fprintf(stderr, "compile error: %s\n", Build.status().str().c_str());
    return 1;
  }
  const MachineModule &MM = Build->MM;

  Debugger Dbg(MM);
  FuncId CompressFn = MM.Info->findFunc("compress");
  if (CompressFn == InvalidFunc) {
    std::fprintf(stderr, "no compress() in the benchmark\n");
    return 1;
  }

  // Break on every statement of compress() and sample the first stops.
  const MachineFunction &MF = MM.Funcs[CompressFn];
  unsigned Set = 0;
  for (StmtId S = 0; S < MF.StmtAddr.size(); ++S)
    if (Dbg.setBreakpointAtStmt(CompressFn, S))
      ++Set;
  std::printf("%u syntactic breakpoints set in compress() (%u statements "
              "had their code optimized away entirely)\n\n",
              Set, static_cast<unsigned>(MF.StmtAddr.size()) - Set);

  StopReason R = Dbg.run();
  unsigned Stop = 0;
  unsigned Shown = 0;
  while (R == StopReason::Breakpoint && Stop < 4000) {
    ++Stop;
    if (Dbg.currentFunction() == CompressFn && Stop % 37 == 1 &&
        Shown < 6) {
      ++Shown;
      auto S = Dbg.currentStmt();
      std::printf("stop #%u at compress() statement %d:\n", Stop,
                  S ? static_cast<int>(*S) : -1);
      for (const VarReport &V : Dbg.reportScope()) {
        const std::string &Name = MM.Info->var(V.Var).Name;
        std::printf("  %-8s %-11s", Name.c_str(), varClassName(V.Class.Kind));
        if (V.HasValue)
          std::printf(" = %-10lld", static_cast<long long>(V.IntValue));
        else
          std::printf("   %-10s", "--");
        if (V.Class.Recoverable)
          std::printf(" [recovered]");
        const std::string Warning = warningText(V.Class, Name);
        if (!Warning.empty())
          std::printf(" ! %s", Warning.c_str());
        std::printf("\n");
      }
      std::printf("\n");
    }
    R = Dbg.resume();
  }

  std::printf("session ended after %u stops (%s)\n", Stop,
              R == StopReason::Exited ? "program exited" : "limit");
  std::printf("program output:\n%s", Dbg.machine().outputText().c_str());
  return 0;
}
