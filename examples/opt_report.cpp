//===- examples/opt_report.cpp - Compiler-explorer style dump ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Shows the compiler's work: the IR after each optimization pass that
// changed it (with the paper's §3 bookkeeping — hoisted/sunk flags and
// dead/avail markers visible inline), then the final annotated R3K
// machine code with the statement map and per-variable storage.
//
// Build & run:  ./build/examples/opt_report
//
//===----------------------------------------------------------------------===//

#include "codegen/MachineIR.h"
#include "eval/Compile.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"

#include <cstdio>
#include <string>

using namespace sldb;

int main() {
  const char *Source = R"(
    int main() {
      int u = 7; int v = 3; int y = 2; int z = 4;
      int x = u - v;
      if (u > v) {
        x = y + z;
      } else {
        u = u + 1;
      }
      x = y + z;
      int waste = x * 2;     // dead: never used
      print(x);
      print(u);
      return 0;
    }
  )";

  // The driver runs the pipeline; its AfterPass hook sees the IR after
  // every (pass, function) step, so print it whenever a pass changed it.
  std::string Shown;
  auto ShowIfChanged = [&](const std::string &Title, const IRModule &M) {
    std::string IR = printModule(M);
    if (IR != Shown)
      std::printf("==== %s ====\n%s\n", Title.c_str(), IR.c_str());
    Shown = std::move(IR);
  };
  DiagnosticEngine Diags;
  if (auto Generated = compileToIR(Source, Diags))
    ShowIfChanged("IR as generated", *Generated);

  OptOptions Opts = OptOptions::none();
  Opts.ConstProp = Opts.CopyProp = Opts.PRE = Opts.PDE = Opts.DCE =
      Opts.BranchOpt = true;
  PipelineConfig Config;
  Config.AfterPass = [&](IRFunction &, IRModule &M, AnalysisManager &,
                         const char *PassName) {
    ShowIfChanged(std::string("after ") + PassName, M);
  };
  Expected<CompiledModule> Build =
      compileModule(Source, Opts, CodegenOptions(), nullptr, Config);
  if (!Build) {
    std::fprintf(stderr, "compile error: %s\n", Build.status().str().c_str());
    return 1;
  }
  const MachineModule &MM = Build->MM;
  const MachineFunction &MF = *MM.findFunc("main");
  std::printf("==== final R3K code ====\n%s\n",
              printMachineFunction(MF, MM.Info).c_str());

  std::printf("==== statement map (syntactic breakpoints) ====\n");
  for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
    if (MF.StmtAddr[S] >= 0)
      std::printf("  s%-3u -> address %d\n", S, MF.StmtAddr[S]);
    else
      std::printf("  s%-3u -> (optimized away)\n", S);
  }

  std::printf("\n==== variable storage ====\n");
  for (VarId V : MM.Info->func(MF.Id).Locals) {
    auto It = MF.Storage.find(V);
    std::printf("  %-8s : ", MM.Info->var(V).Name.c_str());
    if (It == MF.Storage.end() ||
        It->second.K == VarStorage::Kind::None) {
      std::printf("no runtime storage (optimized away)\n");
      continue;
    }
    switch (It->second.K) {
    case VarStorage::Kind::InReg:
      std::printf("register %s\n", It->second.R.str().c_str());
      break;
    case VarStorage::Kind::Frame:
      std::printf("frame slot %d\n", It->second.Frame);
      break;
    default:
      std::printf("global memory\n");
    }
  }
  return 0;
}
