//===- bench/bench_fig3_sinking.cpp - Paper Figure 3 -----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Regenerates Figure 3: the dead-code-elimination / assignment-sinking
// example.  Partial dead-code elimination sinks `x = y + z` onto the path
// that reads it, leaving a dead marker at the source position; the
// classifier reports x noncurrent between the marker and the sunk copy,
// suspect at the join of a stale and a fresh path, and current after a
// real redefinition — the six breakpoints of the figure.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Classifier.h"

using namespace sldb;

namespace {

const char *Fig3 = R"(
  int main() {
    int u = 5; int v = 2; int y = 3; int z = 4;
    int x = y + z;       // s4 = E0: partially dead -> marker here (Bkpt1)
    if (u > v) {         // s5 (Bkpt2-ish: x noncurrent)
      u = u + 9;         // s6: x stays stale on this path (Bkpt3)
    } else {
      print(x);          // s7: sunk copy lands before this use (Bkpt4)
    }
    print(u);            // s8: join (Bkpt5: suspect)
    x = u - v;           // s9 = E1
    print(x);            // s10 (Bkpt6: current)
    return 0;
  }
)";

OptOptions pdeOnly() {
  OptOptions O = OptOptions::none();
  O.PDE = true;
  return O;
}

CompiledModule buildFig3() {
  // Figure 5(a) configuration: all resident.
  return bench::build(Fig3, pdeOnly(), {.PromoteVars = false});
}

} // namespace

static void printFigure3() {
  std::printf("Figure 3: Example of dead code elimination (sinking)\n");
  bench::rule();
  auto [IR, MM] = buildFig3();
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = InvalidVar;
  for (VarId V : MM.Info->func(MF.Id).Locals)
    if (MM.Info->var(V).Name == "x")
      X = V;

  struct Row {
    const char *Bkpt;
    StmtId Stmt;
    const char *PaperSays;
  };
  const Row Rows[] = {{"Bkpt2", 5, "noncurrent"}, {"Bkpt3", 6, "noncurrent"},
                      {"Bkpt4", 7, "current"},    {"Bkpt5", 8, "suspect"},
                      {"Bkpt6", 10, "current"}};
  for (const Row &R : Rows) {
    if (R.Stmt >= MF.StmtAddr.size() || MF.StmtAddr[R.Stmt] < 0)
      continue;
    Classification CC =
        C.classify(static_cast<std::uint32_t>(MF.StmtAddr[R.Stmt]), X);
    std::printf("%-6s stmt %2u: x is %-11s (paper: %-10s) %s\n", R.Bkpt,
                R.Stmt, varClassName(CC.Kind), R.PaperSays,
                warningText(CC, "x").c_str());
  }
  bench::rule();
  std::printf("\n");
}

static void BM_PDEOnFig3(benchmark::State &State) {
  for (auto _ : State) {
    auto M = bench::compile(Fig3);
    bench::check(runPipelineEx(*M, pdeOnly(), PipelineConfig()));
    benchmark::DoNotOptimize(M->Funcs.size());
  }
}
BENCHMARK(BM_PDEOnFig3);

static void BM_DeadReachAnalysis(benchmark::State &State) {
  auto [IR, MM] = buildFig3();
  for (auto _ : State) {
    Classifier C(MM.Funcs[0], *MM.Info);
    benchmark::DoNotOptimize(&C);
  }
}
BENCHMARK(BM_DeadReachAnalysis);

SLDB_BENCH_MAIN(printFigure3)
