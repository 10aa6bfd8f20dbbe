//===- bench/bench_fig2_hoisting.cpp - Paper Figure 2 ----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Regenerates Figure 2: the code-hoisting example.  Partial redundancy
// elimination inserts a hoisted instance of `x = y + z` on the else path
// and deletes the redundant copy; the classifier then reports x as
// noncurrent right after the hoisted instance (Bkpt1), suspect at the
// join (Bkpt2), and current after the redundant copy's position (Bkpt3).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Classifier.h"

using namespace sldb;

namespace {

const char *Fig2 = R"(
  int main() {
    int u = 7; int v = 3; int y = 2; int z = 4;
    int x = u - v;        // E0
    if (u > v) {
      x = y + z;          // E1
    } else {
      u = u + 1;          // hoisted E3 lands at the end of this block
    }
    x = y + z;            // E2: deleted as redundant (avail marker)
    print(x);             // Bkpt3
    print(u);
    return 0;
  }
)";

OptOptions preOnly() {
  OptOptions O = OptOptions::none();
  O.PRE = true;
  return O;
}

CompiledModule buildFig2() { return bench::build(Fig2, preOnly()); }

} // namespace

static void printFigure2() {
  std::printf("Figure 2: Example of code hoisting\n");
  bench::rule();
  auto [IR, MM] = buildFig2();
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = InvalidVar;
  for (VarId V : MM.Info->func(MF.Id).Locals)
    if (MM.Info->var(V).Name == "x")
      X = V;

  // Bkpt1: right after the hoisted instance.
  std::uint32_t Addr = 0;
  std::int64_t HoistAddr = -1;
  for (const MachineBlock &B : MF.Blocks)
    for (const MInstr &I : B.Insts) {
      if (I.IsHoisted && I.DestVar == X && HoistAddr < 0)
        HoistAddr = Addr;
      ++Addr;
    }
  auto Show = [&](const char *Bkpt, std::uint32_t A) {
    Classification CC = C.classify(A, X);
    std::printf("%-6s addr %3u: x is %-11s %s\n", Bkpt, A,
                varClassName(CC.Kind), C.warningText(CC, X).c_str());
  };
  if (HoistAddr >= 0)
    Show("Bkpt1", static_cast<std::uint32_t>(HoistAddr + 1));
  Show("Bkpt2", static_cast<std::uint32_t>(MF.StmtAddr[8])); // E2 marker.
  Show("Bkpt3", static_cast<std::uint32_t>(MF.StmtAddr[9])); // print(x).
  bench::rule();
  std::printf("(Paper: x noncurrent at Bkpt1, suspect at Bkpt2, current at "
              "Bkpt3.)\n\n");
}

static void BM_PREOnFig2(benchmark::State &State) {
  for (auto _ : State) {
    auto M = bench::compile(Fig2);
    bench::check(runPipelineEx(*M, preOnly(), PipelineConfig()));
    benchmark::DoNotOptimize(M->Funcs.size());
  }
}
BENCHMARK(BM_PREOnFig2);

static void BM_ClassifierConstruction(benchmark::State &State) {
  auto [IR, MM] = buildFig2();
  for (auto _ : State) {
    Classifier C(MM.Funcs[0], *MM.Info);
    benchmark::DoNotOptimize(&C);
  }
}
BENCHMARK(BM_ClassifierConstruction);

static void BM_SingleClassification(benchmark::State &State) {
  auto [IR, MM] = buildFig2();
  Classifier C(MM.Funcs[0], *MM.Info);
  VarId X = 4; // x.
  for (auto _ : State) {
    Classification CC =
        C.classify(static_cast<std::uint32_t>(MM.Funcs[0].StmtAddr[8]), X);
    benchmark::DoNotOptimize(CC.Kind);
  }
}
BENCHMARK(BM_SingleClassification);

SLDB_BENCH_MAIN(printFigure2)
