//===- bench/bench_table1_passes.cpp - Paper Table 1 -----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Regenerates Table 1: the optimizations performed by the compiler, in
// pipeline order, and times each one over the benchmark corpus.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "eval/Programs.h"

using namespace sldb;

static void printTable1() {
  std::printf("Table 1: Optimizations performed (cmcc's list -> this "
              "reproduction)\n");
  bench::rule();
  for (const std::string &Name : pipelinePassNames(OptOptions::all()))
    std::printf("  %s\n", Name.c_str());
  std::printf("  global-register-allocation(graph-coloring)   [back end]\n");
  std::printf("  register-coalescing                          [back end]\n");
  std::printf("  instruction-scheduling(list)                 [back end]\n");
  bench::rule();
  std::printf("(Induction-variable expansion/simplification/elimination "
              "live in the\nstrength-reduction pass + dead-code "
              "elimination, as in cmcc.)\n\n");
}

static void BM_SinglePass(benchmark::State &State) {
  auto Names = pipelinePassNames(OptOptions::all());
  // Time the full pipeline per program (per-pass timing via labels would
  // need pass-manager instrumentation; pipeline time is the headline).
  const BenchProgram &P =
      benchmarkPrograms()[static_cast<std::size_t>(State.range(0))];
  for (auto _ : State) {
    State.PauseTiming();
    auto M = bench::compile(P.Source);
    State.ResumeTiming();
    bench::check(runPipelineEx(*M, OptOptions::all(), PipelineConfig()));
    benchmark::DoNotOptimize(M->Funcs.size());
  }
  State.SetLabel(P.Name);
}
BENCHMARK(BM_SinglePass)->DenseRange(0, 7);

static void BM_PipelineNoPRE(benchmark::State &State) {
  const BenchProgram &P =
      benchmarkPrograms()[static_cast<std::size_t>(State.range(0))];
  OptOptions O = OptOptions::all();
  O.PRE = false;
  for (auto _ : State) {
    State.PauseTiming();
    auto M = bench::compile(P.Source);
    State.ResumeTiming();
    bench::check(runPipelineEx(*M, O, PipelineConfig()));
    benchmark::DoNotOptimize(M->Funcs.size());
  }
  State.SetLabel(P.Name);
}
BENCHMARK(BM_PipelineNoPRE)->DenseRange(0, 7);

SLDB_BENCH_MAIN(printTable1)
