//===- bench/bench_fig4_recovery.cpp - Paper Figure 4 ----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Regenerates Figure 4: the recovery chain.  Copy propagation strips the
// uses off `x = y + z`, CSE shares the computation through a temporary,
// dead-code elimination deletes the assignment and records the temporary
// as x's recovery value — the debugger then reconstructs x's expected
// value from the temporary's register ("these two variables are
// aliased", paper §2.5).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Debugger.h"

using namespace sldb;

namespace {

const char *Fig4 = R"(
  int main() {
    int y = 11; int z = 31;
    int x = y + z;        // S1: propagated + CSE'd + eliminated
    int a = x * 2;        // S2 (uses rewritten to the shared temp)
    int b = x + 5;        // S3
    print(a);             // s5
    print(b);
    return 0;
  }
)";

} // namespace

static void printFigure4() {
  std::printf("Figure 4: Recovery of an eliminated variable from a CSE "
              "temporary\n");
  bench::rule();
  auto [IR, MM] = bench::build(Fig4, OptOptions::all());
  Debugger Dbg(MM);
  FuncId Main = MM.Info->findFunc("main");
  bool Set = Dbg.setBreakpointAtStmt(Main, 5); // print(a).
  if (Set && Dbg.run() == StopReason::Breakpoint) {
    auto X = Dbg.queryVariable("x");
    if (X) {
      std::printf("at print(a): x classified %s%s\n",
                  varClassName(X->Class.Kind),
                  X->Class.Recoverable ? " (recovered from temporary)"
                                       : "");
      if (X->HasValue)
        std::printf("displayed value of x = %lld (expected 42)\n",
                    static_cast<long long>(X->IntValue));
      if (!X->Warning.empty())
        std::printf("warning: %s\n", X->Warning.c_str());
    }
  }
  bench::rule();
  std::printf("(Paper: after copy propagation, DCE and CSE, x is aliased "
              "to tmp; the debugger displays tmp's value for x.)\n\n");
}

static void BM_RecoveryPipeline(benchmark::State &State) {
  for (auto _ : State) {
    CompiledModule C = bench::build(Fig4, OptOptions::all());
    benchmark::DoNotOptimize(C.MM.Funcs.size());
  }
}
BENCHMARK(BM_RecoveryPipeline);

static void BM_DebuggerQuery(benchmark::State &State) {
  auto [IR, MM] = bench::build(Fig4, OptOptions::all());
  Debugger Dbg(MM);
  Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 5);
  Dbg.run();
  for (auto _ : State) {
    auto X = Dbg.queryVariable("x");
    benchmark::DoNotOptimize(X.has_value());
  }
}
BENCHMARK(BM_DebuggerQuery);

SLDB_BENCH_MAIN(printFigure4)
