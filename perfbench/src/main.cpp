//===- perfbench/src/main.cpp - End-to-end benchmark harness --*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `perfbench --workload compile|debug|service|campaign --seed N
///  --seconds S --trace 0|1 [--sldbd PATH] [--trace-file PATH]`
///
/// Runs one workload and prints human-readable `#` lines, `COUNT` lines
/// (deterministic counts for the cross-run guard in run.py) and, last,
/// one JSON object with the keys correct / attempted / failed / metrics.
/// The harness pins itself to the highest CPU it may use; the sldbd it
/// spawns inherits the pin and shares that CPU.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <sched.h>
#include <string>

using namespace perfbench;

namespace perfbench {

void reportEndToEnd(Report &R, double SetupS, double PeakRssMb, double OpsPerS,
                    const Latency &OpLatency, const std::string &OpName) {
  R.note("op = " + OpName + ": p50 " + fmt(OpLatency.P50) + " ms, tail " +
         fmt(OpLatency.Tail) + " ms (" + OpLatency.TailName + ", " +
         std::to_string(OpLatency.Beyond) + " of " +
         std::to_string(OpLatency.N) + " samples beyond)");
  R.note("setup_s = " + fmt(SetupS) + " s, peak_rss_mb = " + fmt(PeakRssMb) +
         " MB");
  R.metric("setup_s", SetupS, "s");
  R.metric("peak_rss_mb", PeakRssMb, "MB");
  R.metric("ops_per_s", OpsPerS, "1/s");
  R.metric("op_ms_p50", OpLatency.P50, "ms");
  R.metric("op_ms_tail", OpLatency.Tail, "ms");
}

double measureSetup(Report &R, const std::function<void()> &Step) {
  // Fill the gauge's median window first, so the first repetitions are
  // scaled as steadily as the last.
  SpeedGauge G;
  for (int I = 0; I < 7; ++I)
    G.sample();
  std::vector<double> Scaled, Wall;
  for (int I = 0; I < SetupRuns; ++I) {
    G.sample();
    const double Before = G.scale();
    const Clock::time_point T0 = Clock::now();
    Step();
    Wall.push_back(msSince(T0) / 1000);
    G.sample();
    Scaled.push_back(Wall.back() * (Before + G.scale()) / 2);
  }
  const double S = median(Scaled);
  R.note("set-up: median of " + std::to_string(SetupRuns) + " = " + fmt(S) +
         " s scaled, " + fmt(median(Wall)) + " s wall");
  return S;
}

} // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile|debug|service|campaign "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--sldbd PATH] [--trace-file PATH]\n");
  return 2;
}

/// Pins this process to the highest CPU it may run on; the spawned sldbd
/// inherits the pin, so the daemon's work and the speed gauge share one
/// core.  Returns the CPU, or -1 when the affinity cannot be read.
int pinToHighestCpu() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return -1;
  for (int C = CPU_SETSIZE - 1; C >= 0; --C)
    if (CPU_ISSET(C, &Set)) {
      CPU_ZERO(&Set);
      CPU_SET(C, &Set);
      sched_setaffinity(0, sizeof(Set), &Set);
      return C;
    }
  return -1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (!V)
      return usage();
    ++I;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace") {
      O.Traced = std::string(V) == "1";
      HaveTrace = true;
    } else if (A == "--sldbd")
      O.Sldbd = V;
    else if (A == "--trace-file")
      O.TraceFile = V;
    else
      return usage();
  }
  if (O.Workload.empty() || !HaveTrace || !(O.Seconds > 0))
    return usage();
  const int Cpu = pinToHighestCpu();

  Report R;
  R.note("workload " + O.Workload + ", seed " + std::to_string(O.Seed) +
         ", " + fmt(O.Seconds) + " s, trace " + (O.Traced ? "1" : "0") +
         ", pinned to cpu " + std::to_string(Cpu) + " with sldbd");
  if (O.Workload == "compile")
    runCompileWorkload(O, R);
  else if (O.Workload == "debug")
    runDebugWorkload(O, R);
  else if (O.Workload == "service")
    runServiceWorkload(O, R);
  else if (O.Workload == "campaign")
    runCampaignWorkload(O, R);
  else
    return usage();
  R.printResult();
  return R.correct() ? 0 : 1;
}
