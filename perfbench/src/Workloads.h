//===- perfbench/src/Workloads.h - The four benchmark workloads -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the workloads.  Each one sets up its seeded inputs,
/// measures for Options::Seconds, checks every output, and fills the
/// report: with tracing off the end-to-end metrics, with tracing on the
/// per-layer metrics of perLayerMetrics().  perfbench/README.md gives
/// each workload's purpose, loop type and metric definitions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

void runCompileWorkload(const Options &O, Report &R);
void runDebugWorkload(const Options &O, Report &R);
void runServiceWorkload(const Options &O, Report &R);
void runCampaignWorkload(const Options &O, Report &R);

/// Set-up is repeated this many times in a run, each repetition timed and
/// speed-scaled on its own; setup_s is their median.
constexpr int SetupRuns = 9;

/// Runs \p Step SetupRuns times, scaling each one's wall time by the
/// memory gauge sampled just before and just after it.  Returns the
/// median in seconds.
double measureSetup(Report &R, const std::function<void()> &Step);

/// The end-to-end metrics shared by every workload, in BENCHMARK.json
/// order.  \p Ops and \p OpLatency are the workload's headline
/// throughput and operation latency.
void reportEndToEnd(Report &R, double SetupS, double PeakRssMb, double OpsPerS,
                    const Latency &OpLatency, const std::string &OpName);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
