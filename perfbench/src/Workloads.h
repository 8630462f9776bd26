//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Every workload returns its metrics by name; Main.cpp emits them in the
// order of the two lists below (the names BENCHMARK.json declares).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "BenchUtil.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// Name and unit of every end-to-end metric (printed with --trace 0).
const MetricList &endToEndMetrics();
/// Name and unit of every per-layer metric (printed with --trace 1).
/// A metric that a workload does not exercise reads 0 there.
const MetricList &perLayerMetrics();

/// What a workload hands back before rendering: its metrics by name plus
/// the verification verdict and the comparability record.
struct WorkloadRun {
  std::map<std::string, double> Values;
  Result Out; ///< Correct/Attempted/Failed/Info/Problems; Metrics unused
};

/// proxy_hit (\p Hit) or proxy_miss over loopback sockets.
WorkloadRun runProxyWorkload(const Options &O, bool Hit);
/// jobs_mix: the job-server engine under open-loop priority compute.
WorkloadRun runJobsMix(const Options &O);

/// The benchmark's own tests; returns the number of failures.
int runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
