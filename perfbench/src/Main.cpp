//===- perfbench/src/Main.cpp - Benchmark entry point ----------------------===//
//
//   perfbench --workload proxy_hit|proxy_miss|jobs_mix --seed N
//             --seconds N --trace 0|1
//   perfbench --self-test
//
// With --trace 0 the last stdout line carries the end-to-end metrics, with
// --trace 1 the per-layer ones. The exit code is nonzero when an output
// was wrong (a slow run is not a wrong one).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Logging.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

const MetricList &endToEndMetrics() {
  static const MetricList L = {
      {"p50_us", "us"},           {"p99_us", "us"},
      {"throughput_per_s", "1/s"}, {"cpu_us_per_op", "us"},
      {"peak_rss_mb", "MiB"},     {"setup_s", "s"},
  };
  return L;
}

const MetricList &perLayerMetrics() {
  static const MetricList L = [] {
    MetricList M = {
        {"gen.lag_p99_us", "us"},
        {"gen.busy_frac", "ratio"},
        {"realproxy.cache_hit_ratio", "ratio"},
        {"realproxy.ttfb_p50_us", "us"},
        {"origin.requests_per_miss", "ratio"},
        {"origin.handler_p50_us", "us"},
        {"reactor.ops_per_req", "count/req"},
        {"reactor.wakeups_per_req", "count/req"},
        {"admission.offered_per_req", "count/req"},
        {"admission.shed", "count"},
        {"admission.queue_delay_p99_us", "us"},
        {"runtime.busy_frac", "ratio"},
        {"runtime.tasks_per_op", "count/op"},
    };
    for (const char *Q : {"p50", "p99"})
      for (int Lv = 0; Lv < 4; ++Lv)
        M.push_back({std::string("runtime.queue_wait_") + Q + "_us.L" +
                         std::to_string(Lv),
                     "us"});
    for (const char *N :
         {"runtime.steals_per_op", "runtime.batch_steal_tasks_per_op",
          "runtime.next_slot_hits_per_op"})
      M.push_back({N, "count/op"});
    for (const char *N :
         {"runtime.pool_stacks_created", "runtime.injection_full_spins",
          "runtime.ftouch_inversions", "runtime.stalls_detected"})
      M.push_back({N, "count"});
    M.push_back({"jobs.offer_p50_us", "us"});
    M.push_back({"jobs.offer_p99_us", "us"});
    for (const char *K : {"matmul", "fib", "sort", "sw"})
      M.push_back({std::string("jobs.") + K + ".compute_p50_us", "us"});
    M.push_back({"jobs.fib.compute_p99_us", "us"});
    M.push_back({"jobs.bg.response_p99_us", "us"});
    for (const char *S : {"accept", "admission", "handler", "io_connect",
                          "io_read", "io_write", "response"})
      M.push_back({std::string("span.") + S, "us"});
    M.push_back({"blame.L3.run_frac", "ratio"});
    M.push_back({"blame.L3.ready_frac", "ratio"});
    M.push_back({"trace.budget_residual_frac", "ratio"});
    M.push_back({"trace.overhead_frac", "ratio"});
    return M;
  }();
  return L;
}

} // namespace perfbench

int main(int Argc, char **Argv) {
  using namespace perfbench;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  Options O;
  std::string Error;
  if (!parseOptions(Args, O, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }
  if (O.SelfTest)
    return runSelfTests() == 0 ? 0 : 1;

  repro::setLogThreshold(repro::LogLevel::Warn);
  tightenTimerSlack(); // the open-loop generators run on this thread
  WorkloadRun Run;
  if (O.Workload == "proxy_hit")
    Run = runProxyWorkload(O, /*Hit=*/true);
  else if (O.Workload == "proxy_miss")
    Run = runProxyWorkload(O, /*Hit=*/false);
  else if (O.Workload == "jobs_mix")
    Run = runJobsMix(O);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  Result &R = Run.Out;
  R.info("workload", jsonString(O.Workload));
  R.info("seed", std::to_string(O.Seed));
  R.info("seconds", std::to_string(O.Seconds));
  R.info("trace", O.Trace ? "1" : "0");
  R.info("hardware_threads", std::to_string(hardwareThreads()));
  R.info("cpu_model", jsonString(cpuModel()));
  double ErrorRate = static_cast<double>(R.Failed) /
                     static_cast<double>(R.Attempted ? R.Attempted : 1);
  R.info("error_rate", jsonNumber(ErrorRate));
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n", ErrorRate,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));

  for (const auto &[Name, Unit] : O.Trace ? perLayerMetrics()
                                          : endToEndMetrics()) {
    auto It = Run.Values.find(Name);
    double Value = It == Run.Values.end() ? 0.0 : It->second;
    bool Measured = It != Run.Values.end() && !std::isnan(Value);
    if (!Measured)
      Value = 0.0;
    if (!O.Trace && !Measured)
      R.wrong("end-to-end metric " + Name + " was not measured");
    R.add(Name, Value, Unit);
  }
  if (R.Attempted == 0)
    R.wrong("no operation was attempted");
  printResult(R);
  return R.Correct ? 0 : 1;
}
