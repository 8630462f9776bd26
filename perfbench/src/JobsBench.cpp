//===- perfbench/src/JobsBench.cpp - jobs_mix: priority compute ------------===//
//
// The paper's scenario on JobServerEngine, no sockets, admission off:
// open-loop matmul (top level) arrivals beside open-loop fib/sort/sw
// background arrivals, then closed batches of background jobs offered at
// once and drained. The benchmark times its own offer() calls and reads
// everything else from JobServerReport and Runtime::snapshot().
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/JobServer.h"
#include "icilk/EventRing.h"
#include "icilk/Profiler.h"
#include "icilk/Trace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

using repro::apps::JobServerConfig;
using repro::apps::JobServerEngine;
using repro::apps::JobServerReport;

// Fixed constants of the workload (never calibrated per run). Matmul
// arrives at 300/s so that the p99 has about 60 samples beyond it: at
// 100/s its ~20 were mostly the matmuls a host scheduling hiccup happened
// to hit, and the p99 moved by 2x between runs.
constexpr unsigned Workers = 3;
constexpr std::size_t MatmulN = 64;
constexpr double MatmulRatePerSec = 300;
constexpr double BackgroundRatePerSec = 500;
constexpr std::size_t BatchJobs = 2000;
constexpr unsigned SetupRepeats = 15;
constexpr double OpenShare = 0.7; ///< of the run; the batches get the rest
const char *const KindNames[4] = {"matmul", "fib", "sort", "sw"};

/// One engine's measured life: set-up, open loop, batches.
struct JobsPart {
  std::vector<double> SetupSeconds;
  // Open-loop phase.
  std::array<uint64_t, 4> OpenOffered{};
  std::vector<double> OfferMicros, LagMicros;
  double OpenWallSeconds = 0, OpenCpuSeconds = 0, GenCpuSeconds = 0;
  double OpenPeakRssMb = 0;
  uint64_t OpenCompleted = 0;
  double MatmulP50 = 0, MatmulP99 = 0;
  uint64_t MatmulDone = 0;
  // Batch phase.
  std::vector<double> BatchPerSec;
  // Whole run.
  std::array<uint64_t, 4> Offered{};
  std::array<uint64_t, 4> Completed{};
  JobServerReport Final;
  repro::icilk::RuntimeSnapshot Before, After;
  double MeasuredWallSeconds = 0;
  std::array<repro::LatencySummary, 4> QueueWait;
  // Traced part only: the open-loop phase's profile.
  repro::icilk::ProfileReport Profile;
};

JobServerConfig engineConfig(uint64_t Seed, repro::icilk::TraceRecorder *Tr) {
  JobServerConfig C;
  C.MatmulN = MatmulN;
  C.Seed = Seed;
  C.Trace = Tr;
  C.Rt.NumWorkers = Workers;
  C.Rt.NumLevels = 4;
  return C;
}

JobsPart runPart(uint64_t Seed, double Seconds, bool Traced,
                 unsigned Setups) {
  JobsPart P;
  std::unique_ptr<repro::icilk::TraceRecorder> Recorder;
  std::unique_ptr<JobServerEngine> Engine;
  // Set-up: engine start plus one warm-up job of each kind, repeated; the
  // last engine is the one measured.
  for (unsigned I = 0; I < Setups; ++I) {
    Engine.reset();
    if (Traced) {
      repro::icilk::trace::disable();
      repro::icilk::trace::clear();
      Recorder = std::make_unique<repro::icilk::TraceRecorder>();
      repro::icilk::trace::enable(1 << 19);
    }
    uint64_t T0 = nowNs();
    Engine = std::make_unique<JobServerEngine>(
        engineConfig(Seed, Recorder.get()));
    for (std::size_t K = 0; K < 4; ++K)
      Engine->offer(K);
    Engine->drain();
    P.SetupSeconds.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  for (std::size_t K = 0; K < 4; ++K)
    P.Offered[K] = 1;

  SplitMix Rng(Seed ^ 0x6a6f62735f6d6978ULL);
  P.Before = Engine->runtime().snapshot();
  uint64_t Start = nowNs();

  // Open loop: one Poisson stream at the summed rate; each arrival is
  // matmul with probability MatmulRate / total, else a uniform background
  // kind. Offers are timed from when each arrival was due.
  const double TotalRate = MatmulRatePerSec + BackgroundRatePerSec;
  const uint64_t OpenEnd = Start + static_cast<uint64_t>(Seconds * OpenShare * 1e9);
  double Cpu0 = processCpuSeconds(), Gen0 = threadCpuSeconds();
  uint64_t Due = Start;
  for (;;) {
    Due += Rng.expGapNs(TotalRate);
    if (Due >= OpenEnd)
      break;
    std::size_t Kind =
        Rng.unit() * TotalRate < MatmulRatePerSec ? 0 : 1 + Rng.below(3);
    sleepUntilNs(Due);
    uint64_t T0 = nowNs();
    Engine->offer(Kind);
    uint64_t T1 = nowNs();
    P.LagMicros.push_back(static_cast<double>(T0 - Due) / 1e3);
    P.OfferMicros.push_back(static_cast<double>(T1 - T0) / 1e3);
    ++P.OpenOffered[Kind];
    ++P.Offered[Kind];
  }
  P.GenCpuSeconds = threadCpuSeconds() - Gen0;
  Engine->drain();
  uint64_t OpenDone = nowNs();
  P.OpenCpuSeconds = processCpuSeconds() - Cpu0;
  P.OpenWallSeconds = static_cast<double>(OpenDone - Start) / 1e9;
  P.OpenPeakRssMb = peakRssMb();
  if (Traced) {
    // Profile the open-loop phase alone: batches would wrap the rings.
    repro::icilk::trace::disable();
    repro::icilk::ProfilerOptions Opts;
    Opts.NumLevels = 4;
    Opts.NumWorkers = Workers;
    P.Profile = repro::icilk::Profiler::analyze(
        repro::icilk::trace::EventLog::instance().snapshot(), *Recorder, Opts);
    repro::icilk::trace::clear();
  }
  {
    JobServerReport R = Engine->report(P.OpenWallSeconds * 1e3);
    for (std::size_t K = 0; K < 4; ++K)
      P.OpenCompleted += R.JobsByType[K];
    P.OpenCompleted -= 4; // the set-up's warm-up jobs
    P.MatmulDone = R.JobsByType[0];
    P.MatmulP50 = R.JobResponse[0].P50;
    P.MatmulP99 = R.JobResponse[0].P99;
  }

  // Closed batches of background jobs, offered at once and drained, until
  // the run's time is used (at least one batch; none in the traced part).
  const uint64_t RunEnd = Start + static_cast<uint64_t>(Seconds * 1e9);
  while (!Traced) {
    uint64_t T0 = nowNs();
    for (std::size_t J = 0; J < BatchJobs; ++J) {
      std::size_t Kind = 1 + Rng.below(3);
      Engine->offer(Kind);
      ++P.Offered[Kind];
    }
    Engine->drain();
    uint64_t T1 = nowNs();
    P.BatchPerSec.push_back(static_cast<double>(BatchJobs) /
                            (static_cast<double>(T1 - T0) / 1e9));
    if (nowNs() >= RunEnd)
      break;
  }
  uint64_t End = nowNs();
  P.MeasuredWallSeconds = static_cast<double>(End - Start) / 1e9;
  P.After = Engine->runtime().snapshot();
  P.Final = Engine->report(P.MeasuredWallSeconds * 1e3);
  for (std::size_t K = 0; K < 4; ++K)
    P.Completed[K] = P.Final.JobsByType[K];
  for (unsigned L = 0; L < 4; ++L)
    P.QueueWait[L] = Engine->runtime().levelStats(L).QueueWait.summary();

  Engine.reset();
  return P;
}

/// Nearest-rank quantile when \p Failed of \p N + \p Failed operations
/// never completed: the summary's value while the rank stays among the
/// completed ones, +inf once it reaches the failures.
double withFailures(double Value, double Q, uint64_t N, uint64_t Failed) {
  if (Failed == 0)
    return Value;
  double Rank = std::ceil(Q * static_cast<double>(N + Failed));
  return Rank > static_cast<double>(N) ? Inf : Value;
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

void verify(const JobsPart &P, WorkloadRun &Run, const char *Tag) {
  for (std::size_t K = 0; K < 4; ++K) {
    Run.Out.Attempted += P.Offered[K];
    uint64_t Missing =
        P.Offered[K] > P.Completed[K] ? P.Offered[K] - P.Completed[K] : 0;
    Run.Out.Failed += Missing;
    // Admission and shedding are off and every part ends with drain(), so
    // any difference means the engine lost or invented a job.
    if (P.Completed[K] != P.Offered[K])
      Run.Out.wrong(std::string(Tag) + ": " + std::to_string(P.Completed[K]) +
                    " " + KindNames[K] + " jobs completed of " +
                    std::to_string(P.Offered[K]) + " offered");
  }
}

} // namespace

WorkloadRun runJobsMix(const Options &O) {
  WorkloadRun Run;
  Result &Out = Run.Out;
  auto &V = Run.Values;
  const double S = O.Seconds;

  JobsPart Plain = runPart(O.Seed, O.Trace ? S / 2 : S, false,
                           O.Trace ? 1 : SetupRepeats);
  verify(Plain, Run, "untraced");
  uint64_t MatmulFailed =
      Plain.OpenOffered[0] + 1 > Plain.MatmulDone
          ? Plain.OpenOffered[0] + 1 - Plain.MatmulDone
          : 0;
  double P50 = withFailures(Plain.MatmulP50, 0.5, Plain.MatmulDone, MatmulFailed);
  double P99 = withFailures(Plain.MatmulP99, 0.99, Plain.MatmulDone, MatmulFailed);

  if (!O.Trace) {
    V["p50_us"] = P50;
    V["p99_us"] = P99;
    V["throughput_per_s"] = median(Plain.BatchPerSec);
    V["cpu_us_per_op"] =
        Plain.OpenCpuSeconds * 1e6 /
        static_cast<double>(std::max<uint64_t>(Plain.OpenCompleted, 1));
    V["peak_rss_mb"] = Plain.OpenPeakRssMb;
    V["setup_s"] = median(Plain.SetupSeconds);
  } else {
    JobsPart Traced = runPart(O.Seed, S / 2, true, 1);
    verify(Traced, Run, "traced");
    const JobsPart &T = Traced;
    V["gen.lag_p99_us"] = percentile(Plain.LagMicros, 0.99);
    V["gen.busy_frac"] = Plain.GenCpuSeconds / Plain.OpenWallSeconds;
    V["jobs.offer_p50_us"] = percentile(Plain.OfferMicros, 0.5);
    V["jobs.offer_p99_us"] = percentile(Plain.OfferMicros, 0.99);
    for (std::size_t K = 0; K < 4; ++K)
      V[std::string("jobs.") + KindNames[K] + ".compute_p50_us"] =
          Plain.Final.JobCompute[K].P50;
    V["jobs.fib.compute_p99_us"] = Plain.Final.JobCompute[1].P99;
    V["jobs.bg.response_p99_us"] =
        std::max({Plain.Final.JobResponse[1].P99, Plain.Final.JobResponse[2].P99,
                  Plain.Final.JobResponse[3].P99});
    for (unsigned L = 0; L < 4; ++L) {
      V["runtime.queue_wait_p50_us.L" + std::to_string(L)] =
          Plain.QueueWait[L].P50;
      V["runtime.queue_wait_p99_us.L" + std::to_string(L)] =
          Plain.QueueWait[L].P99;
    }
    // Scheduler counters over the untraced engine's measured window (the
    // event ring would add its own work to them in the traced one).
    const auto &B = Plain.Before, &A = Plain.After;
    double Ops = 0;
    for (std::size_t K = 0; K < 4; ++K)
      Ops += static_cast<double>(Plain.Completed[K]) - 1; // minus warm-ups
    Ops = std::max(Ops, 1.0);
    V["runtime.busy_frac"] =
        static_cast<double>(A.TotalWorkNanos - B.TotalWorkNanos) /
        (Workers * Plain.MeasuredWallSeconds * 1e9);
    V["runtime.tasks_per_op"] =
        static_cast<double>(A.TasksExecuted - B.TasksExecuted) / Ops;
    V["runtime.steals_per_op"] =
        static_cast<double>((A.StealsSameSocket + A.StealsCrossSocket) -
                            (B.StealsSameSocket + B.StealsCrossSocket)) /
        Ops;
    V["runtime.batch_steal_tasks_per_op"] =
        static_cast<double>(A.BatchStealTasks - B.BatchStealTasks) / Ops;
    V["runtime.next_slot_hits_per_op"] =
        static_cast<double>(A.NextSlotHits - B.NextSlotHits) / Ops;
    V["runtime.pool_stacks_created"] = static_cast<double>(A.PoolStacksCreated);
    V["runtime.injection_full_spins"] =
        static_cast<double>(A.InjectionFullSpins);
    V["runtime.ftouch_inversions"] = static_cast<double>(A.FtouchInversions);
    V["runtime.stalls_detected"] = static_cast<double>(A.StallsDetected);
    if (T.Profile.Levels.size() > 3) {
      const auto &L3 = T.Profile.Levels[3];
      double Resp = static_cast<double>(L3.ResponseNanos);
      V["blame.L3.run_frac"] =
          Resp > 0 ? static_cast<double>(L3.RunNanos) / Resp : 0;
      V["blame.L3.ready_frac"] =
          Resp > 0 ? static_cast<double>(L3.ReadyNanos) / Resp : 0;
    }
    uint64_t TracedFailed = T.OpenOffered[0] + 1 > T.MatmulDone
                                ? T.OpenOffered[0] + 1 - T.MatmulDone
                                : 0;
    double TracedP50 =
        withFailures(T.MatmulP50, 0.5, T.MatmulDone, TracedFailed);
    V["trace.overhead_frac"] = TracedP50 / P50 - 1;
    std::printf("traced part: profile of %zu tasks, %llu incomplete, "
                "%llu dropped events\n",
                T.Profile.Tasks.size(),
                static_cast<unsigned long long>(T.Profile.IncompleteTasks),
                static_cast<unsigned long long>(T.Profile.DroppedEvents));
  }

  std::printf("jobs_mix: %llu open-loop jobs (%llu matmul), %zu batches of "
              "%zu:",
              static_cast<unsigned long long>(Plain.OpenCompleted),
              static_cast<unsigned long long>(Plain.OpenOffered[0]),
              Plain.BatchPerSec.size(), BatchJobs);
  for (double B : Plain.BatchPerSec)
    std::printf(" %.0f", B);
  std::printf(" jobs/s\n");
  std::printf("jobs_mix: setup");
  for (double Setup : Plain.SetupSeconds)
    std::printf(" %.4fs", Setup);
  std::printf("\n");

  Out.info("workers", std::to_string(Workers));
  Out.info("matmul_n", std::to_string(MatmulN));
  Out.info("matmul_rate_per_s", jsonNumber(MatmulRatePerSec));
  Out.info("background_rate_per_s", jsonNumber(BackgroundRatePerSec));
  Out.info("batch_jobs", std::to_string(BatchJobs));
  Out.info("batches", std::to_string(Plain.BatchPerSec.size()));
  Out.info("open_loop_jobs", std::to_string(Plain.OpenCompleted));
  Out.info("run_peak_rss_mb", jsonNumber(peakRssMb()));
  return Run;
}

} // namespace perfbench
