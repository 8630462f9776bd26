//===- perfbench/src/BenchUtil.h - Shared benchmark plumbing ----*- C++ -*-===//
//
// Clocks, resource usage, percentiles with failures ranked as +inf, the
// seeded input generator, the origin's deterministic bodies, command-line
// parsing and the result record every workload prints.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHUTIL_H
#define PERFBENCH_BENCHUTIL_H

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Monotonic nanoseconds on the program's own clock (repro::nowNanos), so
/// the benchmark's timestamps and the program's span timestamps line up.
uint64_t nowNs();
/// Sleeps until the absolute nowNs() deadline \p DeadlineNs.
void sleepUntilNs(uint64_t DeadlineNs);
/// Process CPU time (user + system, all threads), in seconds.
double processCpuSeconds();
/// CPU time of the calling thread, in seconds.
double threadCpuSeconds();
/// Peak resident set size of the process, in MiB.
double peakRssMb();
/// Asks the kernel for 1 ns timer slack on the calling thread, so
/// open-loop sleeps wake on schedule.
void tightenTimerSlack();

/// Nearest-rank quantile (\p Q in (0, 1]) of \p Samples. Failed operations
/// are +inf samples and rank above every finite one. NaN for no samples.
double percentile(std::vector<double> Samples, double Q);

/// splitmix64: the benchmark's only source of randomness, seeded from the
/// command line, so the same seed gives the same inputs.
class SplitMix {
public:
  explicit SplitMix(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, Bound).
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Exponential inter-arrival gap, in ns, for \p RatePerSec arrivals/s.
  uint64_t expGapNs(double RatePerSec);

private:
  uint64_t S;
};

/// The origin's response body for object \p Id: \p Len printable bytes,
/// a deterministic function of the id alone.
std::string makeBody(uint64_t Id, std::size_t Len);
/// The request target naming object \p Id ("/obj?id=<Id>").
std::string objectTarget(uint64_t Id);

/// Command line: --workload W --seed N --seconds N --trace 0|1, or
/// --self-test. Unknown flags, missing values and malformed numbers are
/// errors (never silently defaulted).
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  bool Trace = false;
  bool SelfTest = false;
};
bool parseOptions(const std::vector<std::string> &Args, Options &Out,
                  std::string &Error);

/// One named metric with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload run reports. Info carries the comparability record
/// (hardware threads, CPU model, workers, rates, seed) as pre-rendered
/// JSON values.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Info;
  std::vector<std::string> Problems; ///< why Correct is false

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void info(const std::string &Key, const std::string &JsonValue) {
    Info.emplace_back(Key, JsonValue);
  }
  /// Records a wrong output: the run stays measured but is not correct.
  void wrong(const std::string &Why);
};

/// JSON rendering helpers (numbers keep every digit; +inf is Infinity).
std::string jsonNumber(double V);
std::string jsonString(const std::string &S);

/// Hardware threads and CPU model of this host, for the record.
unsigned hardwareThreads();
std::string cpuModel();

/// Prints the human-readable summary, the full record line and, last, the
/// one-line result object.
void printResult(const Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCHUTIL_H
