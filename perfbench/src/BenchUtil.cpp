//===- perfbench/src/BenchUtil.cpp - Shared benchmark plumbing -------------===//

#include "BenchUtil.h"

#include "support/Timer.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

uint64_t nowNs() { return repro::nowNanos(); }

void sleepUntilNs(uint64_t DeadlineNs) {
  // repro::nowNanos is std::chrono::steady_clock, i.e. CLOCK_MONOTONIC.
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(DeadlineNs / 1000000000ULL);
  Ts.tv_nsec = static_cast<long>(DeadlineNs % 1000000000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &Ts, nullptr) ==
         EINTR) {
  }
}

static double tvSeconds(const struct timeval &Tv) {
  return static_cast<double>(Tv.tv_sec) +
         static_cast<double>(Tv.tv_usec) / 1e6;
}

double processCpuSeconds() {
  struct rusage Ru {};
  getrusage(RUSAGE_SELF, &Ru);
  return tvSeconds(Ru.ru_utime) + tvSeconds(Ru.ru_stime);
}

double threadCpuSeconds() {
  struct timespec Ts {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) / 1e9;
}

double peakRssMb() {
  struct rusage Ru {};
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void tightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return std::nan("");
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(Q * static_cast<double>(Samples.size()));
  std::size_t Idx = Rank < 1 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return Samples[std::min(Idx, Samples.size() - 1)];
}

uint64_t SplitMix::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t SplitMix::expGapNs(double RatePerSec) {
  double U = unit();
  double Gap = -std::log1p(-U) / RatePerSec * 1e9;
  return static_cast<uint64_t>(Gap) + 1;
}

std::string makeBody(uint64_t Id, std::size_t Len) {
  static const char Alphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  SplitMix R(Id * 0x2545f4914f6cdd1dULL + 0x6a09e667f3bcc909ULL);
  std::string Body(Len, ' ');
  uint64_t Bits = 0;
  for (std::size_t I = 0; I < Len; ++I) {
    if (I % 8 == 0)
      Bits = R.next();
    Body[I] = Alphabet[(Bits & 0xff) % 62];
    Bits >>= 8;
  }
  return Body;
}

std::string objectTarget(uint64_t Id) { return "/obj?id=" + std::to_string(Id); }

static bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 19)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

bool parseOptions(const std::vector<std::string> &Args, Options &Out,
                  std::string &Error) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (std::size_t I = 0; I < Args.size(); ++I) {
    std::string Flag = Args[I], Value;
    bool Inline = false;
    if (std::size_t Eq = Flag.find('='); Eq != std::string::npos) {
      Value = Flag.substr(Eq + 1);
      Flag = Flag.substr(0, Eq);
      Inline = true;
    }
    if (Flag == "--self-test" && !Inline) {
      Out.SelfTest = true;
      continue;
    }
    if (Flag != "--workload" && Flag != "--seed" && Flag != "--seconds" &&
        Flag != "--trace") {
      Error = "unknown argument '" + Args[I] + "'";
      return false;
    }
    if (!Inline) {
      if (I + 1 >= Args.size()) {
        Error = "missing value for " + Flag;
        return false;
      }
      Value = Args[++I];
    }
    uint64_t N = 0;
    if (Flag == "--workload") {
      if (HaveWorkload) {
        Error = "--workload given twice";
        return false;
      }
      Out.Workload = Value;
      HaveWorkload = true;
    } else if (!parseUnsigned(Value, N)) {
      Error = "bad number '" + Value + "' for " + Flag;
      return false;
    } else if (Flag == "--seed") {
      if (HaveSeed) {
        Error = "--seed given twice";
        return false;
      }
      Out.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (HaveSeconds || N < 1 || N > 600) {
        Error = "--seconds must be given once, within 1..600";
        return false;
      }
      Out.Seconds = static_cast<unsigned>(N);
      HaveSeconds = true;
    } else {
      if (HaveTrace || N > 1) {
        Error = "--trace must be given once, as 0 or 1";
        return false;
      }
      Out.Trace = N == 1;
      HaveTrace = true;
    }
  }
  if (Out.SelfTest) {
    if (HaveWorkload || HaveSeed || HaveSeconds || HaveTrace) {
      Error = "--self-test takes no other arguments";
      return false;
    }
    return true;
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace) {
    Error = "required: --workload W --seed N --seconds N --trace 0|1";
    return false;
  }
  return true;
}

void Result::wrong(const std::string &Why) {
  Correct = false;
  Problems.push_back(Why);
}

std::string jsonNumber(double V) {
  if (std::isnan(V))
    return "NaN";
  if (std::isinf(V))
    return V > 0 ? "Infinity" : "-Infinity";
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      std::size_t B = Line.find_first_not_of(" \t", Colon + 1);
      return B == std::string::npos ? "" : Line.substr(B);
    }
  return "unknown";
}

void printResult(const Result &R) {
  std::printf("\n%-40s %18s  %s\n", "metric", "value", "unit");
  for (const Metric &M : R.Metrics)
    std::printf("%-40s %18.6g  %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const std::string &P : R.Problems)
    std::printf("WRONG OUTPUT: %s\n", P.c_str());

  std::string Metrics = "{";
  for (std::size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Metrics += (I ? ", " : "") + jsonString(M.Name) +
               ": {\"value\": " + jsonNumber(M.Value) +
               ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Metrics += "}";
  std::string Info = "{";
  for (std::size_t I = 0; I < R.Info.size(); ++I)
    Info += (I ? ", " : "") + jsonString(R.Info[I].first) + ": " +
            R.Info[I].second;
  Info += "}";
  std::string Problems = "[";
  for (std::size_t I = 0; I < R.Problems.size(); ++I)
    Problems += (I ? ", " : "") + jsonString(R.Problems[I]);
  Problems += "]";
  // The full record (what perfbench/run.py --compare reads), then the
  // one-line result object, which must be the last line of stdout.
  std::printf("perfbench-record: {\"info\": %s, \"problems\": %s, "
              "\"metrics\": %s}\n",
              Info.c_str(), Problems.c_str(), Metrics.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  std::fflush(stdout);
}

} // namespace perfbench
