//===- perfbench/src/ProxyBench.cpp - proxy_hit / proxy_miss ---------------===//
//
// RealProxy over loopback in front of an origin the benchmark owns
// (support/HttpServer with a handler that serves makeBody(id)). Each part
// sets up origin + proxy, warms it, runs an open-loop Poisson phase and a
// closed-loop saturation phase, and checks every body and every counter.
//
// The traced part turns on only what RealProxy already has: request
// tracing at head rate 1.0 and the telemetry server, whose /snapshot.json
// is scraped at the phase boundaries and whose /spans.json yields the
// per-span self times.
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"
#include "Workloads.h"

#include "apps/RealProxy.h"
#include "support/HttpServer.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

using repro::apps::RealProxy;
using repro::apps::RealProxyConfig;
using repro::apps::RealProxyStats;
namespace json = repro::json;

// Fixed constants of the workloads (never calibrated per run).
constexpr unsigned ProxyWorkers = 2;
constexpr unsigned Connections = 4;
constexpr std::size_t BodyBytes = 1024;
constexpr std::size_t HotKeys = 1024;
constexpr double HitRatePerSec = 20000;
constexpr double MissRatePerSec = 4000;
constexpr std::size_t MissWarmRequests = 256;
constexpr unsigned SetupRepeats = 5;
constexpr double OpenShare = 0.6; ///< of a part; saturation gets the rest
constexpr uint64_t DrainNs = 5000000000ULL;

/// The origin: support/HttpServer running a handler the benchmark owns.
class Origin {
public:
  Origin() {
    Server.route("/obj", [this](const repro::http::Request &R) {
      uint64_t T0 = nowNs();
      int64_t Id = R.queryInt("id", -1);
      if (Id < 0)
        return repro::http::Response{404, "text/plain", "no such object\n"};
      repro::http::Response Resp{200, "text/plain",
                                 makeBody(static_cast<uint64_t>(Id), BodyBytes)};
      Requests.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> Lock(M);
      HandlerMicros.push_back(static_cast<double>(nowNs() - T0) / 1e3);
      return Resp;
    });
  }
  bool start(std::string &Error) { return Server.start(0, &Error); }
  uint16_t port() const { return Server.port(); }
  uint64_t requests() const { return Requests.load(std::memory_order_relaxed); }
  std::vector<double> handlerMicrosSince(std::size_t From) {
    std::lock_guard<std::mutex> Lock(M);
    From = std::min(From, HandlerMicros.size());
    return {HandlerMicros.begin() + static_cast<std::ptrdiff_t>(From),
            HandlerMicros.end()};
  }
  std::size_t handled() {
    std::lock_guard<std::mutex> Lock(M);
    return HandlerMicros.size();
  }

private:
  std::atomic<uint64_t> Requests{0};
  std::mutex M;
  std::vector<double> HandlerMicros; ///< guarded by M
  repro::http::HttpServer Server;    ///< last: stops before the rest dies
};

/// One origin + one proxy. The proxy is declared last so it stops (and
/// dumps into Metrics) while the origin and the registry still live.
struct Instance {
  Origin Org;
  repro::MetricsRegistry Metrics;
  std::atomic<int> TelemetryPort{-1};
  std::unique_ptr<RealProxy> Proxy;
};

std::unique_ptr<Instance> startInstance(bool Traced, std::string &Error) {
  auto I = std::make_unique<Instance>();
  if (!I->Org.start(Error))
    return nullptr;
  RealProxyConfig C;
  C.OriginPort = I->Org.port();
  C.Admission.Enabled = true; // default controller config
  C.Metrics = &I->Metrics;
  C.Rt.NumWorkers = ProxyWorkers;
  C.Rt.NumLevels = 4;
  if (Traced) {
    C.Tracing.Enabled = true;
    C.Tracing.Config.HeadSampleRate = 1.0;
    C.Tracing.Config.MaxRetainedTraces = 2048;
    C.Tracing.Config.MaxSpansPerTrace = 4096;
    C.TelemetryPort = 0;
    C.TelemetryPortOut = &I->TelemetryPort;
  }
  I->Proxy = std::make_unique<RealProxy>(C);
  if (!I->Proxy->start(&Error))
    return nullptr;
  if (Traced && I->TelemetryPort.load() <= 0) {
    Error = "telemetry server did not start";
    return nullptr;
  }
  return I;
}

std::optional<json::Value> scrape(const Instance &I, const std::string &Path) {
  int Port = I.TelemetryPort.load();
  auto R = repro::http::get(static_cast<uint16_t>(Port), Path, 20000);
  if (!R || R->Status != 200)
    return std::nullopt;
  return json::parse(R->Body);
}

double num(const json::Value &V, std::string_view Key) {
  const json::Value *F = V.find(Key);
  return F && F->isNumber() ? F->asNumber() : 0.0;
}

std::string str(const json::Value &V, std::string_view Key) {
  const json::Value *F = V.find(Key);
  return F && F->isString() ? F->asString() : std::string();
}

/// Σ offered over the admission levels of a /snapshot.json document.
double admissionOffered(const json::Value &Snap) {
  double Sum = 0;
  if (const json::Value *A = Snap.find("admission"))
    if (const json::Value *Ls = A->find("levels"))
      for (const json::Value &L : Ls->elements())
        Sum += num(L, "offered");
  return Sum;
}

double admissionField(const json::Value &Snap, std::string_view Key) {
  const json::Value *A = Snap.find("admission");
  return A ? num(*A, Key) : 0.0;
}

/// /spans.json once every started trace has finished (a connection's
/// trace finishes when the proxy drops the closed connection).
std::optional<json::Value> finishedSpans(const Instance &I) {
  std::optional<json::Value> Spans;
  for (int Try = 0; Try < 100; ++Try) {
    Spans = scrape(I, "/spans.json");
    const json::Value *St = Spans ? Spans->find("stats") : nullptr;
    if (St && num(*St, "started") == num(*St, "finished"))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Spans;
}

/// One proxy instance's measured life.
struct ProxyPart {
  bool Hit = true;
  std::vector<double> SetupSeconds;
  PhaseStats Warm, Open, Sat;
  RealProxyStats Before, After;
  uint64_t OriginBefore = 0, OriginAfter = 0;
  std::vector<double> OriginHandlerMicros;
  double OpenCpuSeconds = 0, OpenPeakRssMb = 0, MeasuredWallSeconds = 0;
  // Traced part only.
  std::optional<json::Value> SnapBefore, SnapAfter, Spans;
  std::map<std::string, uint64_t> Counters;
  std::array<double, 4> QueueWaitP50{}, QueueWaitP99{};
  std::vector<std::string> Problems;
};

/// Object ids of this seed above a seed-derived base: the hot set, the
/// warm-up, then the unique ids of the open-loop phase followed by those
/// of the saturation phase, so no two ranges meet at any run length.
struct Keys {
  explicit Keys(uint64_t Seed) {
    SplitMix R(Seed ^ 0x70726f78795f6b65ULL);
    Base = (R.next() >> 24) << 20; // < 2^60: no range wraps
  }
  uint64_t hot(std::size_t K) const { return Base + K; }
  uint64_t warmMiss(std::size_t K) const { return Base + (1ULL << 12) + K; }
  uint64_t openMiss(std::size_t K) const { return Base + (1ULL << 13) + K; }
  uint64_t Base = 0;
};

/// The open-loop plan: Poisson arrivals at \p RatePerSec over \p Seconds.
std::vector<Planned> poissonPlan(SplitMix &R, double RatePerSec, double Seconds,
                                 const std::function<uint64_t(std::size_t)> &Obj) {
  std::vector<Planned> Plan;
  const uint64_t End = static_cast<uint64_t>(Seconds * 1e9);
  uint64_t Due = 0;
  for (;;) {
    Due += R.expGapNs(RatePerSec);
    if (Due >= End)
      break;
    Plan.push_back({Due, Obj(Plan.size())});
  }
  return Plan;
}

ProxyPart runPart(bool Hit, uint64_t Seed, double Seconds, bool Traced,
                  unsigned Setups, std::string &Error) {
  ProxyPart P;
  P.Hit = Hit;
  Keys K(Seed);
  BodyOracle Oracle(BodyBytes);
  if (Hit)
    for (std::size_t I = 0; I < HotKeys; ++I)
      Oracle.precompute(K.hot(I));

  // Set-up, repeated: origin + proxy start, warm-up, measured connections.
  std::unique_ptr<Instance> Inst;
  std::unique_ptr<KeepAliveClient> Ka;
  for (unsigned S = 0; S < Setups; ++S) {
    Ka.reset();
    Inst.reset();
    P.Warm = PhaseStats{};
    uint64_t T0 = nowNs();
    Inst = startInstance(Traced, Error);
    if (!Inst)
      return P;
    std::vector<Planned> Warm;
    if (Hit) {
      // Every hot key once, all due at once (pipelined 256 deep per
      // connection): fills the cache.
      for (std::size_t I = 0; I < HotKeys; ++I)
        Warm.push_back({0, K.hot(I)});
      KeepAliveClient W(Inst->Proxy->port(), Connections, Oracle);
      if (!W.open(1000000, Error))
        return P;
      W.openLoop(Warm, DrainNs, P.Warm);
      Ka = std::make_unique<KeepAliveClient>(Inst->Proxy->port(), Connections,
                                             Oracle);
      if (!Ka->open(1, Error))
        return P;
    } else {
      for (std::size_t I = 0; I < MissWarmRequests; ++I)
        Warm.push_back({0, K.warmMiss(I)});
      FreshClient W(Inst->Proxy->port(), Connections, Oracle);
      W.openLoop(Warm, 1000000, DrainNs, P.Warm);
    }
    P.SetupSeconds.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  if (P.Warm.Ok != P.Warm.Issued)
    P.Problems.push_back("warm-up: " + std::to_string(P.Warm.Failed) +
                         " of " + std::to_string(P.Warm.Issued) +
                         " requests failed");
  for (const std::string &Problem : P.Warm.Problems)
    P.Problems.push_back("warm-up: " + Problem);

  SplitMix R(Seed ^ (Hit ? 0x6869745f706c616eULL : 0x6d6973735f706c61ULL));
  std::vector<Planned> Plan =
      Hit ? poissonPlan(R, HitRatePerSec, Seconds * OpenShare,
                        [&](std::size_t) { return K.hot(R.below(HotKeys)); })
          : poissonPlan(R, MissRatePerSec, Seconds * OpenShare,
                        [&](std::size_t I) { return K.openMiss(I); });
  const uint64_t SatWindow =
      static_cast<uint64_t>(Seconds * (1 - OpenShare) * 1e9);

  P.Before = Inst->Proxy->stats();
  P.OriginBefore = Inst->Org.requests();
  std::size_t HandledBefore = Inst->Org.handled();
  if (Traced)
    P.SnapBefore = scrape(*Inst, "/snapshot.json");
  uint64_t Start = nowNs();
  double Cpu0 = processCpuSeconds();
  if (Hit) {
    Ka->openLoop(Plan, DrainNs, P.Open);
    P.OpenCpuSeconds = processCpuSeconds() - Cpu0;
    P.OpenPeakRssMb = peakRssMb();
    Ka->closedLoop(SatWindow, DrainNs, [&] { return K.hot(R.below(HotKeys)); },
                   P.Sat);
    Ka->close();
  } else {
    FreshClient C(Inst->Proxy->port(), Connections, Oracle);
    C.openLoop(Plan, 1, DrainNs, P.Open);
    P.OpenCpuSeconds = processCpuSeconds() - Cpu0;
    P.OpenPeakRssMb = peakRssMb();
    if (Traced) // before saturation's untagged traces evict these
      P.Spans = finishedSpans(*Inst);
    C.closedLoop(SatWindow, DrainNs, K.openMiss(Plan.size()), P.Sat);
  }
  P.MeasuredWallSeconds = static_cast<double>(nowNs() - Start) / 1e9;
  if (Traced) {
    if (Hit)
      P.Spans = finishedSpans(*Inst);
    P.SnapAfter = scrape(*Inst, "/snapshot.json");
    if (!P.SnapBefore || !P.SnapAfter || !P.Spans)
      P.Problems.push_back("telemetry scrape failed");
  }
  P.After = Inst->Proxy->stats();
  P.OriginAfter = Inst->Org.requests();
  P.OriginHandlerMicros = Inst->Org.handlerMicrosSince(HandledBefore);
  Inst->Proxy->stop(); // dumps realproxy.* into the registry
  P.Counters = Inst->Metrics.counters();
  for (unsigned L = 0; L < 4; ++L) {
    repro::Histogram H =
        Inst->Metrics
            .histogram("realproxy.runtime.level" + std::to_string(L) +
                           ".queue_wait_micros",
                       0, 100000, 200)
            .snapshot();
    P.QueueWaitP50[L] = H.total() ? H.quantile(0.5) : 0.0;
    P.QueueWaitP99[L] = H.total() ? H.quantile(0.99) : 0.0;
  }
  return P;
}

/// Checks one part's outputs and counters against its plan.
void verify(const ProxyPart &P, WorkloadRun &Run, const std::string &Tag) {
  Result &Out = Run.Out;
  for (const std::string &Problem : P.Problems)
    Out.wrong(Tag + ": " + Problem);
  for (const PhaseStats *S : {&P.Open, &P.Sat}) {
    Out.Attempted += S->Issued;
    Out.Failed += S->Failed;
    for (const std::string &Problem : S->Problems)
      Out.wrong(Tag + ": " + Problem);
  }
  uint64_t Ok = P.Open.Ok + P.Sat.Ok;
  uint64_t Issued = P.Open.Issued + P.Sat.Issued;
  uint64_t Failed = P.Open.Failed + P.Sat.Failed;
  uint64_t Hits = P.After.CacheHits - P.Before.CacheHits;
  uint64_t Misses = P.After.CacheMisses - P.Before.CacheMisses;
  uint64_t Requests = P.After.Requests - P.Before.Requests;
  uint64_t Origin = P.OriginAfter - P.OriginBefore;
  auto Check = [&](bool Cond, const std::string &What) {
    if (!Cond)
      Out.wrong(Tag + ": " + What);
  };
  Check(Hits + Misses == Requests,
        "proxy hits + misses != requests parsed (" + std::to_string(Hits) +
            " + " + std::to_string(Misses) + " vs " + std::to_string(Requests) +
            ")");
  uint64_t Expected = P.Hit ? Hits : Misses;
  uint64_t Unexpected = P.Hit ? Misses : Hits;
  if (Failed == 0) {
    Check(Expected == Ok && Unexpected == 0,
          std::string("proxy counted ") + std::to_string(Hits) + " hits, " +
              std::to_string(Misses) + " misses; the plan had " +
              std::to_string(Ok) + (P.Hit ? " hits, 0 misses" : " misses, 0 hits"));
  } else {
    Check(Expected >= Ok && Expected + Unexpected <= Issued,
          "proxy hit/miss counters outside what the client saw");
  }
  Check(Origin == Misses, "origin served " + std::to_string(Origin) +
                              " requests for " + std::to_string(Misses) +
                              " misses");
}

//===----------------------------------------------------------------------===//
// Span budget: self time per span name inside each client request window
//===----------------------------------------------------------------------===//

using Interval = std::pair<double, double>;

/// Σ length of (the union of \p Set) ∩ [Lo, Hi].
double coveredWithin(std::vector<Interval> Set, double Lo, double Hi) {
  for (Interval &I : Set) {
    I.first = std::max(I.first, Lo);
    I.second = std::min(I.second, Hi);
  }
  std::sort(Set.begin(), Set.end());
  double Sum = 0, CurLo = 0, CurHi = -1;
  for (const Interval &I : Set) {
    if (I.second <= I.first)
      continue;
    if (I.first > CurHi) {
      if (CurHi > CurLo)
        Sum += CurHi - CurLo;
      CurLo = I.first;
      CurHi = I.second;
    } else {
      CurHi = std::max(CurHi, I.second);
    }
  }
  if (CurHi > CurLo)
    Sum += CurHi - CurLo;
  return Sum;
}

const std::map<std::string, std::string> &layerSpans() {
  static const std::map<std::string, std::string> M = {
      {"accept", "span.accept"},       {"admission", "span.admission"},
      {"handler", "span.handler"},     {"io.connect", "span.io_connect"},
      {"io.read", "span.io_read"},     {"io.write", "span.io_write"},
      {"response", "span.response"},
  };
  return M;
}

/// Joins the traced open-loop phase's client requests to their traces
/// (by traceparent) and splits each request's latency into the self
/// times of the layer spans inside its window; what no layer span covers
/// is the residual.
void spanBudget(const ProxyPart &P, std::map<std::string, double> &V) {
  if (!P.Spans)
    return;
  const double Epoch = static_cast<double>(repro::traceEpochNanos());
  std::unordered_map<uint64_t, std::vector<std::size_t>> ByTrace;
  for (std::size_t I = 0; I < P.Open.Records.size(); ++I)
    if (P.Open.Records[I].DoneNs)
      ByTrace[P.Open.Records[I].TraceLo].push_back(I);

  std::map<std::string, double> SelfSum;
  double LatencySum = 0, CoveredSum = 0;
  uint64_t Joined = 0;
  const json::Value *Traces = P.Spans->find("traces");
  if (!Traces)
    return;
  for (const json::Value &T : Traces->elements()) {
    // Only traces adopted from the generator's traceparent: the trace id
    // is TraceHi followed by the low half that names the request(s).
    char Hi[17];
    std::snprintf(Hi, sizeof Hi, "%016llx",
                  static_cast<unsigned long long>(TraceHi));
    std::string Id = str(T, "trace_id");
    if (Id.size() != 32 || Id.compare(0, 16, Hi) != 0)
      continue;
    uint64_t Lo = std::strtoull(Id.c_str() + 16, nullptr, 16);
    auto It = ByTrace.find(Lo);
    const json::Value *Spans = T.find("spans");
    if (It == ByTrace.end() || !Spans)
      continue;
    struct S {
      std::string Id, Parent, Name;
      double Lo, Hi;
    };
    std::vector<S> All;
    double LastStart = 0;
    for (const json::Value &Sp : Spans->elements()) {
      double B = num(Sp, "start_micros");
      All.push_back({str(Sp, "span_id"), str(Sp, "parent_span_id"),
                     str(Sp, "name"), B, B + num(Sp, "duration_micros")});
      LastStart = std::max(LastStart, B);
    }
    bool Truncated = num(T, "spans_dropped") > 0;
    std::unordered_map<std::string, std::vector<Interval>> Children;
    std::vector<Interval> Layer;
    for (const S &Sp : All) {
      Children[Sp.Parent].push_back({Sp.Lo, Sp.Hi});
      if (layerSpans().count(Sp.Name))
        Layer.push_back({Sp.Lo, Sp.Hi});
    }
    for (std::size_t RI : It->second) {
      const RequestRecord &Rec = P.Open.Records[RI];
      double WLo = (static_cast<double>(Rec.DueNs) - Epoch) / 1e3;
      double WHi = (static_cast<double>(Rec.DoneNs) - Epoch) / 1e3;
      if (Truncated && WHi > LastStart)
        continue; // its spans may have been dropped past the per-trace cap
      ++Joined;
      LatencySum += WHi - WLo;
      CoveredSum += coveredWithin(Layer, WLo, WHi);
      for (const S &Sp : All) {
        auto L = layerSpans().find(Sp.Name);
        if (L == layerSpans().end() || Sp.Hi <= WLo || Sp.Lo >= WHi)
          continue;
        double Own = std::min(Sp.Hi, WHi) - std::max(Sp.Lo, WLo);
        auto C = Children.find(Sp.Id);
        double Kids = C == Children.end()
                          ? 0.0
                          : coveredWithin(C->second, std::max(Sp.Lo, WLo),
                                          std::min(Sp.Hi, WHi));
        SelfSum[L->second] += Own - Kids;
      }
    }
  }
  if (Joined == 0)
    return;
  for (const auto &[Span, Metric] : layerSpans())
    V[Metric] = SelfSum[Metric] / static_cast<double>(Joined);
  V["trace.budget_residual_frac"] =
      LatencySum > 0 ? 1.0 - CoveredSum / LatencySum : 0.0;
  std::printf("span budget: %llu requests joined to their traces\n",
              static_cast<unsigned long long>(Joined));
}

void perLayer(const ProxyPart &A, const ProxyPart &B,
              std::map<std::string, double> &V) {
  auto Ratio = [](double N, double D) { return D > 0 ? N / D : 0.0; };
  // Client-side figures come from the untraced part.
  V["gen.lag_p99_us"] = percentile(A.Open.lagMicros(), 0.99);
  V["gen.busy_frac"] = Ratio(
      A.Open.GenCpuSeconds,
      static_cast<double>(A.Open.EndNs - A.Open.StartNs) / 1e9);
  V["realproxy.ttfb_p50_us"] = percentile(A.Open.ttfbMicros(), 0.5);
  V["origin.handler_p50_us"] =
      A.OriginHandlerMicros.empty() ? 0.0
                                    : percentile(A.OriginHandlerMicros, 0.5);
  // Program counters come from the traced part.
  double Hits = static_cast<double>(B.After.CacheHits - B.Before.CacheHits);
  double Misses = static_cast<double>(B.After.CacheMisses - B.Before.CacheMisses);
  double Reqs = static_cast<double>(B.After.Requests - B.Before.Requests);
  V["realproxy.cache_hit_ratio"] = Ratio(Hits, Hits + Misses);
  V["origin.requests_per_miss"] =
      Ratio(static_cast<double>(B.OriginAfter - B.OriginBefore), Misses);
  auto Counter = [&](const std::string &Name) {
    auto It = B.Counters.find(Name);
    return It == B.Counters.end() ? 0.0 : static_cast<double>(It->second);
  };
  // Reactor counters exist only as the registry dump at stop(): whole
  // instance life, set-up included, per request parsed in that life.
  double LifeReqs = Counter("realproxy.requests");
  V["reactor.ops_per_req"] =
      Ratio(Counter("proxy.io.reads") + Counter("proxy.io.writes") +
                Counter("proxy.io.accepts") + Counter("proxy.io.connects"),
            LifeReqs);
  V["reactor.wakeups_per_req"] = Ratio(Counter("proxy.io.loop_wakeups"), LifeReqs);
  for (unsigned L = 0; L < 4; ++L) {
    V["runtime.queue_wait_p50_us.L" + std::to_string(L)] = B.QueueWaitP50[L];
    V["runtime.queue_wait_p99_us.L" + std::to_string(L)] = B.QueueWaitP99[L];
  }
  if (B.SnapBefore && B.SnapAfter) {
    const json::Value &S0 = *B.SnapBefore, &S1 = *B.SnapAfter;
    auto D = [&](std::string_view K) { return num(S1, K) - num(S0, K); };
    V["admission.offered_per_req"] =
        Ratio(admissionOffered(S1) - admissionOffered(S0), Reqs);
    V["admission.shed"] = admissionField(S1, "shed") - admissionField(S0, "shed");
    V["admission.queue_delay_p99_us"] =
        admissionField(S1, "queue_delay_p99_micros");
    V["runtime.busy_frac"] =
        Ratio(D("total_work_nanos"), ProxyWorkers * B.MeasuredWallSeconds * 1e9);
    V["runtime.tasks_per_op"] = Ratio(D("tasks_executed"), Reqs);
    V["runtime.steals_per_op"] =
        Ratio(D("steals_same_socket") + D("steals_cross_socket"), Reqs);
    V["runtime.batch_steal_tasks_per_op"] = Ratio(D("batch_steal_tasks"), Reqs);
    V["runtime.next_slot_hits_per_op"] = Ratio(D("next_slot_hits"), Reqs);
    V["runtime.pool_stacks_created"] = num(S1, "pool_stacks_created");
    V["runtime.injection_full_spins"] = num(S1, "injection_full_spins");
    V["runtime.ftouch_inversions"] = num(S1, "ftouch_inversions");
    V["runtime.stalls_detected"] = num(S1, "stalls_detected");
  }
  spanBudget(B, V);
  V["trace.overhead_frac"] =
      B.Open.windowedQuantile(0.5) / A.Open.windowedQuantile(0.5) - 1;
}

void describe(const ProxyPart &P, const char *Tag) {
  std::vector<double> W = P.Open.quantilePerWindow(0.99, LatencyWindowNs);
  std::printf("%s: open-loop p99 of %zu 50 ms windows: min %.0f, quartiles "
              "%.0f %.0f %.0f, max %.0f us\n",
              Tag, W.size(), percentile(W, 0.0), percentile(W, 0.25),
              percentile(W, 0.5), percentile(W, 0.75), percentile(W, 1.0));
  std::printf("%s: saturation completions per second:", Tag);
  for (double N : P.Sat.okPerWholeSecond())
    std::printf(" %.0f", N);
  std::printf("\n");
  std::printf("%s: setup", Tag);
  for (double S : P.SetupSeconds)
    std::printf(" %.3fs", S);
  std::printf("; open loop %llu ok / %llu issued, saturation %llu ok, "
              "503s %llu\n",
              static_cast<unsigned long long>(P.Open.Ok),
              static_cast<unsigned long long>(P.Open.Issued),
              static_cast<unsigned long long>(P.Sat.Ok),
              static_cast<unsigned long long>(P.Open.Status503 + P.Sat.Status503));
}

} // namespace

WorkloadRun runProxyWorkload(const Options &O, bool Hit) {
  WorkloadRun Run;
  auto &V = Run.Values;
  const double S = O.Seconds;
  std::string Error;
  ProxyPart A = runPart(Hit, O.Seed, O.Trace ? S / 2 : S, false,
                        O.Trace ? 1 : SetupRepeats, Error);
  if (!Error.empty()) {
    Run.Out.wrong("set-up failed: " + Error);
    return Run;
  }
  verify(A, Run, "untraced");
  describe(A, "untraced");
  std::vector<double> Lat = A.Open.latencyMicros();
  if (!O.Trace) {
    V["p50_us"] = A.Open.windowedQuantile(0.5);
    V["p99_us"] = A.Open.windowedQuantile(0.99);
    // The median whole second of the window: a host scheduling hiccup
    // spoils only the second it falls in.
    V["throughput_per_s"] = percentile(A.Sat.okPerWholeSecond(), 0.5);
    V["cpu_us_per_op"] = A.OpenCpuSeconds * 1e6 /
                         static_cast<double>(std::max<uint64_t>(A.Open.Ok, 1));
    V["peak_rss_mb"] = A.OpenPeakRssMb;
    V["setup_s"] = percentile(A.SetupSeconds, 0.5);
  } else {
    ProxyPart B = runPart(Hit, O.Seed, S / 2, true, 1, Error);
    if (!Error.empty()) {
      Run.Out.wrong("traced set-up failed: " + Error);
      return Run;
    }
    verify(B, Run, "traced");
    describe(B, "traced");
    perLayer(A, B, V);
  }
  Result &Out = Run.Out;
  Out.info("proxy_workers", std::to_string(ProxyWorkers));
  Out.info("connections", std::to_string(Connections));
  Out.info("open_loop_rate_per_s",
           jsonNumber(Hit ? HitRatePerSec : MissRatePerSec));
  Out.info("body_bytes", std::to_string(BodyBytes));
  Out.info("hot_keys", std::to_string(Hit ? HotKeys : 0));
  Out.info("open_loop_requests", std::to_string(A.Open.Issued));
  Out.info("latency_samples", std::to_string(Lat.size()));
  Out.info("run_peak_rss_mb", jsonNumber(peakRssMb()));
  Out.info("phase_p50_us", jsonNumber(percentile(Lat, 0.5)));
  Out.info("phase_p99_us", jsonNumber(percentile(Lat, 0.99)));
  Out.info("phase_p999_us", jsonNumber(percentile(Lat, 0.999)));
  return Run;
}

} // namespace perfbench
