//===- perfbench/src/SelfTest.cpp - The benchmark's own tests --------------===//
//
// Checks the measuring instrument itself, against servers owned by the
// test: an injected 50 ms stall shows up in every request that fell due
// during it (no coordinated omission), a stall that recurs in most latency
// windows and a share of failed requests move the reported p99, failed
// requests rank as +inf, and the command line rejects what it does not
// know.
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"
#include "Workloads.h"

#include "support/HttpServer.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

constexpr std::size_t Body = 256;
constexpr uint64_t StallNs = 50000000; // 50 ms
constexpr uint64_t ShortStallNs = 5000000; // 5 ms

int Failures = 0;

void expect(bool Cond, const std::string &What) {
  std::printf("%s %s\n", Cond ? "PASS" : "FAIL", What.c_str());
  if (!Cond)
    ++Failures;
}

/// A single-connection keep-alive HTTP server on its own thread. Request
/// number StallAt is answered only after a 50 ms sleep, and every
/// StallEvery-th request (if nonzero) after a 5 ms one; ids ending in 3
/// get a 503 and ids ending in 7 a wrong body when Faulty is set.
class TinyServer {
public:
  TinyServer(std::size_t StallAt, bool Faulty, std::size_t StallEvery = 0)
      : StallAt(StallAt), StallEvery(StallEvery), Faulty(Faulty) {
    Listen = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    struct sockaddr_in Addr {};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t Len = sizeof Addr;
    ::bind(Listen, reinterpret_cast<struct sockaddr *>(&Addr), sizeof Addr);
    ::listen(Listen, 4);
    ::getsockname(Listen, reinterpret_cast<struct sockaddr *>(&Addr), &Len);
    Port = ntohs(Addr.sin_port);
    Thread = std::thread([this] { serve(); });
  }
  ~TinyServer() {
    ::shutdown(Listen, SHUT_RDWR);
    ::close(Listen);
    Thread.join();
  }
  TinyServer(const TinyServer &) = delete;
  TinyServer &operator=(const TinyServer &) = delete;

  uint16_t Port = 0;
  std::atomic<uint64_t> StallBeginNs{0}, StallEndNs{0};

private:
  void serve() {
    int Fd = ::accept(Listen, nullptr, nullptr);
    if (Fd < 0)
      return;
    std::string Buf;
    char Chunk[4096];
    std::size_t Served = 0;
    for (;;) {
      std::size_t End;
      while ((End = Buf.find("\r\n\r\n")) == std::string::npos) {
        ssize_t N = ::recv(Fd, Chunk, sizeof Chunk, 0);
        if (N <= 0) {
          ::close(Fd);
          return;
        }
        Buf.append(Chunk, static_cast<std::size_t>(N));
      }
      std::size_t IdAt = Buf.find("id=") + 3;
      uint64_t Id = std::stoull(Buf.substr(IdAt, Buf.find(' ', IdAt) - IdAt));
      Buf.erase(0, End + 4);
      if (Served == StallAt) {
        StallBeginNs = nowNs();
        std::this_thread::sleep_for(std::chrono::nanoseconds(StallNs));
        StallEndNs = nowNs();
      } else if (StallEvery && Served % StallEvery == StallEvery - 1) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(ShortStallNs));
      }
      ++Served;
      int Status = 200;
      std::string B = makeBody(Id, Body);
      if (Faulty && Id % 10 == 3) {
        Status = 503;
        B = "busy";
      } else if (Faulty && Id % 10 == 7) {
        B[0] = B[0] == 'A' ? 'B' : 'A';
      }
      std::string R = "HTTP/1.1 " + std::to_string(Status) +
                      " X\r\nContent-Length: " + std::to_string(B.size()) +
                      "\r\n\r\n" + B;
      ::send(Fd, R.data(), R.size(), MSG_NOSIGNAL);
    }
  }

  int Listen = -1;
  std::size_t StallAt, StallEvery;
  bool Faulty;
  std::thread Thread;
};

/// 2,000 req/s, one request every 500 µs.
std::vector<Planned> steadyPlan(std::size_t N) {
  std::vector<Planned> Plan;
  for (std::size_t I = 0; I < N; ++I)
    Plan.push_back({(I + 1) * 500000ULL, I});
  return Plan;
}

/// Every request due while the server stalled must finish no earlier than
/// the stall's end, i.e. carry the part of the stall it waited through —
/// and must have been issued on schedule, not held back by the generator.
void checkStall(const PhaseStats &S, uint64_t B, uint64_t E, const char *Who) {
  std::size_t During = 0, Charged = 0, OnTime = 0;
  for (const RequestRecord &R : S.Records) {
    if (R.DueNs < B || R.DueNs >= E)
      continue;
    ++During;
    Charged += R.DoneNs >= E;
    OnTime += R.IssueNs - R.DueNs < StallNs / 5;
  }
  expect(B && E - B >= StallNs,
         std::string(Who) + ": the server stalled for 50 ms");
  expect(During >= 50, std::string(Who) + ": " + std::to_string(During) +
                           " requests fell due during the stall");
  expect(Charged == During,
         std::string(Who) + ": each of them completed after the stall ended");
  expect(OnTime == During,
         std::string(Who) + ": the generator reached each one on schedule");
  std::vector<double> Lat = S.latencyMicros();
  expect(percentile(Lat, 0.99) >= static_cast<double>(StallNs) / 1e3 * 0.5,
         std::string(Who) + ": the stall reaches the phase p99");
  std::printf("     %s: reported (windowed) p99 %.0f us\n", Who,
              S.windowedQuantile(0.99));
}

void stallKeepAlive() {
  TinyServer Server(100, false);
  BodyOracle Oracle(Body);
  KeepAliveClient C(Server.Port, 1, Oracle);
  std::string Error;
  expect(C.open(1, Error), "keep-alive: connects to the test server");
  PhaseStats S;
  C.openLoop(steadyPlan(600), 2000000000ULL, S);
  C.close();
  expect(S.Ok == 600 && S.Failed == 0, "keep-alive: all 600 answered");
  checkStall(S, Server.StallBeginNs, Server.StallEndNs, "keep-alive");
}

void stallFresh() {
  // support/HttpServer serves one connection at a time, so a handler
  // stall blocks every connection behind it.
  std::atomic<uint64_t> Count{0}, B{0}, E{0};
  repro::http::HttpServer Server;
  Server.route("/obj", [&](const repro::http::Request &R) {
    if (Count++ == 100) {
      B = nowNs();
      std::this_thread::sleep_for(std::chrono::nanoseconds(StallNs));
      E = nowNs();
    }
    return repro::http::Response{
        200, "text/plain",
        makeBody(static_cast<uint64_t>(R.queryInt("id", 0)), Body)};
  });
  std::string Error;
  expect(Server.start(0, &Error), "fresh: test origin starts");
  BodyOracle Oracle(Body);
  FreshClient C(Server.port(), 4, Oracle);
  PhaseStats S;
  C.openLoop(steadyPlan(600), 1, 2000000000ULL, S);
  Server.stop();
  expect(S.Ok == 600 && S.Failed == 0, "fresh: all 600 answered");
  checkStall(S, B, E, "fresh");
}

/// A 5 ms stall every 80th request (every 40 ms at 2,000 req/s) lands in
/// every 50 ms window, so it must move the reported p99.
void recurringStallMovesP99() {
  TinyServer Server(1u << 30, false, 80);
  BodyOracle Oracle(Body);
  KeepAliveClient C(Server.Port, 1, Oracle);
  std::string Error;
  expect(C.open(1, Error), "recurring: connects to the test server");
  PhaseStats S;
  C.openLoop(steadyPlan(2000), 2000000000ULL, S);
  C.close();
  expect(S.Ok == 2000 && S.Failed == 0, "recurring: all 2000 answered");
  double P99 = S.windowedQuantile(0.99);
  expect(P99 >= static_cast<double>(ShortStallNs) / 1e3 * 0.4,
         "recurring: a 5 ms stall in every window moves the reported p99 (" +
             std::to_string(static_cast<int>(P99)) + " us)");
}

/// The reported quantile on synthetic phases of 19 whole 50 ms windows of
/// 1,000 requests, each 100 µs unless stalled or failed (latency 0).
void windowedQuantileSynthetic() {
  auto Phase = [](auto &&Shape) {
    PhaseStats S;
    for (uint64_t I = 0; I < 20000; ++I) {
      uint64_t Due = I * 50000;
      RequestRecord R;
      R.DueNs = R.IssueNs = Due;
      uint64_t Lat = Shape(I, Due / LatencyWindowNs);
      R.DoneNs = Lat ? Due + Lat : 0;
      S.Records.push_back(R);
    }
    return S;
  };
  auto Fast = [](uint64_t, uint64_t) -> uint64_t { return 100000; };
  expect(Phase(Fast).windowedQuantile(0.99) == 100,
         "synthetic: a steady phase reports its p99");
  // Every 50th request fails: 2% of each window, so each window's p99.
  auto Fail50 = [](uint64_t I, uint64_t) -> uint64_t {
    return I % 50 == 0 ? 0 : 100000;
  };
  expect(std::isinf(Phase(Fail50).windowedQuantile(0.99)),
         "synthetic: 2% failed requests make the reported p99 +inf");
  // A 20 ms stall (the first 400 requests of a window) in 11 of the 19
  // windows moves the median window; in 9 of them it does not.
  auto Stall = [](uint64_t Of20) {
    return [Of20](uint64_t I, uint64_t W) -> uint64_t {
      return W % 20 < Of20 && I % 1000 < 400 ? 20000000 : 100000;
    };
  };
  expect(Phase(Stall(11)).windowedQuantile(0.99) == 20000,
         "synthetic: a stall in 11 of 19 windows sets the reported p99");
  expect(Phase(Stall(9)).windowedQuantile(0.99) == 100,
         "synthetic: a stall in 9 of 19 windows does not (the blind spot)");
}

void failuresRankInfinite() {
  std::vector<double> V(990, 1.0);
  expect(std::isfinite(percentile(V, 0.99)), "percentile of 990 ok samples");
  V.insert(V.end(), 10, Inf);
  expect(std::isinf(percentile(V, 0.995)) && percentile(V, 0.99) == 1.0,
         "10 failures in 1000 rank above p99, at p99.5");
  V.push_back(Inf);
  expect(std::isinf(percentile(V, 0.99)), "11 failures in 1001 reach p99");

  TinyServer Server(1u << 30, /*Faulty=*/true);
  BodyOracle Oracle(Body);
  KeepAliveClient C(Server.Port, 1, Oracle);
  std::string Error;
  expect(C.open(1, Error), "faulty: connects to the test server");
  PhaseStats S;
  C.openLoop(steadyPlan(400), 2000000000ULL, S);
  C.close();
  std::vector<double> Lat = S.latencyMicros();
  std::size_t Infinite = 0;
  for (double L : Lat)
    Infinite += std::isinf(L);
  expect(S.Failed == 80 && S.Status503 == 40 && S.Wrong == 40,
         "faulty: 40 503s and 40 wrong bodies counted as failures");
  expect(Infinite == 80, "faulty: each failure is a +inf latency sample");
  expect(std::isinf(percentile(Lat, 0.99)) && std::isfinite(percentile(Lat, 0.5)),
         "faulty: p99 is +inf, p50 stays finite");
  expect(std::isinf(S.windowedQuantile(0.99)) &&
             std::isfinite(S.windowedQuantile(0.5)),
         "faulty: the reported p99 is +inf, the reported p50 finite");
  expect(!S.Problems.empty(), "faulty: a wrong body is reported as wrong output");
}

void strictCommandLine() {
  auto Parses = [](std::vector<std::string> Args) {
    Options O;
    std::string Error;
    return parseOptions(Args, O, Error);
  };
  expect(Parses({"--workload", "jobs_mix", "--seed", "3", "--seconds", "5",
                 "--trace", "0"}),
         "the full command line parses");
  expect(Parses({"--workload=proxy_hit", "--seed=3", "--seconds=5", "--trace=1"}),
         "--flag=value parses");
  expect(!Parses({"--workload", "jobs_mix", "--sed", "3", "--seconds", "5",
                  "--trace", "0"}),
         "a misspelled --seed is rejected");
  expect(!Parses({"--workload", "jobs_mix", "--seconds", "5", "--trace", "0"}),
         "a missing --seed is rejected");
  expect(!Parses({"--workload", "jobs_mix", "--seed", "x", "--seconds", "5",
                  "--trace", "0"}),
         "a malformed --seed is rejected");
  expect(!Parses({"--workload", "jobs_mix", "--seed", "3", "--seconds", "5",
                  "--trace", "2"}),
         "--trace 2 is rejected");
  expect(!Parses({"--workload", "jobs_mix", "--seed", "3", "--seconds", "5",
                  "--trace", "0", "extra"}),
         "a stray argument is rejected");
}

} // namespace

int runSelfTests() {
  tightenTimerSlack();
  strictCommandLine();
  failuresRankInfinite();
  windowedQuantileSynthetic();
  stallKeepAlive();
  stallFresh();
  recurringStallMovesP99();
  std::printf("%d failure(s)\n", Failures);
  return Failures;
}

} // namespace perfbench
