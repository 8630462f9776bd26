//===- perfbench/src/LoadGen.h - Loopback HTTP load generator ---*- C++ -*-===//
//
// One generator thread drives up to four client sockets with ppoll:
//
//  * KeepAliveClient — persistent connections. Open loop: every request is
//    written when it falls due, pipelined behind any still unanswered, so
//    a stalled server delays the requests due during the stall by exactly
//    the stall (no coordinated omission). Closed loop: one request in
//    flight per connection.
//  * FreshClient — one connection per request ("Connection: close"), at
//    most Slots open at once; a request due while every slot is busy
//    waits, and its latency still counts from when it was due.
//
// Every response is checked against the body the origin derives from the
// object id. A failure (non-200, 503, reset, timeout, wrong body) is a
// +inf latency sample.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// One planned open-loop request.
struct Planned {
  uint64_t DueNs = 0; ///< offset from the start of the phase
  uint64_t Object = 0;
};

/// Width of the windows windowedQuantile() takes its median over.
constexpr uint64_t LatencyWindowNs = 50000000;

/// Per-request outcome of an open-loop phase (same order as the plan).
struct RequestRecord {
  uint64_t DueNs = 0;
  uint64_t IssueNs = 0;     ///< when the generator got to it (lag = - Due)
  uint64_t FirstByteNs = 0; ///< first response byte seen (0 = none)
  uint64_t DoneNs = 0;      ///< last response byte seen (0 = failed)
  uint64_t TraceLo = 0;     ///< low half of the traceparent it rode under
};

/// Counts and samples of one phase.
struct PhaseStats {
  uint64_t Issued = 0;
  uint64_t Ok = 0;      ///< 200 with the expected body
  uint64_t Failed = 0;  ///< everything else, including wrong bodies
  uint64_t Wrong = 0;   ///< subset of Failed: 200 with an unexpected body
  uint64_t Status503 = 0;
  std::vector<RequestRecord> Records; ///< open loop only
  uint64_t StartNs = 0, EndNs = 0;    ///< the measured window
  std::vector<uint64_t> OkPerSecond;  ///< closed loop: 200s per second
  double GenCpuSeconds = 0;
  std::vector<std::string> Problems; ///< first few wrong outputs, described

  /// Latency samples in µs from due to last byte, failures as +inf.
  std::vector<double> latencyMicros() const;
  std::vector<double> ttfbMicros() const;
  std::vector<double> lagMicros() const;
  /// Quantile \p Q of the requests due in each whole \p WindowNs window of
  /// the phase (failures as +inf).
  std::vector<double> quantilePerWindow(double Q, uint64_t WindowNs) const;
  /// The open-loop latency quantile the proxy workloads report: the median
  /// over the phase's LatencyWindowNs windows of each window's quantile
  /// \p Q. A stall or a failure share that recurs in at least half of the
  /// windows moves it; one confined to fewer windows does not. Host
  /// scheduling hiccups, several a second on a shared host, set the
  /// whole-phase p99 but move this only when most windows hold one.
  double windowedQuantile(double Q) const;
  /// Closed loop: completions in each whole second of the window.
  std::vector<double> okPerWholeSecond() const;
  void note(const std::string &Problem);
};

/// Checks a response body against the origin's deterministic body;
/// bodies of a fixed hot set may be precomputed.
class BodyOracle {
public:
  explicit BodyOracle(std::size_t BodyBytes) : BodyBytes(BodyBytes) {}
  void precompute(uint64_t Object);
  bool matches(uint64_t Object, std::string_view Body) const;

private:
  std::size_t BodyBytes;
  std::unordered_map<uint64_t, std::string> Known;
};

/// High half of every traceparent the generator sends ("perfbenc"); the
/// low half identifies the connection (keep-alive) or request (fresh).
constexpr uint64_t TraceHi = 0x7065726662656e63ULL;

class KeepAliveClient {
public:
  KeepAliveClient(uint16_t Port, unsigned Connections, const BodyOracle &Oracle);
  ~KeepAliveClient();
  KeepAliveClient(const KeepAliveClient &) = delete;
  KeepAliveClient &operator=(const KeepAliveClient &) = delete;

  /// Opens the connections; the first request on connection i carries a
  /// traceparent whose low half is \p TraceBase + i.
  bool open(uint64_t TraceBase, std::string &Error);
  /// Open loop over \p Plan (request i goes to connection i mod N), then
  /// waits up to \p DrainNs for the last responses.
  void openLoop(const std::vector<Planned> &Plan, uint64_t DrainNs,
                PhaseStats &Out);
  /// Closed loop for \p WindowNs: each connection sends its next request
  /// as soon as the previous answer arrived, objects drawn by \p Next.
  void closedLoop(uint64_t WindowNs, uint64_t DrainNs,
                  const std::function<uint64_t()> &Next, PhaseStats &Out);
  void close();

private:
  struct InFlight {
    uint64_t Object = 0;
    int64_t Record = -1; ///< index into Out.Records, -1 in closed loop
  };
  struct Conn {
    int Fd = -1;
    std::string OutBuf;
    std::size_t OutOff = 0;
    std::string InBuf;
    std::size_t InOff = 0;
    std::deque<InFlight> Queue;
    uint64_t TraceLo = 0;
    bool SentTraceparent = false;
  };

  void enqueue(Conn &C, const InFlight &F);
  /// Writes what the kernel takes; false on a dead socket.
  bool flush(Conn &C);
  /// Reads and completes the responses that arrived; false on a dead
  /// socket.
  bool receive(Conn &C, PhaseStats &Out);
  /// Fails every request in flight on \p C and closes it.
  void failAll(Conn &C, PhaseStats &Out);
  void flushAll(PhaseStats &Out);
  void pollOnce(uint64_t TimeoutNs, PhaseStats &Out);
  std::size_t outstanding() const;
  bool reconnect(Conn &C);

  uint16_t Port;
  const BodyOracle &Oracle;
  std::vector<Conn> Conns;
};

class FreshClient {
public:
  FreshClient(uint16_t Port, unsigned Slots, const BodyOracle &Oracle);
  ~FreshClient();
  FreshClient(const FreshClient &) = delete;
  FreshClient &operator=(const FreshClient &) = delete;

  /// Open loop over \p Plan; request i's traceparent low half is
  /// \p TraceBase + i.
  void openLoop(const std::vector<Planned> &Plan, uint64_t TraceBase,
                uint64_t DrainNs, PhaseStats &Out);
  /// Closed loop for \p WindowNs: every slot starts its next request when
  /// the previous one ends, objects \p FirstObject, FirstObject + 1, ...
  void closedLoop(uint64_t WindowNs, uint64_t DrainNs, uint64_t FirstObject,
                  PhaseStats &Out);

private:
  enum class State { Idle, Connecting, Writing, Reading };
  struct Slot {
    int Fd = -1;
    State St = State::Idle;
    uint64_t Object = 0;
    int64_t Record = -1;
    uint64_t StartNs = 0, FirstByteNs = 0, DoneNs = 0;
    std::string OutBuf;
    std::size_t OutOff = 0;
    std::string InBuf;
    int Status = 0;
    bool Complete = false, BodyOk = false;
  };

  void start(Slot &S, uint64_t Object, int64_t Record, uint64_t TraceLo,
             PhaseStats &Out);
  /// Advances \p S on readiness, finishing it at EOF or on an error.
  void advance(Slot &S, short Revents, PhaseStats &Out);
  /// Closes \p S and records its outcome (a response that never fully
  /// arrived is a failure).
  void finish(Slot &S, PhaseStats &Out);
  void pollOnce(uint64_t TimeoutNs, PhaseStats &Out);
  void expire(uint64_t NowNs, PhaseStats &Out);

  uint16_t Port;
  const BodyOracle &Oracle;
  std::vector<Slot> Slots;
  unsigned Busy = 0;
};

/// Builds one GET for \p Object; a nonzero \p TraceLo adds a traceparent.
std::string makeRequest(uint64_t Object, uint64_t TraceLo, bool Close);

/// Incremental HTTP/1.1 response parser over \p Buf from \p Off.
enum class Parse { NeedMore, Complete, Malformed };
Parse parseResponse(const std::string &Buf, std::size_t &Off, int &Status,
                    std::string_view &Body);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
