//===- perfbench/src/LoadGen.cpp - Loopback HTTP load generator ------------===//

#include "LoadGen.h"

#include "BenchUtil.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

constexpr uint64_t RequestTimeoutNs = 5000000000ULL;
constexpr std::size_t MaxProblems = 8;

struct timespec toTimespec(uint64_t Ns) {
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Ns / 1000000000ULL);
  Ts.tv_nsec = static_cast<long>(Ns % 1000000000ULL);
  return Ts;
}

struct sockaddr_in loopback(uint16_t Port) {
  struct sockaddr_in Addr {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return Addr;
}

void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
}

/// Closes with an RST instead of a FIN, so no TIME_WAIT entry pins the
/// client port (the benchmark opens tens of thousands of connections).
void abortiveClose(int Fd) {
  struct linger L {1, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof L);
  ::close(Fd);
}

bool iequalsPrefix(std::string_view S, std::string_view Prefix) {
  if (S.size() < Prefix.size())
    return false;
  for (std::size_t I = 0; I < Prefix.size(); ++I)
    if (std::tolower(static_cast<unsigned char>(S[I])) != Prefix[I])
      return false;
  return true;
}

/// Records the outcome of one response.
void complete(PhaseStats &Out, int64_t Record, uint64_t Object, int Status,
              bool BodyOk, uint64_t NowNs) {
  bool Ok = Status == 200 && BodyOk;
  if (Ok) {
    ++Out.Ok;
    if (Record >= 0)
      Out.Records[static_cast<std::size_t>(Record)].DoneNs = NowNs;
    else if (NowNs <= Out.EndNs) {
      std::size_t Second = (NowNs - Out.StartNs) / 1000000000ULL;
      if (Out.OkPerSecond.size() <= Second)
        Out.OkPerSecond.resize(Second + 1);
      ++Out.OkPerSecond[Second];
    }
    return;
  }
  ++Out.Failed;
  if (Status == 503)
    ++Out.Status503;
  if (Status == 200) {
    ++Out.Wrong;
    Out.note("object " + std::to_string(Object) +
             ": 200 response with a body that is not the origin's");
  }
}

} // namespace

std::vector<double> PhaseStats::latencyMicros() const {
  std::vector<double> V;
  V.reserve(Records.size());
  for (const RequestRecord &R : Records)
    V.push_back(R.DoneNs ? static_cast<double>(R.DoneNs - R.DueNs) / 1e3 : Inf);
  return V;
}

std::vector<double> PhaseStats::ttfbMicros() const {
  std::vector<double> V;
  V.reserve(Records.size());
  for (const RequestRecord &R : Records)
    V.push_back(R.DoneNs && R.FirstByteNs
                    ? static_cast<double>(R.FirstByteNs - R.DueNs) / 1e3
                    : Inf);
  return V;
}

std::vector<double> PhaseStats::lagMicros() const {
  std::vector<double> V;
  V.reserve(Records.size());
  for (const RequestRecord &R : Records)
    V.push_back(static_cast<double>(R.IssueNs - R.DueNs) / 1e3);
  return V;
}

std::vector<double> PhaseStats::quantilePerWindow(double Q,
                                                  uint64_t WindowNs) const {
  std::vector<std::vector<double>> Windows;
  for (const RequestRecord &R : Records) {
    std::size_t W = (R.DueNs - StartNs) / WindowNs;
    if (Windows.size() <= W)
      Windows.resize(W + 1);
    Windows[W].push_back(
        R.DoneNs ? static_cast<double>(R.DoneNs - R.DueNs) / 1e3 : Inf);
  }
  std::vector<double> Out;
  for (std::size_t I = 0; I + 1 < Windows.size(); ++I) // the last is partial
    if (!Windows[I].empty())
      Out.push_back(percentile(std::move(Windows[I]), Q));
  return Out;
}

double PhaseStats::windowedQuantile(double Q) const {
  return percentile(quantilePerWindow(Q, LatencyWindowNs), 0.5);
}

std::vector<double> PhaseStats::okPerWholeSecond() const {
  std::vector<double> Out;
  for (std::size_t I = 0; I + 1 < OkPerSecond.size(); ++I) // last is partial
    Out.push_back(static_cast<double>(OkPerSecond[I]));
  return Out;
}

void PhaseStats::note(const std::string &Problem) {
  if (Problems.size() < MaxProblems)
    Problems.push_back(Problem);
}

void BodyOracle::precompute(uint64_t Object) {
  Known.emplace(Object, makeBody(Object, BodyBytes));
}

bool BodyOracle::matches(uint64_t Object, std::string_view Body) const {
  auto It = Known.find(Object);
  if (It != Known.end())
    return Body == It->second;
  return Body == makeBody(Object, BodyBytes);
}

std::string makeRequest(uint64_t Object, uint64_t TraceLo, bool Close) {
  std::string R = "GET " + objectTarget(Object) +
                  " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (TraceLo) {
    char Tp[80];
    std::snprintf(Tp, sizeof Tp, "traceparent: 00-%016llx%016llx-%016llx-01\r\n",
                  static_cast<unsigned long long>(TraceHi),
                  static_cast<unsigned long long>(TraceLo),
                  static_cast<unsigned long long>(TraceLo));
    R += Tp;
  }
  if (Close)
    R += "Connection: close\r\n";
  return R + "\r\n";
}

Parse parseResponse(const std::string &Buf, std::size_t &Off, int &Status,
                    std::string_view &Body) {
  std::string_view View(Buf);
  View.remove_prefix(Off);
  std::size_t HeaderEnd = View.find("\r\n\r\n");
  if (HeaderEnd == std::string_view::npos)
    return View.size() > 16384 ? Parse::Malformed : Parse::NeedMore;
  std::string_view Head = View.substr(0, HeaderEnd);
  if (Head.size() < 12 || Head.substr(0, 5) != "HTTP/")
    return Parse::Malformed;
  std::size_t Sp = Head.find(' ');
  if (Sp == std::string_view::npos || Sp + 4 > Head.size())
    return Parse::Malformed;
  int Code = 0;
  for (std::size_t I = Sp + 1; I < Sp + 4; ++I) {
    if (Head[I] < '0' || Head[I] > '9')
      return Parse::Malformed;
    Code = Code * 10 + (Head[I] - '0');
  }
  std::size_t Length = std::string_view::npos;
  std::size_t Pos = Head.find("\r\n");
  while (Pos != std::string_view::npos && Pos < Head.size()) {
    std::size_t Next = Head.find("\r\n", Pos + 2);
    std::string_view Line = Head.substr(
        Pos + 2, (Next == std::string_view::npos ? Head.size() : Next) - Pos - 2);
    if (iequalsPrefix(Line, "content-length:")) {
      std::size_t V = 0, I = 15;
      while (I < Line.size() && Line[I] == ' ')
        ++I;
      if (I == Line.size())
        return Parse::Malformed;
      for (; I < Line.size(); ++I) {
        if (Line[I] < '0' || Line[I] > '9' || V > (1u << 26))
          return Parse::Malformed;
        V = V * 10 + static_cast<std::size_t>(Line[I] - '0');
      }
      Length = V;
    }
    Pos = Next;
  }
  if (Length == std::string_view::npos)
    return Parse::Malformed;
  if (View.size() < HeaderEnd + 4 + Length)
    return Parse::NeedMore;
  Status = Code;
  Body = View.substr(HeaderEnd + 4, Length);
  Off += HeaderEnd + 4 + Length;
  return Parse::Complete;
}

//===----------------------------------------------------------------------===//
// KeepAliveClient
//===----------------------------------------------------------------------===//

KeepAliveClient::KeepAliveClient(uint16_t Port, unsigned Connections,
                                 const BodyOracle &Oracle)
    : Port(Port), Oracle(Oracle), Conns(Connections) {}

KeepAliveClient::~KeepAliveClient() { close(); }

bool KeepAliveClient::reconnect(Conn &C) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return false;
  struct sockaddr_in Addr = loopback(Port);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof Addr) <
      0) {
    ::close(Fd);
    return false;
  }
  setNoDelay(Fd);
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  C.Fd = Fd;
  C.OutBuf.clear();
  C.OutOff = 0;
  C.InBuf.clear();
  C.InOff = 0;
  C.SentTraceparent = false;
  return true;
}

bool KeepAliveClient::open(uint64_t TraceBase, std::string &Error) {
  for (std::size_t I = 0; I < Conns.size(); ++I) {
    Conns[I].TraceLo = TraceBase + I;
    if (!reconnect(Conns[I])) {
      Error = "cannot connect to 127.0.0.1:" + std::to_string(Port);
      return false;
    }
  }
  return true;
}

void KeepAliveClient::close() {
  for (Conn &C : Conns)
    if (C.Fd >= 0) {
      abortiveClose(C.Fd);
      C.Fd = -1;
    }
}

void KeepAliveClient::enqueue(Conn &C, const InFlight &F) {
  C.OutBuf += makeRequest(F.Object, C.SentTraceparent ? 0 : C.TraceLo,
                          /*Close=*/false);
  C.SentTraceparent = true;
  C.Queue.push_back(F);
}

bool KeepAliveClient::flush(Conn &C) {
  while (C.OutOff < C.OutBuf.size()) {
    ssize_t N = ::send(C.Fd, C.OutBuf.data() + C.OutOff,
                       C.OutBuf.size() - C.OutOff, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutOff += static_cast<std::size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    return false;
  }
  C.OutBuf.clear();
  C.OutOff = 0;
  return true;
}

bool KeepAliveClient::receive(Conn &C, PhaseStats &Out) {
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Chunk, sizeof Chunk, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    if (N <= 0)
      return false; // reset or closed by the server
    uint64_t Now = nowNs();
    C.InBuf.append(Chunk, static_cast<std::size_t>(N));
    while (!C.Queue.empty() && C.InOff < C.InBuf.size()) {
      InFlight &F = C.Queue.front();
      if (F.Record >= 0) {
        RequestRecord &R = Out.Records[static_cast<std::size_t>(F.Record)];
        if (!R.FirstByteNs)
          R.FirstByteNs = Now;
      }
      int Status = 0;
      std::string_view Body;
      Parse P = parseResponse(C.InBuf, C.InOff, Status, Body);
      if (P == Parse::NeedMore)
        break;
      if (P == Parse::Malformed) {
        Out.note("malformed HTTP response on a keep-alive connection");
        return false;
      }
      complete(Out, F.Record, F.Object, Status, Oracle.matches(F.Object, Body),
               Now);
      C.Queue.pop_front();
    }
    if (C.Queue.empty() && C.InOff < C.InBuf.size()) {
      Out.note("response bytes with no request outstanding");
      return false;
    }
    if (C.InOff == C.InBuf.size()) {
      C.InBuf.clear();
      C.InOff = 0;
    } else if (C.InOff > (1u << 16)) {
      C.InBuf.erase(0, C.InOff);
      C.InOff = 0;
    }
  }
}

void KeepAliveClient::failAll(Conn &C, PhaseStats &Out) {
  Out.Failed += C.Queue.size();
  C.Queue.clear();
  if (C.Fd >= 0) {
    abortiveClose(C.Fd);
    C.Fd = -1;
  }
}

void KeepAliveClient::flushAll(PhaseStats &Out) {
  for (Conn &C : Conns)
    if (C.Fd >= 0 && C.OutOff < C.OutBuf.size() && !flush(C))
      failAll(C, Out);
}

std::size_t KeepAliveClient::outstanding() const {
  std::size_t N = 0;
  for (const Conn &C : Conns)
    N += C.Queue.size();
  return N;
}

void KeepAliveClient::pollOnce(uint64_t TimeoutNs, PhaseStats &Out) {
  struct pollfd Fds[8];
  Conn *Owners[8];
  nfds_t N = 0;
  for (Conn &C : Conns) {
    if (C.Fd < 0 || N == 8)
      continue;
    Fds[N].fd = C.Fd;
    Fds[N].events =
        static_cast<short>(POLLIN | (C.OutOff < C.OutBuf.size() ? POLLOUT : 0));
    Fds[N].revents = 0;
    Owners[N++] = &C;
  }
  struct timespec Ts = toTimespec(TimeoutNs);
  int Ready = ::ppoll(Fds, N, &Ts, nullptr);
  if (Ready <= 0)
    return;
  for (nfds_t I = 0; I < N; ++I) {
    Conn &C = *Owners[I];
    if (Fds[I].revents & POLLOUT && !flush(C)) {
      failAll(C, Out);
      continue;
    }
    if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR) && !receive(C, Out))
      failAll(C, Out);
  }
}

void KeepAliveClient::openLoop(const std::vector<Planned> &Plan,
                               uint64_t DrainNs, PhaseStats &Out) {
  Out.Records.assign(Plan.size(), RequestRecord{});
  double Cpu0 = threadCpuSeconds();
  const uint64_t Base = nowNs();
  Out.StartNs = Base;
  uint64_t DrainDeadline = 0;
  std::size_t Next = 0;
  for (;;) {
    uint64_t Now = nowNs();
    while (Next < Plan.size() && Base + Plan[Next].DueNs <= Now) {
      RequestRecord &R = Out.Records[Next];
      R.DueNs = Base + Plan[Next].DueNs;
      R.IssueNs = Now;
      Conn &C = Conns[Next % Conns.size()];
      ++Out.Issued;
      if (C.Fd < 0 && !reconnect(C)) {
        ++Out.Failed;
      } else {
        R.TraceLo = C.TraceLo;
        enqueue(C, {Plan[Next].Object, static_cast<int64_t>(Next)});
      }
      ++Next;
    }
    flushAll(Out);
    uint64_t Timeout;
    if (Next < Plan.size()) {
      Timeout = Base + Plan[Next].DueNs > Now ? Base + Plan[Next].DueNs - Now : 0;
    } else {
      if (outstanding() == 0)
        break;
      if (!DrainDeadline)
        DrainDeadline = Now + DrainNs;
      if (Now >= DrainDeadline) {
        for (Conn &C : Conns)
          failAll(C, Out);
        break;
      }
      Timeout = DrainDeadline - Now;
    }
    pollOnce(Timeout, Out);
  }
  Out.EndNs = nowNs();
  Out.GenCpuSeconds = threadCpuSeconds() - Cpu0;
}

void KeepAliveClient::closedLoop(uint64_t WindowNs, uint64_t DrainNs,
                                 const std::function<uint64_t()> &Next,
                                 PhaseStats &Out) {
  double Cpu0 = threadCpuSeconds();
  Out.StartNs = nowNs();
  Out.EndNs = Out.StartNs + WindowNs;
  for (;;) {
    uint64_t Now = nowNs();
    if (Now < Out.EndNs) {
      for (Conn &C : Conns) {
        if (!C.Queue.empty())
          continue;
        ++Out.Issued;
        if (C.Fd < 0 && !reconnect(C)) {
          ++Out.Failed;
          continue;
        }
        enqueue(C, {Next(), -1});
      }
      flushAll(Out);
      pollOnce(Out.EndNs - Now, Out);
      continue;
    }
    if (outstanding() == 0)
      break;
    if (Now >= Out.EndNs + DrainNs) {
      for (Conn &C : Conns)
        failAll(C, Out);
      break;
    }
    flushAll(Out);
    pollOnce(Out.EndNs + DrainNs - Now, Out);
  }
  Out.GenCpuSeconds = threadCpuSeconds() - Cpu0;
}

//===----------------------------------------------------------------------===//
// FreshClient
//===----------------------------------------------------------------------===//

FreshClient::FreshClient(uint16_t Port, unsigned SlotCount,
                         const BodyOracle &Oracle)
    : Port(Port), Oracle(Oracle), Slots(SlotCount) {}

FreshClient::~FreshClient() {
  for (Slot &S : Slots)
    if (S.Fd >= 0)
      abortiveClose(S.Fd);
}

void FreshClient::start(Slot &S, uint64_t Object, int64_t Record,
                        uint64_t TraceLo, PhaseStats &Out) {
  S = Slot{};
  S.Object = Object;
  S.Record = Record;
  S.StartNs = nowNs();
  S.OutBuf = makeRequest(Object, TraceLo, /*Close=*/true);
  ++Busy;
  S.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (S.Fd < 0) {
    finish(S, Out);
    return;
  }
  setNoDelay(S.Fd);
  struct sockaddr_in Addr = loopback(Port);
  if (::connect(S.Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof Addr) == 0) {
    S.St = State::Writing;
  } else if (errno == EINPROGRESS) {
    S.St = State::Connecting;
  } else {
    finish(S, Out);
    return;
  }
  if (S.St == State::Writing)
    advance(S, POLLOUT, Out);
}

void FreshClient::finish(Slot &S, PhaseStats &Out) {
  if (S.Fd >= 0) {
    abortiveClose(S.Fd);
    S.Fd = -1;
  }
  if (S.Complete) {
    if (S.Record >= 0)
      Out.Records[static_cast<std::size_t>(S.Record)].FirstByteNs =
          S.FirstByteNs;
    complete(Out, S.Record, S.Object, S.Status, S.BodyOk, S.DoneNs);
  } else {
    ++Out.Failed; // refused, reset or timed out before a whole response
  }
  S.St = State::Idle;
  --Busy;
}

void FreshClient::advance(Slot &S, short Revents, PhaseStats &Out) {
  if (S.St == State::Connecting) {
    if (!(Revents & (POLLOUT | POLLERR | POLLHUP)))
      return;
    int Err = 0;
    socklen_t Len = sizeof Err;
    ::getsockopt(S.Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
    if (Err != 0) {
      finish(S, Out);
      return;
    }
    S.St = State::Writing;
  }
  if (S.St == State::Writing) {
    while (S.OutOff < S.OutBuf.size()) {
      ssize_t N = ::send(S.Fd, S.OutBuf.data() + S.OutOff,
                         S.OutBuf.size() - S.OutOff, MSG_NOSIGNAL);
      if (N > 0) {
        S.OutOff += static_cast<std::size_t>(N);
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      finish(S, Out);
      return;
    }
    S.St = State::Reading;
    return; // wait for POLLIN
  }
  if (S.St != State::Reading)
    return;
  char Chunk[16384];
  for (;;) {
    ssize_t N = ::recv(S.Fd, Chunk, sizeof Chunk, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    uint64_t Now = nowNs();
    if (N <= 0) {
      // EOF (the server closes after "Connection: close") or a reset.
      finish(S, Out);
      return;
    }
    if (!S.FirstByteNs)
      S.FirstByteNs = Now;
    S.InBuf.append(Chunk, static_cast<std::size_t>(N));
    if (!S.Complete) {
      std::size_t Off = 0;
      std::string_view Body;
      Parse P = parseResponse(S.InBuf, Off, S.Status, Body);
      if (P == Parse::Malformed) {
        Out.note("malformed HTTP response on a fresh connection");
        finish(S, Out);
        return;
      }
      if (P == Parse::Complete) {
        S.Complete = true;
        S.DoneNs = Now;
        S.BodyOk = Oracle.matches(S.Object, Body);
      }
    }
  }
}

void FreshClient::expire(uint64_t NowNs, PhaseStats &Out) {
  for (Slot &S : Slots)
    if (S.St != State::Idle && NowNs > S.StartNs + RequestTimeoutNs)
      finish(S, Out);
}

void FreshClient::pollOnce(uint64_t TimeoutNs, PhaseStats &Out) {
  struct pollfd Fds[8];
  Slot *Owners[8];
  nfds_t N = 0;
  for (Slot &S : Slots) {
    if (S.St == State::Idle || N == 8)
      continue;
    Fds[N].fd = S.Fd;
    Fds[N].events = static_cast<short>(
        S.St == State::Reading ? POLLIN : POLLOUT);
    Fds[N].revents = 0;
    Owners[N++] = &S;
  }
  struct timespec Ts = toTimespec(TimeoutNs);
  if (::ppoll(Fds, N, &Ts, nullptr) <= 0)
    return;
  for (nfds_t I = 0; I < N; ++I)
    if (Fds[I].revents)
      advance(*Owners[I], Fds[I].revents, Out);
}

void FreshClient::openLoop(const std::vector<Planned> &Plan,
                           uint64_t TraceBase, uint64_t DrainNs,
                           PhaseStats &Out) {
  Out.Records.assign(Plan.size(), RequestRecord{});
  double Cpu0 = threadCpuSeconds();
  const uint64_t Base = nowNs();
  Out.StartNs = Base;
  std::deque<std::size_t> Backlog;
  uint64_t DrainDeadline = 0;
  std::size_t Next = 0;
  for (;;) {
    uint64_t Now = nowNs();
    while (Next < Plan.size() && Base + Plan[Next].DueNs <= Now) {
      Out.Records[Next].DueNs = Base + Plan[Next].DueNs;
      Out.Records[Next].IssueNs = Now;
      Out.Records[Next].TraceLo = TraceBase + Next;
      Backlog.push_back(Next++);
    }
    for (Slot &S : Slots) {
      if (Backlog.empty())
        break;
      if (S.St != State::Idle)
        continue;
      std::size_t I = Backlog.front();
      Backlog.pop_front();
      ++Out.Issued;
      start(S, Plan[I].Object, static_cast<int64_t>(I), Out.Records[I].TraceLo,
            Out);
    }
    expire(Now, Out);
    uint64_t Timeout;
    if (Next < Plan.size()) {
      Timeout = Base + Plan[Next].DueNs > Now ? Base + Plan[Next].DueNs - Now : 0;
    } else {
      if (Backlog.empty() && Busy == 0)
        break;
      if (!DrainDeadline)
        DrainDeadline = Now + DrainNs;
      if (Now >= DrainDeadline) {
        for (Slot &S : Slots)
          if (S.St != State::Idle)
            finish(S, Out);
        Out.Failed += Backlog.size();
        Out.Issued += Backlog.size();
        break;
      }
      Timeout = DrainDeadline - Now;
    }
    if (!Backlog.empty() && Busy < Slots.size())
      Timeout = 0; // a slot freed while starting: fill it right away
    pollOnce(std::min<uint64_t>(Timeout, 100000000ULL), Out);
  }
  Out.EndNs = nowNs();
  Out.GenCpuSeconds = threadCpuSeconds() - Cpu0;
}

void FreshClient::closedLoop(uint64_t WindowNs, uint64_t DrainNs,
                             uint64_t FirstObject, PhaseStats &Out) {
  double Cpu0 = threadCpuSeconds();
  Out.StartNs = nowNs();
  Out.EndNs = Out.StartNs + WindowNs;
  uint64_t Object = FirstObject;
  for (;;) {
    uint64_t Now = nowNs();
    if (Now < Out.EndNs) {
      for (Slot &S : Slots)
        if (S.St == State::Idle) {
          ++Out.Issued;
          start(S, Object++, -1, 0, Out);
        }
    } else if (Busy == 0) {
      break;
    } else if (Now >= Out.EndNs + DrainNs) {
      for (Slot &S : Slots)
        if (S.St != State::Idle)
          finish(S, Out);
      break;
    }
    expire(Now, Out);
    uint64_t Limit = Now < Out.EndNs ? Out.EndNs - Now : Out.EndNs + DrainNs - Now;
    pollOnce(std::min<uint64_t>(Limit, 100000000ULL), Out);
  }
  Out.GenCpuSeconds = threadCpuSeconds() - Cpu0;
}

} // namespace perfbench
