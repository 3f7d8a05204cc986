#include "wire.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <string_view>

#include "trace.h"

namespace perfbench {
namespace {

using optshare::Result;
using optshare::Status;
namespace net = optshare::net;

constexpr size_t kMaxErrors = 5;

/// Members of a failed unit that count as failed: every ok:false member
/// of a batch frame, or the whole unit when the frame itself failed.
uint64_t FailedMembers(const Unit& unit, std::string_view line) {
  if (unit.members == 1) return 1;
  uint64_t n = 0;
  for (size_t at = line.find("\"ok\":false"); at != std::string_view::npos;
       at = line.find("\"ok\":false", at + 1)) {
    ++n;
  }
  return n == 0 || n > unit.members ? unit.members : n;
}

/// Per-phase driver state shared by the closed and open loops. A unit
/// becomes due (MakeDue) and is sent at once unless its read-your-writes
/// gate is closed: an ordered read waits until its tenancy has nothing
/// else in flight, and later units of that tenancy wait behind it. Units
/// of other tenancies on the connection are not held up, so the gate
/// never stalls the open-loop schedule of unrelated requests.
class Engine {
 public:
  Engine(std::vector<net::Socket>& sockets,
         const std::vector<std::vector<Unit>>& units, PhaseResult* result)
      : sockets_(sockets), units_(units), result_(result) {
    const size_t n = units.size();
    conns_.resize(n);
    result->timing.resize(n);
    result->kept.resize(n);
    uint32_t max_tenancy = 0;
    for (size_t c = 0; c < n; ++c) {
      result->timing[c].resize(units[c].size());
      result->kept[c].resize(units[c].size());
      total_ += units[c].size();
      result->units += units[c].size();
      for (const Unit& unit : units[c]) {
        result->requests += unit.members;
        max_tenancy = std::max(max_tenancy, unit.tenancy);
      }
    }
    inflight_.assign(max_tenancy + 1, 0);
  }

  size_t size(size_t c) const { return units_[c].size(); }
  /// Units made due but not yet answered on connection `c`.
  size_t outstanding(size_t c) const {
    return conns_[c].next_due - conns_[c].answered;
  }
  size_t due(size_t c) const { return conns_[c].next_due; }
  bool Done() const { return received_ == total_ || broken_; }

  /// Makes the next unit of connection `c` due at `due_ns` and sends what
  /// the gate allows.
  void MakeDue(size_t c, int64_t due_ns) {
    result_->timing[c][conns_[c].next_due++].due_ns = due_ns;
    Pump(c);
  }

  /// Waits up to `timeout_ns` for socket events and handles them. Calls
  /// `on_response(c)` once per response read.
  template <typename OnResponse>
  void Poll(int64_t timeout_ns, OnResponse&& on_response) {
    pollfd fds[16];
    const size_t n = std::min<size_t>(conns_.size(), 16);
    for (size_t c = 0; c < n; ++c) {
      fds[c].fd = sockets_[c].fd();
      fds[c].events = POLLIN;
      if (conns_[c].out_off < conns_[c].out.size()) fds[c].events |= POLLOUT;
      fds[c].revents = 0;
    }
    timespec ts{};
    timeout_ns = std::max<int64_t>(0, timeout_ns);
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
    const int ready = ppoll(fds, n, &ts, nullptr);
    if (ready <= 0) return;
    for (size_t c = 0; c < n; ++c) {
      if (fds[c].revents & POLLOUT) Flush(c);
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
        Read(c, on_response);
      }
    }
  }

  /// Marks every unanswered unit failed.
  void Finish() {
    for (size_t c = 0; c < conns_.size(); ++c) {
      const size_t missing = units_[c].size() - conns_[c].answered;
      if (missing == 0) continue;
      for (size_t idx = 0; idx < units_[c].size(); ++idx) {
        if (result_->timing[c][idx].recv_ns >= 0) continue;
        ++result_->failed_units;
        result_->failed_requests += units_[c][idx].members;
      }
      Note("connection " + std::to_string(c) + ": " + std::to_string(missing) +
           " lines unanswered at phase end");
    }
  }

 private:
  struct Conn {
    std::string in;
    std::string out;
    size_t out_off = 0;
    size_t next_due = 0;
    size_t first_unsent = 0;  ///< Every unit before it has been sent.
    size_t answered = 0;
    std::deque<size_t> in_flight;  ///< Unit indices in send order.
  };

  void Note(std::string error) {
    if (result_->errors.size() < kMaxErrors) {
      result_->errors.push_back(std::move(error));
    }
  }

  void Pump(size_t c) {
    Conn& conn = conns_[c];
    bool wrote = false;
    held_.clear();
    for (size_t idx = conn.first_unsent; idx < conn.next_due; ++idx) {
      UnitTiming& t = result_->timing[c][idx];
      if (t.sent_ns != 0) continue;
      const Unit& unit = units_[c][idx];
      const bool behind = std::find(held_.begin(), held_.end(),
                                    unit.tenancy) != held_.end();
      if (behind || (unit.ordered_read && inflight_[unit.tenancy] > 0)) {
        if (!behind) held_.push_back(unit.tenancy);
        continue;
      }
      ++inflight_[unit.tenancy];
      conn.out.append(unit.line);
      conn.in_flight.push_back(idx);
      t.sent_ns = NowNs();
      wrote = true;
    }
    while (conn.first_unsent < conn.next_due &&
           result_->timing[c][conn.first_unsent].sent_ns != 0) {
      ++conn.first_unsent;
    }
    if (wrote) Flush(c);
  }

  void Flush(size_t c) {
    Conn& conn = conns_[c];
    while (conn.out_off < conn.out.size()) {
      Result<net::IoChunk> chunk =
          net::WriteChunk(sockets_[c].fd(), conn.out.data() + conn.out_off,
                          conn.out.size() - conn.out_off);
      if (!chunk.ok() || chunk->eof) {
        Note("connection " + std::to_string(c) + ": write failed");
        broken_ = true;
        return;
      }
      if (chunk->would_block) return;
      conn.out_off += chunk->bytes;
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  template <typename OnResponse>
  void Read(size_t c, OnResponse&& on_response) {
    Conn& conn = conns_[c];
    char buf[1 << 16];
    for (;;) {
      Result<net::IoChunk> chunk =
          net::ReadChunk(sockets_[c].fd(), buf, sizeof(buf));
      if (!chunk.ok() || chunk->eof) {
        Note("connection " + std::to_string(c) + ": closed by the server");
        broken_ = true;
        return;
      }
      if (chunk->would_block || chunk->bytes == 0) break;
      const int64_t now = NowNs();
      conn.in.append(buf, chunk->bytes);
      size_t start = 0;
      for (size_t nl = conn.in.find('\n'); nl != std::string::npos;
           nl = conn.in.find('\n', start)) {
        OnLine(c, std::string_view(conn.in).substr(start, nl - start), now);
        start = nl + 1;
        on_response(c);
      }
      conn.in.erase(0, start);
      Pump(c);
    }
  }

  void OnLine(size_t c, std::string_view line, int64_t now) {
    Conn& conn = conns_[c];
    if (conn.in_flight.empty()) {
      Note("connection " + std::to_string(c) + ": response to no request: " +
           std::string(line.substr(0, 160)));
      ++result_->failed_units;
      return;
    }
    const size_t idx = conn.in_flight.front();
    conn.in_flight.pop_front();
    ++conn.answered;
    ++received_;
    const Unit& unit = units_[c][idx];
    --inflight_[unit.tenancy];
    UnitTiming& t = result_->timing[c][idx];
    t.recv_ns = now;
    t.ok = ResponseOk(unit, line);
    if (!t.ok) {
      ++result_->failed_units;
      result_->failed_requests += FailedMembers(unit, line);
      Note("id " + unit.id + ": " + std::string(line.substr(0, 240)));
    }
    if (unit.checked) result_->kept[c][idx] = std::string(line);
  }

  std::vector<net::Socket>& sockets_;
  const std::vector<std::vector<Unit>>& units_;
  PhaseResult* result_;
  std::vector<Conn> conns_;
  std::vector<int> inflight_;  ///< Sent, unanswered units per tenancy.
  std::vector<uint32_t> held_;  ///< Pump scratch: tenancies held back.
  size_t total_ = 0;
  size_t received_ = 0;
  bool broken_ = false;
};

}  // namespace

bool ResponseOk(const Unit& unit, std::string_view line) {
  static constexpr std::string_view kHead = "{\"id\":\"";
  static constexpr std::string_view kOk = "\",\"ok\":true";
  if (line.substr(0, kHead.size()) != kHead) return false;
  if (line.substr(kHead.size(), unit.id.size()) != unit.id) return false;
  if (line.substr(kHead.size() + unit.id.size(), kOk.size()) != kOk) {
    return false;
  }
  return unit.members == 1 || line.find("\"ok\":false") == std::string::npos;
}

LoadGenerator::LoadGenerator(std::vector<net::Socket> sockets)
    : sockets_(std::move(sockets)) {}

Result<LoadGenerator> LoadGenerator::Connect(const std::string& host,
                                             uint16_t port, int connections) {
  // Sleeps in ppoll end within ~1 us of the due time instead of the
  // default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  std::vector<net::Socket> sockets;
  for (int c = 0; c < connections; ++c) {
    Result<net::Socket> socket = net::ConnectTcp(host, port);
    if (!socket.ok()) return socket.status();
    const int one = 1;
    if (setsockopt(socket->fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one)) != 0) {
      return Status::Internal(std::string("TCP_NODELAY: ") +
                              std::strerror(errno));
    }
    OPTSHARE_RETURN_NOT_OK(net::SetNonBlocking(socket->fd()));
    sockets.push_back(std::move(*socket));
  }
  return LoadGenerator(std::move(sockets));
}

PhaseResult LoadGenerator::RunClosed(
    const std::vector<std::vector<Unit>>& units, int window,
    int64_t timeout_ns) {
  PhaseResult result;
  Engine engine(sockets_, units, &result);
  result.start_ns = NowNs();
  const int64_t deadline = result.start_ns + timeout_ns;
  const size_t w = static_cast<size_t>(window);
  const auto refill = [&engine, w](size_t c) {
    while (engine.outstanding(c) < w && engine.due(c) < engine.size(c)) {
      engine.MakeDue(c, NowNs());
    }
  };
  for (size_t c = 0; c < units.size(); ++c) refill(c);
  while (!engine.Done()) {
    const int64_t now = NowNs();
    if (now >= deadline) break;
    engine.Poll(deadline - now, refill);
  }
  result.end_ns = NowNs();
  engine.Finish();
  return result;
}

PhaseResult LoadGenerator::RunOpen(const std::vector<std::vector<Unit>>& units,
                                   double units_per_sec, int64_t timeout_ns,
                                   const std::function<void()>& tick,
                                   int64_t tick_ns) {
  PhaseResult result;
  Engine engine(sockets_, units, &result);
  // The global schedule: slot g goes to the next connection in turn.
  std::vector<size_t> order;
  {
    std::vector<size_t> left;
    size_t total = 0;
    for (const auto& list : units) {
      left.push_back(list.size());
      total += list.size();
    }
    while (order.size() < total) {
      for (size_t c = 0; c < units.size(); ++c) {
        if (left[c] > 0) {
          --left[c];
          order.push_back(c);
        }
      }
    }
  }
  const double interval_ns = 1e9 / units_per_sec;
  result.start_ns = NowNs() + 1000000;
  const int64_t deadline = result.start_ns +
                           static_cast<int64_t>(interval_ns * order.size()) +
                           timeout_ns;
  int64_t next_tick = result.start_ns;
  size_t g = 0;
  const auto due = [&](size_t slot) {
    return result.start_ns + static_cast<int64_t>(interval_ns * slot);
  };
  for (;;) {
    int64_t now = NowNs();
    while (g < order.size() && due(g) <= now) {
      engine.MakeDue(order[g], due(g));
      ++g;
    }
    if (tick && now >= next_tick) {
      tick();
      next_tick += tick_ns;
      now = NowNs();
    }
    // Done: every line answered, or a connection broke.
    if (engine.Done() || now >= deadline) break;
    int64_t wake = g < order.size() ? due(g) : deadline;
    if (tick) wake = std::min(wake, next_tick);
    engine.Poll(wake - now, [](size_t) {});
  }
  result.end_ns = NowNs();
  engine.Finish();
  return result;
}

}  // namespace perfbench
