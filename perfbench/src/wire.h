// The load generator: one thread driving N loopback TCP connections with
// pre-built lines. Three loop shapes:
//
//   closed loop — each connection keeps `window` lines in flight (serial:
//                 one connection, window 1);
//   open loop   — lines are due on a fixed global schedule (rate R,
//                 round-robin over connections); the thread sleeps in
//                 ppoll until the next due time and never spins, and each
//                 line is timed from its due time.
//
// Every response is checked as it arrives: it must echo the head-of-line
// id of its connection and carry ok:true (for a batch frame, no member
// may carry ok:false). Responses of lines whose members carry expected
// documents are kept for the deep checks after the phase.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/net.h"
#include "common/status.h"
#include "streams.h"

namespace perfbench {

struct UnitTiming {
  int64_t due_ns = 0;   ///< Open loop: scheduled send; else the send.
  int64_t sent_ns = 0;
  int64_t recv_ns = -1; ///< -1 = never answered.
  bool ok = false;
};

struct PhaseResult {
  /// Parallel to the phase's per-connection unit lists.
  std::vector<std::vector<UnitTiming>> timing;
  /// Kept responses of checked units, parallel to the unit lists (empty
  /// strings elsewhere).
  std::vector<std::vector<std::string>> kept;
  uint64_t units = 0;
  uint64_t requests = 0;        ///< Member requests attempted.
  uint64_t failed_requests = 0;
  uint64_t failed_units = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;           ///< Last response (or timeout).
  std::vector<std::string> errors;  ///< First few failure descriptions.
};

/// True when `line` is `{"id":"<unit id>","ok":true...` and, for a batch
/// frame, no member carries ok:false.
bool ResponseOk(const Unit& unit, std::string_view line);

class LoadGenerator {
 public:
  /// Connects `connections` sockets to host:port with TCP_NODELAY set.
  static optshare::Result<LoadGenerator> Connect(const std::string& host,
                                                 uint16_t port,
                                                 int connections);

  LoadGenerator(LoadGenerator&&) = default;
  LoadGenerator& operator=(LoadGenerator&&) = default;

  int connections() const { return static_cast<int>(sockets_.size()); }

  /// Closed loop with `window` lines in flight per connection. Units must
  /// have one list per connection (extra connections idle).
  PhaseResult RunClosed(const std::vector<std::vector<Unit>>& units,
                        int window, int64_t timeout_ns);

  /// Open loop at `units_per_sec` lines per second over all connections.
  /// `tick`, when set, runs every `tick_ns` between sends.
  PhaseResult RunOpen(const std::vector<std::vector<Unit>>& units,
                      double units_per_sec, int64_t timeout_ns,
                      const std::function<void()>& tick = nullptr,
                      int64_t tick_ns = 0);

 private:
  explicit LoadGenerator(std::vector<optshare::net::Socket> sockets);

  std::vector<optshare::net::Socket> sockets_;
};

}  // namespace perfbench
