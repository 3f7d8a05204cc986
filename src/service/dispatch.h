// The one line front end every transport and every handler shares.
//
// A transport — the TCP NetServer (service/net_server.h) or the stdin
// serve loop (ServeLines below) — frames raw request lines and hands them
// to a LineHandler: a MarketplaceServer on a node, a ClusterRouter
// (cluster/router.h) on the router. Responses come back through an
// OrderedLineWriter in request order. Every handler turns a line into a
// request with ParseLine and answers its failures with ErrorLine, so the
// request-line cap, the parse-error version and the oversize wording are
// one implementation: a recorded stream replayed over either transport, to
// a node or through a router, answers byte-identical lines
// (tests/service_net_test.cc and tests/cluster_router_net_test.cc pin it).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/json.h"
#include "service/protocol.h"

namespace optshare::service {

/// Receives one serialized response line (no trailing newline). The view
/// is only valid for the duration of the call.
using LineCallback = std::function<void(std::string_view)>;

/// What a transport needs from the server behind it.
class LineHandler {
 public:
  LineHandler() = default;
  virtual ~LineHandler() = default;
  // Transports hold a handler by address.
  LineHandler(const LineHandler&) = delete;
  LineHandler& operator=(const LineHandler&) = delete;

  /// Parses and executes one request line from connection `connection_id`
  /// (transports number their connections; the stdin loop is connection
  /// 0). `done` fires exactly once with the response line: inline, on the
  /// caller's thread, for lines that never reach a worker (parse errors,
  /// over-cap lines); on a worker otherwise. Its view points into a
  /// per-thread scratch buffer that is reused for the next response, so
  /// `done` must write or copy the bytes before returning. `done` may
  /// outlive the transport; capture shared state by shared_ptr.
  /// Returns true when the line was an accepted `shutdown` request — the
  /// transport should stop reading once it has queued this response.
  virtual bool SubmitLine(uint64_t connection_id, const std::string& line,
                          LineCallback done) = 0;

  /// The line cap transports frame at: large enough for a legal v3 batch
  /// frame (see BatchLineCap). 0 = uncapped.
  virtual size_t max_batch_request_bytes() const = 0;

  /// The response line for a request the transport's framing already
  /// discarded as over-cap. Identical bytes to what SubmitLine answers for
  /// an over-cap line it measures itself.
  virtual std::string OversizedLineResponse() const = 0;

  /// Set once a wire `shutdown` was accepted; transports then drain.
  virtual bool shutdown_requested() const = 0;

  /// Installs (or, with nullptr, removes) the provider whose document the
  /// wire `server_info` op serves as "transport". Uninstalling blocks until
  /// any in-flight call returns.
  virtual void SetTransportInfoProvider(
      std::function<JsonValue()> provider) = 0;
};

/// The framing cap for a handler with plain cap `max_request_bytes` and
/// batch cap `max_batch_request_bytes`: 0 (uncapped) when the plain cap is
/// 0, else the larger of the two.
size_t BatchLineCap(size_t max_request_bytes, size_t max_batch_request_bytes);

/// Turns one wire line into a request. The line is parsed under
/// `framing_cap` so a legal v3 batch frame survives; any other line longer
/// than `max_request_bytes` fails with the plain-cap ResourceExhausted that
/// OversizedLineResponse formats.
Result<protocol::Request> ParseLine(const std::string& line,
                                    size_t max_request_bytes,
                                    size_t framing_cap);

/// The response line for a line that failed before it had a request. The
/// client's version is unknowable from such a line, so the answer carries
/// the oldest version every client generation can read.
std::string ErrorLine(Status status);

/// ErrorLine for a line over the `max_request_bytes` cap.
std::string OversizedLineResponse(size_t max_request_bytes);

/// Serializes `response` into this thread's reused scratch buffer and
/// hands the view to `done`, so steady-state serving allocates nothing per
/// response.
void DeliverResponse(const protocol::Response& response,
                     const LineCallback& done);

/// The stdin serve loop: reads `in_fd` until EOF or an accepted shutdown,
/// frames it with net::LineBuffer at the handler's cap (exactly as the TCP
/// transport frames a connection), submits each line as connection 0, and
/// releases the responses to `sink` in request order. Returns once every
/// response has reached `sink`.
void ServeLines(LineHandler* handler, int in_fd, LineCallback sink);

/// Releases response lines to `sink` in Reserve() order, regardless of the
/// order completions arrive in across worker shards. Thread-safe; `sink`
/// runs under the internal mutex, so it is serialized and must not call
/// back into the writer.
class OrderedLineWriter {
 public:
  explicit OrderedLineWriter(LineCallback sink) : sink_(std::move(sink)) {}

  /// Claims the next slot in output order. Call in request-arrival order.
  uint64_t Reserve();

  /// Delivers slot `slot`'s response; flushes the contiguous ready prefix.
  /// An in-order arrival (the common case: per-tenancy FIFO sharding keeps
  /// one connection's responses mostly ordered already) passes `line`
  /// straight through to `sink` without copying; only out-of-order
  /// completions are buffered. The view need only stay valid for the
  /// duration of the call, and `sink`'s views likewise die at return.
  void Complete(uint64_t slot, std::string_view line);

  /// True when every reserved slot has been completed and flushed.
  bool Idle() const;

 private:
  mutable std::mutex mu_;
  LineCallback sink_;
  uint64_t next_reserve_ = 0;  ///< Guarded by mu_.
  uint64_t next_flush_ = 0;    ///< Guarded by mu_.
  std::map<uint64_t, std::string> ready_;  ///< Completed, awaiting order.
};

}  // namespace optshare::service
