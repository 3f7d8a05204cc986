// ClusterRouter: the cluster's front door. Speaks the ordinary wire
// protocol (v3 included) to clients — a client cannot tell a router from a
// single node — and forwards each request to the node that owns its
// tenancy under the shared PlacementMap:
//
//   tenancy ops      → OwnerOf(tenancy), with failover (below)
//   report-style     → retried transparently on a dead node
//   batch            → split into one sub-batch per owning node, forwarded,
//                      reassembled into one ordered response batch
//   list_mechanisms  → any live node
//   restore          → broadcast (summed) or owner-targeted when it names
//                      a tenancy
//   server_info      → answered by the router itself (role, placement,
//                      routing counters)
//   cluster_update   → installed if newer, then pushed to every live node
//   shutdown         → broadcast to the nodes, then the router drains
//
// Failover: when a forward fails at the transport level, the router marks
// the node dead (version bump), pushes the new placement to the surviving
// nodes, and re-resolves the owner — which, by the PlacementMap invariant,
// is the node already holding the tenancy's warm replica. The router
// issues a targeted `restore` there (single-node recovery from the
// replica's snapshot + journal) and then transparently retries reads.
// Mutations are NOT silently retried — the dead node may or may not have
// executed the request — so the client gets a typed Unavailable error
// carrying the post-failover placement version, and resends only requests
// that are safe to re-apply (idempotent at request boundaries); the resend
// routes to the recovered owner. Unavailable is the retryable signal:
// every other error code means "resending won't help".
//
// When even that live retry is impossible for a `report` — no live node
// owns the tenancy, or the restore/retry itself fails — the router
// degrades instead of failing: it sweeps the nodes (marked-dead ones too;
// "dead" is one connection's suspicion, and a cheap read is the right
// probe for a suspect) for persisted tenancy state, and serves the last
// replicated period boundary as a report marked `"stale": true`. Only
// when a reachable node positively answers "no persisted state" does the
// client get NotFound — a dead node with a replicated snapshot and a
// genuinely unknown tenancy are different failures and answer differently.
//
// The router also re-homes lazily: it remembers which node last served
// each tenancy, and when the placement's answer changes (failover seen by
// another connection, rebalance), it issues the targeted restore before
// forwarding.
//
// Rebalance(tenancy, target) is the elasticity primitive: evict the
// tenancy from its owner (period boundaries only), export its snapshot +
// journal tail, replay them into the target's store over the repl_* ops,
// restore it there, then pin it with a placement override and push the new
// map — the hand-off IS the replication path, exercised on demand.
//
// Serving: the router is a service::LineHandler, so clients reach it
// through the same NetServer a node uses — the connection cap, the
// write-buffer cap, ordered writeback, drain and the server_info
// "transport" counters are the node's. SubmitLine parses on the caller's
// thread with the shared ParseLine (so caps, parse errors and their
// versions answer exactly as a node's do) and posts the routing to the
// router's own pool of kWorkers threads, keyed by connection id: one
// connection's requests route strictly in order, and different
// connections forward in parallel. Each worker owns one Channel (private
// NetClient per node), so channels are confined to one thread and need no
// locks. A connection has no thread of its own: a slow forward delays the
// other connections whose ids share its worker. The placement map and
// owner cache sit under one brief mutex that is never held across a
// network call.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "common/thread_pool.h"
#include "service/dispatch.h"
#include "service/net_client.h"
#include "service/protocol.h"

namespace optshare::cluster {

struct RouterOptions {
  PlacementMap placement;
  /// Node-connect policy. The default fails a dead-but-routable node in
  /// 500ms instead of the OS connect timeout.
  service::NetClient::ConnectOptions connect{/*timeout_ms=*/500,
                                            /*retries=*/0,
                                            /*backoff_ms=*/50};
  /// Request-line cap, mirroring MarketplaceServer's.
  size_t max_request_bytes = service::protocol::kDefaultMaxRequestBytes;
  /// Line cap for v3 batch frames, mirroring MarketplaceServer's (see
  /// service::BatchLineCap).
  size_t max_batch_request_bytes =
      service::protocol::kDefaultMaxBatchRequestBytes;
};

class ClusterRouter : public service::LineHandler {
 public:
  /// Routing threads. At least one per connection of the benches' widest
  /// sweep (8), so those connections never share a worker.
  static constexpr int kWorkers = 8;

  explicit ClusterRouter(RouterOptions options);

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// One transport connection's private state: its own connections to the
  /// nodes, so concurrent client connections never share a socket.
  struct Channel {
    std::map<std::string, service::NetClient> clients;  ///< node id → conn.
  };

  /// LineHandler: parses `line` and routes it on the connection's worker.
  bool SubmitLine(uint64_t connection_id, const std::string& line,
                  service::LineCallback done) override;

  /// Synchronous form of SubmitLine over the caller's own channel: parse
  /// one request line, route it, return the serialized response line.
  std::string RouteLine(const std::string& line, Channel* channel);

  /// Typed form of RouteLine (the in-process test surface).
  service::protocol::Response Route(
      const service::protocol::Request& request, Channel* channel);

  /// Moves `tenancy` to node `target_id`: evict from the current owner
  /// (FailedPrecondition while its period is open), hand off snapshot +
  /// journal tail over the repl_* ops, restore on the target, pin with a
  /// placement override and push the new map. Serialized internally.
  Status Rebalance(const std::string& tenancy, const std::string& target_id,
                   Channel* channel);

  PlacementMap CurrentPlacement() const;
  /// The router's own server_info payload (plus "transport" while a
  /// NetServer serves the router).
  JsonValue InfoJson() const;
  bool shutdown_requested() const override {
    return shutdown_requested_.load();
  }
  size_t max_batch_request_bytes() const override {
    return service::BatchLineCap(options_.max_request_bytes,
                                 options_.max_batch_request_bytes);
  }
  std::string OversizedLineResponse() const override {
    return service::OversizedLineResponse(options_.max_request_bytes);
  }
  void SetTransportInfoProvider(
      std::function<JsonValue()> provider) override;

 private:
  using Request = service::protocol::Request;
  using Response = service::protocol::Response;

  /// One typed round trip to `node` over the channel's cached connection,
  /// reconnecting once on a stale socket. A failed Result is a transport
  /// failure (protocol errors ride inside the Response).
  Result<Response> ChannelCall(Channel* channel, const NodeInfo& node,
                               const Request& request);

  Response RouteTenancyOp(const Request& request, Channel* channel);
  /// v3 batch frame: split members by owning node (preserving order),
  /// forward one sub-batch per node, reassemble the ordered response
  /// array. A sub-batch transport failure marks its node dead and answers
  /// those members Unavailable — batches may carry mutations, so the
  /// router never silently re-forwards one.
  Response RouteBatch(const Request& request, Channel* channel);
  Response RouteRestore(const Request& request, Channel* channel);
  Response RouteAnyNode(const Request& request, Channel* channel);
  Response RouteShutdown(const Request& request, Channel* channel);
  Response RouteClusterUpdate(const Request& request, Channel* channel);

  /// Marks `node_id` dead (if not already), pushes the bumped placement to
  /// the surviving nodes. Returns true if this call did the marking.
  bool HandleNodeFailure(const std::string& node_id, Channel* channel);
  /// Best-effort cluster_update of `placement` to every live node.
  void PushPlacement(const PlacementMap& placement, Channel* channel);
  /// Targeted restore of `tenancy` on `node` (the failover/re-home step).
  Status RestoreOn(const NodeInfo& node, const std::string& tenancy,
                   Channel* channel);
  /// The degraded tail of a failed report retry: sweep every node (live
  /// first, then marked-dead) for persisted tenancy state and serve the
  /// replicated period boundary with `"stale": true`; NotFound when a
  /// reachable node confirms the tenancy has no state; `live_failure`
  /// verbatim when nothing answered at all.
  Response StaleReportFallback(const Request& request, Channel* channel,
                               const Status& live_failure);

  RouterOptions options_;

  mutable std::mutex mu_;  ///< Guards placement_ + tenancy_owner_. Never
                           ///< held across a network call.
  PlacementMap placement_;
  std::map<std::string, std::string> tenancy_owner_;  ///< Last-served node.

  std::mutex rebalance_mu_;  ///< One rebalance at a time.
  std::atomic<bool> shutdown_requested_{false};

  std::atomic<uint64_t> requests_routed_{0};
  std::atomic<uint64_t> forward_failures_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> restores_issued_{0};
  std::atomic<uint64_t> placement_pushes_{0};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> stale_reads_{0};  ///< Reports served degraded.

  mutable std::mutex transport_mu_;  ///< Guards transport_info_; held
                                     ///< across the provider call.
  std::function<JsonValue()> transport_info_;

  std::vector<Channel> channels_;  ///< One per pool worker, by shard.
  ThreadPool pool_;  ///< Last member: its tasks use everything above.
};

}  // namespace optshare::cluster
