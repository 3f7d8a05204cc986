// Cluster failover differential: the PR's acceptance bar. A 3-node
// in-process cluster fronted by a ClusterRouter, with journal-streaming
// replication between the nodes; killing a tenancy's owner mid-stream and
// failing over to its replica must yield PeriodReports bit-identical to an
// uninterrupted single-node run, for every mechanism in the recovery
// suite's trio. Plus the satellite surfaces the failover rides on:
// rebalance hand-off, cluster_update propagation, and the router/node
// server_info counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/router.h"
#include "common/rng.h"
#include "service/marketplace_server.h"
#include "simdb/scenarios.h"

namespace optshare::cluster {
namespace {

using service::PeriodReport;
using service::PricingSession;
using service::ServiceConfig;
using service::protocol::Request;
using service::protocol::RequestOp;
using service::protocol::Response;

std::vector<simdb::SimUser> Jitter(std::vector<simdb::SimUser> tenants,
                                   int slots, uint64_t seed) {
  Rng rng(seed);
  return simdb::JitterTenants(std::move(tenants), slots, rng);
}

/// Runs `periods` full periods directly through PricingSession — the
/// single-node, never-interrupted reference every failover run must match
/// bit for bit.
std::vector<PeriodReport> DirectReports(
    const simdb::Catalog& catalog, const ServiceConfig& config,
    const std::vector<std::vector<simdb::SimUser>>& periods) {
  std::vector<PeriodReport> reports;
  std::vector<std::string> built;
  for (size_t p = 0; p < periods.size(); ++p) {
    Result<PricingSession> session = PricingSession::Open(
        &catalog, config, built, static_cast<int>(p) + 1);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_TRUE(session->Submit(periods[p]).ok());
    for (int slot = 0; slot < config.slots_per_period; ++slot) {
      EXPECT_TRUE(session->AdvanceSlot().ok());
    }
    Result<PeriodReport> report = session->Close();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    built = session->built_structures();
    reports.push_back(std::move(*report));
  }
  return reports;
}

/// The wire program: 4 lines per period (open/submit/advance/close),
/// catalog spec on the first open.
std::vector<std::string> RecordRequestLines(
    const std::string& tenancy, const ServiceConfig& config,
    int scenario_tenants, int scenario_slots,
    const std::vector<std::vector<simdb::SimUser>>& periods) {
  std::vector<std::string> lines;
  for (size_t p = 0; p < periods.size(); ++p) {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = tenancy;
    if (p == 0) {
      service::protocol::CatalogSpec catalog;
      catalog.scenario = "telemetry";
      catalog.scenario_tenants = scenario_tenants;
      catalog.scenario_slots = scenario_slots;
      open.catalog = catalog;
      open.config = config;
    }
    lines.push_back(service::protocol::ToJson(open).Dump());
    Request submit;
    submit.op = RequestOp::kSubmit;
    submit.tenancy = tenancy;
    submit.tenants = periods[p];
    lines.push_back(service::protocol::ToJson(submit).Dump());
    Request advance;
    advance.op = RequestOp::kAdvanceSlot;
    advance.tenancy = tenancy;
    advance.slots = config.slots_per_period;
    lines.push_back(service::protocol::ToJson(advance).Dump());
    Request close;
    close.op = RequestOp::kClosePeriod;
    close.tenancy = tenancy;
    lines.push_back(service::protocol::ToJson(close).Dump());
  }
  return lines;
}

/// Extracts close_period report payloads from response lines (every
/// response must be ok).
std::vector<PeriodReport> ReportsFromResponses(
    const std::vector<std::string>& response_lines) {
  std::vector<PeriodReport> reports;
  for (const std::string& line : response_lines) {
    Result<JsonValue> doc = JsonValue::Parse(line);
    EXPECT_TRUE(doc.ok()) << line;
    Result<Response> response = service::protocol::ResponseFromJson(*doc);
    EXPECT_TRUE(response.ok()) << line;
    EXPECT_TRUE(response->ok()) << response->status.ToString();
    const JsonValue* report = response->payload.Find("report");
    if (report != nullptr) {
      Result<PeriodReport> parsed =
          service::protocol::PeriodReportFromJson(*report);
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      reports.push_back(std::move(*parsed));
    }
  }
  return reports;
}

void ExpectBitIdentical(const std::vector<PeriodReport>& direct,
                        const std::vector<PeriodReport>& routed) {
  ASSERT_EQ(direct.size(), routed.size());
  for (size_t p = 0; p < direct.size(); ++p) {
    // JSON round-trips doubles exactly: string equality of the dumps is
    // bit-for-bit equality of payments, ledger and built set.
    EXPECT_EQ(service::protocol::ToJson(direct[p]).Dump(),
              service::protocol::ToJson(routed[p]).Dump())
        << "period " << p + 1;
  }
}

/// A running in-process cluster: N memory-store nodes + the router.
struct TestCluster {
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<ClusterRouter> router;

  ~TestCluster() {
    for (auto& node : nodes) node->Stop();
  }

  ClusterNode* NodeById(const std::string& id) {
    for (auto& node : nodes) {
      if (node->id() == id) return node.get();
    }
    return nullptr;
  }

  std::string OwnerIdOf(const std::string& tenancy) {
    auto owner = router->CurrentPlacement().OwnerOf(tenancy);
    EXPECT_TRUE(owner.has_value());
    return owner.has_value() ? owner->id : "";
  }
};

/// Two-phase ephemeral-port bootstrap, same as bench/cluster_speed.cc:
/// start nodes under a provisional map (ports unknown), then publish the
/// post-bind map as a newer version.
std::unique_ptr<TestCluster> StartCluster(int num_nodes, int workers) {
  std::vector<NodeInfo> entries;
  for (int n = 0; n < num_nodes; ++n) {
    entries.push_back({"node-" + std::to_string(n), "127.0.0.1", 0, false});
  }
  Result<PlacementMap> provisional = PlacementMap::Create(entries);
  EXPECT_TRUE(provisional.ok());
  auto cluster = std::make_unique<TestCluster>();
  for (int n = 0; n < num_nodes; ++n) {
    ClusterNodeOptions options;
    options.node_id = entries[static_cast<size_t>(n)].id;
    options.placement = *provisional;
    options.num_workers = workers;
    options.connect.timeout_ms = 2000;
    cluster->nodes.push_back(std::make_unique<ClusterNode>(options));
    Status started = cluster->nodes.back()->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    entries[static_cast<size_t>(n)].port = cluster->nodes.back()->port();
  }
  Result<PlacementMap> bound = PlacementMap::Create(entries);
  EXPECT_TRUE(bound.ok());
  bound->SetVersion(provisional->version() + 1);
  for (auto& node : cluster->nodes) {
    node->replication()->UpdatePlacement(*bound);
  }
  RouterOptions router_options;
  router_options.placement = *bound;
  cluster->router = std::make_unique<ClusterRouter>(router_options);
  return cluster;
}

/// A client with the documented retry discipline: a failed-over mutation
/// answers the typed retryable code — Unavailable, never a generic
/// Internal — and the client resends the same line once; at request
/// boundaries that resend is exactly-once. Keying on the code (not a
/// message substring) is the contract this test pins.
std::string SendResilient(ClusterRouter* router,
                          ClusterRouter::Channel* channel,
                          const std::string& line) {
  std::string response_line = router->RouteLine(line, channel);
  Result<JsonValue> doc = JsonValue::Parse(response_line);
  if (doc.ok()) {
    Result<Response> response = service::protocol::ResponseFromJson(*doc);
    if (response.ok() && !response->ok() &&
        response->status.code() == StatusCode::kUnavailable) {
      response_line = router->RouteLine(line, channel);
    }
  }
  return response_line;
}

// -- The acceptance differential -------------------------------------------

class ClusterFailoverTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterFailoverTest, KillingTheOwnerFailsOverBitIdentically) {
  constexpr int kTenants = 6;
  constexpr int kSlots = 12;
  auto scenario = simdb::TelemetryScenario(kTenants, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  config.mechanism = GetParam();

  std::vector<std::vector<simdb::SimUser>> periods;
  for (int p = 0; p < 3; ++p) {
    periods.push_back(Jitter(scenario->tenants, kSlots,
                             7000 + static_cast<uint64_t>(p)));
  }
  const std::vector<PeriodReport> direct =
      DirectReports(scenario->catalog, config, periods);
  // The program must exercise real carry-over, or the differential is
  // vacuous.
  int carried = 0;
  for (const PeriodReport& report : direct) {
    for (const service::StructureOutcome& outcome : report.structures) {
      carried += outcome.carried_over ? 1 : 0;
    }
  }
  ASSERT_GT(carried, 0) << "no carried structures; workload too small";

  const std::vector<std::string> lines =
      RecordRequestLines("acme", config, kTenants, kSlots, periods);
  ASSERT_EQ(lines.size(), 12u);

  // Unlike the single-node suite, each cut boots a whole 3-node cluster,
  // so the kill points are a representative selection rather than every
  // prefix: after each op of period 1 (open / submit / advance), the
  // period-1 boundary, mid-period 2 with carried structures live, and the
  // final close.
  for (const size_t cut : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{6}, size_t{11}}) {
    std::unique_ptr<TestCluster> cluster = StartCluster(3, 2);
    ClusterRouter::Channel channel;
    std::vector<std::string> responses;
    for (size_t i = 0; i < cut; ++i) {
      responses.push_back(
          SendResilient(cluster->router.get(), &channel, lines[i]));
    }
    // Kill the owner: abrupt TCP close, no checkpoint. Everything the
    // tenancy is at this point lives only in the replica's store.
    const std::string owner = cluster->OwnerIdOf("acme");
    const std::string replica =
        cluster->router->CurrentPlacement().ReplicaFor("acme", owner)->id;
    cluster->NodeById(owner)->Stop();
    for (size_t i = cut; i < lines.size(); ++i) {
      responses.push_back(
          SendResilient(cluster->router.get(), &channel, lines[i]));
    }
    ExpectBitIdentical(direct, ReportsFromResponses(responses));
    // The failover landed on the node that was already holding the warm
    // replica (the PlacementMap invariant, observed end to end).
    EXPECT_EQ(cluster->OwnerIdOf("acme"), replica) << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, ClusterFailoverTest,
                         ::testing::Values("addon", "naive_online", "regret"));

// -- Rebalance --------------------------------------------------------------

TEST(ClusterRebalanceTest, MovesATenancyAtThePeriodBoundaryBitIdentically) {
  constexpr int kTenants = 6;
  constexpr int kSlots = 12;
  auto scenario = simdb::TelemetryScenario(kTenants, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  const std::vector<std::vector<simdb::SimUser>> periods = {
      Jitter(scenario->tenants, kSlots, 7100),
      Jitter(scenario->tenants, kSlots, 7101)};
  const std::vector<PeriodReport> direct =
      DirectReports(scenario->catalog, config, periods);
  const std::vector<std::string> lines =
      RecordRequestLines("acme", config, kTenants, kSlots, periods);

  std::unique_ptr<TestCluster> cluster = StartCluster(3, 2);
  ClusterRouter::Channel channel;
  std::vector<std::string> responses;
  // Open + submit of period 1, leaving the period open...
  for (size_t i = 0; i < 2; ++i) {
    responses.push_back(
        SendResilient(cluster->router.get(), &channel, lines[i]));
  }
  const std::string owner = cluster->OwnerIdOf("acme");
  const PlacementMap placement = cluster->router->CurrentPlacement();
  std::string target;
  for (const NodeInfo& node : placement.nodes()) {
    if (node.id != owner) target = node.id;
  }
  // ... so the hand-off is refused: rebalances happen at period
  // boundaries only.
  Status refused = cluster->router->Rebalance("acme", target, &channel);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition)
      << refused.ToString();
  // Finish the period; now the move goes through.
  for (size_t i = 2; i < 4; ++i) {
    responses.push_back(
        SendResilient(cluster->router.get(), &channel, lines[i]));
  }
  Status moved = cluster->router->Rebalance("acme", target, &channel);
  ASSERT_TRUE(moved.ok()) << moved.ToString();
  EXPECT_EQ(cluster->OwnerIdOf("acme"), target);
  // Period 2 runs on the new owner from the handed-off state, and its
  // report is bit-identical to the uninterrupted run.
  for (size_t i = 4; i < lines.size(); ++i) {
    responses.push_back(
        SendResilient(cluster->router.get(), &channel, lines[i]));
  }
  ExpectBitIdentical(direct, ReportsFromResponses(responses));
  // Unknown targets are rejected up front.
  EXPECT_FALSE(cluster->router->Rebalance("acme", "nope", &channel).ok());
}

// -- Placement propagation --------------------------------------------------

TEST(ClusterAdminTest, ClusterUpdateInstallsIfNewerAndPropagates) {
  std::unique_ptr<TestCluster> cluster = StartCluster(3, 1);
  ClusterRouter::Channel channel;
  PlacementMap updated = cluster->router->CurrentPlacement();
  const int64_t base_version = updated.version();
  ASSERT_TRUE(updated.SetOverride("pinned", "node-2"));  // Bumps version.

  Request push;
  push.op = RequestOp::kClusterUpdate;
  push.placement = updated.ToJson();
  Response response = cluster->router->Route(push, &channel);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_TRUE(response.payload.Find("installed")->AsBool());
  EXPECT_EQ(response.payload.Find("version")->AsNumber(),
            static_cast<double>(base_version + 1));
  // The router forwarded the map to every node.
  for (auto& node : cluster->nodes) {
    EXPECT_EQ(node->replication()->CurrentPlacement().version(),
              base_version + 1)
        << node->id();
  }
  EXPECT_EQ(cluster->OwnerIdOf("pinned"), "node-2");

  // Replaying the same (now stale) map is a no-op everywhere.
  Response replay = cluster->router->Route(push, &channel);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.payload.Find("installed")->AsBool());
}

// -- server_info ------------------------------------------------------------

TEST(ClusterInfoTest, RouterAndNodesExposeClusterCounters) {
  constexpr int kSlots = 12;
  auto scenario = simdb::TelemetryScenario(5, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  const std::vector<std::vector<simdb::SimUser>> periods = {
      Jitter(scenario->tenants, kSlots, 7200)};
  const std::vector<std::string> lines =
      RecordRequestLines("acme", config, 5, kSlots, periods);

  std::unique_ptr<TestCluster> cluster = StartCluster(3, 1);
  ClusterRouter::Channel channel;
  for (const std::string& line : lines) {
    SendResilient(cluster->router.get(), &channel, line);
  }

  // The router answers server_info itself: role + placement + counters.
  Request info;
  info.op = RequestOp::kServerInfo;
  Response routed = cluster->router->Route(info, &channel);
  ASSERT_TRUE(routed.ok()) << routed.status.ToString();
  EXPECT_EQ(routed.payload.Find("role")->AsString(), "router");
  ASSERT_NE(routed.payload.Find("placement"), nullptr);

  // The owner node counted its ops and streamed every journal write to
  // its replica — semi-sync, so at an idle boundary the lag is zero.
  ClusterNode* owner = cluster->NodeById(cluster->OwnerIdOf("acme"));
  ASSERT_NE(owner, nullptr);
  Response node_info = owner->server()->Handle(Request{info});
  ASSERT_TRUE(node_info.ok()) << node_info.status.ToString();
  const JsonValue* ops = node_info.payload.Find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_NE(ops->Find("open_period"), nullptr);
  EXPECT_GE(ops->Find("open_period")->AsNumber(), 1.0);
  const JsonValue* replication = node_info.payload.Find("replication");
  ASSERT_NE(replication, nullptr);
  EXPECT_EQ(replication->Find("self")->AsString(), owner->id());
  EXPECT_GT(replication->Find("records_sent")->AsNumber(), 0.0);
  EXPECT_EQ(replication->Find("lag")->AsNumber(), 0.0);
  EXPECT_EQ(replication->Find("failures")->AsNumber(), 0.0);
}

// -- Degraded reads ---------------------------------------------------------

// When no live node owns a tenancy, a `report` must degrade, not lie: a
// node holding the replicated snapshot (even one the placement has marked
// dead — suspicion is per-connection, and a cheap read is the right probe)
// serves the last period boundary tagged `"stale": true`, while a tenancy
// no reachable node has state for answers NotFound. Before this
// distinction the router collapsed both into the same Internal error.
TEST(ClusterStaleReadTest, DeadOwnerDegradesToStaleSnapshotNotNotFound) {
  constexpr int kTenants = 6;
  constexpr int kSlots = 12;
  auto scenario = simdb::TelemetryScenario(kTenants, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  const std::vector<std::vector<simdb::SimUser>> periods = {
      Jitter(scenario->tenants, kSlots, 7300),
      Jitter(scenario->tenants, kSlots, 7301)};
  const std::vector<std::string> lines =
      RecordRequestLines("acme", config, kTenants, kSlots, periods);

  std::unique_ptr<TestCluster> cluster = StartCluster(2, 2);
  ClusterRouter::Channel channel;
  for (const std::string& line : lines) {
    SendResilient(cluster->router.get(), &channel, line);
  }

  // The live answer at the period-2 boundary: what the stale read must
  // reproduce exactly (it is the same replicated snapshot).
  Request report;
  report.op = RequestOp::kReport;
  report.tenancy = "acme";
  const Response live = cluster->router->Route(report, &channel);
  ASSERT_TRUE(live.ok()) << live.status.ToString();
  ASSERT_EQ(live.payload.Find("periods_run")->AsNumber(), 2.0);
  const double live_balance =
      live.payload.Find("cumulative_balance")->AsNumber();
  const std::string live_built =
      live.payload.Find("built_structures")->Dump();

  // Kill the owner outright, and mark the surviving replica dead in the
  // placement (another connection's suspicion — the node is actually fine).
  // Now no live node owns anything.
  const std::string owner = cluster->OwnerIdOf("acme");
  std::string replica;
  for (const auto& node : cluster->nodes) {
    if (node->id() != owner) replica = node->id();
  }
  cluster->NodeById(owner)->Stop();
  PlacementMap suspected = cluster->router->CurrentPlacement();
  ASSERT_TRUE(suspected.MarkDead(replica));
  Request push;
  push.op = RequestOp::kClusterUpdate;
  push.placement = suspected.ToJson();
  ASSERT_TRUE(cluster->router->Route(push, &channel).ok());

  // The degraded read: still a successful report, explicitly stale, and
  // carrying exactly the replicated boundary accounting.
  const Response stale = cluster->router->Route(report, &channel);
  ASSERT_TRUE(stale.ok()) << stale.status.ToString();
  ASSERT_NE(stale.payload.Find("stale"), nullptr)
      << "degraded report must carry the stale marker";
  EXPECT_TRUE(stale.payload.Find("stale")->AsBool());
  EXPECT_EQ(stale.payload.Find("served_by")->AsString(), replica);
  EXPECT_EQ(stale.payload.Find("periods_run")->AsNumber(), 2.0);
  EXPECT_EQ(stale.payload.Find("period_open")->AsBool(), false);
  EXPECT_EQ(stale.payload.Find("cumulative_balance")->AsNumber(),
            live_balance);
  EXPECT_EQ(stale.payload.Find("built_structures")->Dump(), live_built);

  // A tenancy no reachable node has state for is NotFound — not the old
  // blanket Internal, and not a stale fabrication.
  Request ghost;
  ghost.op = RequestOp::kReport;
  ghost.tenancy = "ghost";
  const Response missing = cluster->router->Route(ghost, &channel);
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound)
      << missing.status.ToString();
  EXPECT_NE(missing.status.message().find("unknown tenancy \"ghost\""),
            std::string::npos)
      << missing.status.message();

  // The router counted the degraded serve.
  const JsonValue info = cluster->router->InfoJson();
  EXPECT_GE(info.Find("routing")->Find("stale_reads")->AsNumber(), 1.0);

  // Mutations never degrade: with no live owner they fail loudly.
  Request advance;
  advance.op = RequestOp::kAdvanceSlot;
  advance.tenancy = "acme";
  advance.slots = 1;
  const Response refused = cluster->router->Route(advance, &channel);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.status.code(), StatusCode::kNotFound);
}

// -- The retryable failover signal ------------------------------------------

Response ParseResponseLine(const std::string& line) {
  Result<JsonValue> doc = JsonValue::Parse(line);
  EXPECT_TRUE(doc.ok()) << line;
  if (!doc.ok()) return Response{};
  Result<Response> response = service::protocol::ResponseFromJson(*doc);
  EXPECT_TRUE(response.ok()) << line;
  return response.ok() ? std::move(*response) : Response{};
}

// A failed-over mutation must answer the dedicated retryable code —
// Unavailable, carrying the post-failover placement version — in BOTH
// failover branches: the forward that dies mid-request, and the failover
// restore that itself fails. Before this the router answered a generic
// Internal whose only machine-readable content was the substring "retry".
TEST(ClusterFailoverSignalTest, BothFailoverBranchesAnswerTypedUnavailable) {
  constexpr int kTenants = 4;
  constexpr int kSlots = 8;
  auto scenario = simdb::TelemetryScenario(kTenants, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  const std::vector<std::vector<simdb::SimUser>> periods = {
      Jitter(scenario->tenants, kSlots, 7500)};
  const std::vector<std::string> lines =
      RecordRequestLines("acme", config, kTenants, kSlots, periods);

  std::unique_ptr<TestCluster> cluster = StartCluster(3, 1);
  ClusterRouter::Channel channel;
  ASSERT_TRUE(ParseResponseLine(
                  cluster->router->RouteLine(lines[0], &channel))
                  .ok());
  const auto version_before = cluster->router->CurrentPlacement().version();

  // Branch 1: the forward dies mid-request. The mutation is NOT silently
  // retried; it answers Unavailable with the bumped placement version.
  const std::string owner = cluster->OwnerIdOf("acme");
  cluster->NodeById(owner)->Stop();
  const Response forward_failed =
      ParseResponseLine(cluster->router->RouteLine(lines[1], &channel));
  EXPECT_FALSE(forward_failed.ok());
  EXPECT_EQ(forward_failed.status.code(), StatusCode::kUnavailable)
      << forward_failed.status.ToString();
  EXPECT_NE(forward_failed.status.message().find("placement"),
            std::string::npos)
      << forward_failed.status.message();
  EXPECT_GT(cluster->router->CurrentPlacement().version(), version_before);

  // The client-side discipline: exactly one resend, routed to the
  // recovered owner, succeeds.
  const Response resent =
      ParseResponseLine(cluster->router->RouteLine(lines[1], &channel));
  EXPECT_TRUE(resent.ok()) << resent.status.ToString();

  // Branch 2: the failover restore itself fails. Kill the remaining
  // nodes; the first mutation marks the recorded owner dead (branch 1
  // again), and the next one re-homes toward the last "live" node, whose
  // restore cannot connect — that failure must be Unavailable too.
  for (auto& node : cluster->nodes) node->Stop();
  const Response dead_owner =
      ParseResponseLine(cluster->router->RouteLine(lines[2], &channel));
  EXPECT_EQ(dead_owner.status.code(), StatusCode::kUnavailable)
      << dead_owner.status.ToString();
  const Response restore_failed =
      ParseResponseLine(cluster->router->RouteLine(lines[2], &channel));
  EXPECT_EQ(restore_failed.status.code(), StatusCode::kUnavailable)
      << restore_failed.status.ToString();
  EXPECT_NE(restore_failed.status.message().find("failover restore"),
            std::string::npos)
      << restore_failed.status.message();
}

// -- Batch routing ----------------------------------------------------------

// One v3 batch frame through the router must answer member docs
// byte-identical to the same program sent line by line against an
// identical cluster — the batch split/reassemble path cannot diverge from
// the single-request path.
TEST(ClusterBatchTest, RoutedBatchMatchesSequentialSendsByteForByte) {
  constexpr int kTenants = 4;
  constexpr int kSlots = 8;
  auto scenario = simdb::TelemetryScenario(kTenants, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  const std::vector<std::vector<simdb::SimUser>> periods = {
      Jitter(scenario->tenants, kSlots, 7600),
      Jitter(scenario->tenants, kSlots, 7601)};
  const std::vector<std::string> lines =
      RecordRequestLines("acme", config, kTenants, kSlots, periods);

  // Reference: the program line by line.
  std::vector<std::string> sequential;
  {
    std::unique_ptr<TestCluster> cluster = StartCluster(3, 2);
    ClusterRouter::Channel channel;
    for (const std::string& line : lines) {
      sequential.push_back(cluster->router->RouteLine(line, &channel));
    }
  }

  // The same program as one batch frame, against a fresh identical
  // cluster.
  std::unique_ptr<TestCluster> cluster = StartCluster(3, 2);
  ClusterRouter::Channel channel;
  Request batch;
  batch.op = RequestOp::kBatch;
  batch.version = 3;
  batch.id = "b1";
  for (const std::string& line : lines) {
    Result<Request> member = service::protocol::ParseRequestLine(line);
    ASSERT_TRUE(member.ok()) << member.status().ToString();
    batch.requests.push_back(std::move(*member));
  }
  const Response response = cluster->router->Route(batch, &channel);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.id, "b1");
  const JsonValue* docs = response.payload.Find("responses");
  ASSERT_NE(docs, nullptr);
  ASSERT_TRUE(docs->is_array());
  ASSERT_EQ(docs->AsArray().size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(docs->AsArray()[i].Dump(), sequential[i]) << "member " << i;
  }
}

}  // namespace
}  // namespace optshare::cluster
