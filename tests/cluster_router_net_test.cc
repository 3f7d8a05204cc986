// The router over TCP. A client cannot tell a router from a single node:
// the same request stream sent to a node's NetServer and through a 1-node
// ClusterRouter's NetServer must answer byte-identical lines — period
// traffic, the error surface, both over-cap answers and a batch frame over
// the plain cap included. The router is served by the node's own
// transport, so it also inherits the node's connection cap and its
// slow-reader cut-off; both are pinned here.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "cluster/router.h"
#include "common/rng.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "simdb/scenarios.h"

namespace optshare::cluster {
namespace {

using service::MarketplaceServer;
using service::NetClient;
using service::NetServer;
using service::NetServerOptions;
using service::ServerOptions;
using service::protocol::Request;
using service::protocol::RequestOp;

/// One MarketplaceServer behind its own NetServer: the node, as a client
/// (or the router) reaches it.
struct Node {
  explicit Node(const ServerOptions& options) : server(options), net(&server) {
    Status started = net.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  MarketplaceServer server;
  NetServer net;
};

/// A 1-node cluster: the node plus a ClusterRouter served by a NetServer.
struct RoutedNode {
  RoutedNode(const ServerOptions& options, NetServerOptions router_net = {})
      : node(options) {
    Result<PlacementMap> placement = PlacementMap::Create(
        {{"node-0", "127.0.0.1", node.net.port(), false}});
    EXPECT_TRUE(placement.ok()) << placement.status().ToString();
    RouterOptions router_options;
    router_options.placement = *placement;
    router_options.max_request_bytes = options.max_request_bytes;
    router_options.max_batch_request_bytes = options.max_batch_request_bytes;
    router = std::make_unique<ClusterRouter>(router_options);
    net = std::make_unique<NetServer>(router.get(), std::move(router_net));
    Status started = net->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~RoutedNode() { net->Stop(); }

  Node node;
  std::unique_ptr<ClusterRouter> router;
  std::unique_ptr<NetServer> net;
};

NetClient MustConnect(uint16_t port) {
  Result<NetClient> client = NetClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

/// Sends lines [from, to) pipelined, then reads their responses.
std::vector<std::string> Pipeline(NetClient& client,
                                  const std::vector<std::string>& stream,
                                  size_t from, size_t to) {
  std::vector<std::string> responses;
  for (size_t i = from; i < to; ++i) {
    EXPECT_TRUE(client.SendLine(stream[i]).ok()) << "request " << i;
  }
  for (size_t i = from; i < to; ++i) {
    Result<std::string> response = client.ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) break;
    responses.push_back(std::move(*response));
  }
  return responses;
}

/// The wire lines of one period for `tenancy`, bootstrapping its catalog.
std::vector<std::string> PeriodLines(const std::string& tenancy,
                                     int scenario_tenants, int slots,
                                     uint64_t seed) {
  auto scenario = simdb::TelemetryScenario(scenario_tenants, slots);
  EXPECT_TRUE(scenario.ok());
  Rng rng(seed);
  service::ServiceConfig config;
  config.slots_per_period = slots;
  std::vector<std::string> lines;
  Request open;
  open.op = RequestOp::kOpenPeriod;
  open.tenancy = tenancy;
  service::protocol::CatalogSpec catalog;
  catalog.scenario = "telemetry";
  catalog.scenario_tenants = scenario_tenants;
  catalog.scenario_slots = slots;
  open.catalog = catalog;
  open.config = config;
  lines.push_back(service::protocol::ToJson(open).Dump());
  Request submit;
  submit.op = RequestOp::kSubmit;
  submit.tenancy = tenancy;
  submit.tenants = simdb::JitterTenants(scenario->tenants, slots, rng);
  lines.push_back(service::protocol::ToJson(submit).Dump());
  Request advance;
  advance.op = RequestOp::kAdvanceSlot;
  advance.tenancy = tenancy;
  advance.slots = slots;
  lines.push_back(service::protocol::ToJson(advance).Dump());
  Request close;
  close.op = RequestOp::kClosePeriod;
  close.tenancy = tenancy;
  lines.push_back(service::protocol::ToJson(close).Dump());
  return lines;
}

TEST(RouterNetParityTest, RoutedStreamMatchesDirectNodeByteForByte) {
  std::vector<std::string> stream;
  const auto acme = PeriodLines("acme", 5, 8, 11);
  const auto globex = PeriodLines("globex", 5, 8, 22);
  for (size_t i = 0; i < acme.size(); ++i) {
    stream.push_back(acme[i]);
    stream.push_back(globex[i]);
  }
  // Pipelined period traffic, then (after an ack barrier, so reads see
  // the acknowledged writes) the error surface and the over-cap lines.
  const size_t pipelined = stream.size();
  size_t longest = 0;
  for (const std::string& line : stream) {
    longest = std::max(longest, line.size());
  }
  ServerOptions options;
  options.num_workers = 2;
  options.max_request_bytes = longest + 16;
  options.max_batch_request_bytes = 4 * options.max_request_bytes;
  std::string batch = R"({"v":3,"op":"batch","id":"frame","requests":[)";
  for (int i = 0; batch.size() <= options.max_request_bytes; ++i) {
    if (i > 0) batch += ",";
    batch += R"({"v":1,"op":"report","id":"b)" + std::to_string(i) +
             R"(","tenancy":")" + (i % 2 == 0 ? "acme" : "globex") + "\"}";
  }
  batch += "]}";
  ASSERT_LT(batch.size(), options.max_batch_request_bytes);

  stream.push_back("{this is not json");
  stream.push_back(R"({"v":4,"op":"list_mechanisms"})");
  stream.push_back(R"({"v":1,"op":"list_mechanisms","bogus_field":true})");
  stream.push_back(R"({"v":1,"op":"report","tenancy":"nobody"})");
  stream.push_back(R"({"v":2,"op":"report","id":"r","tenancy":"acme"})");
  stream.push_back(std::string(options.max_request_bytes + 1, 'x'));
  stream.push_back(std::string(options.max_batch_request_bytes + 1, 'y'));
  stream.push_back(batch);
  stream.push_back(R"({"v":1,"op":"list_mechanisms"})");

  std::vector<std::string> direct;
  {
    Node node(options);
    NetClient client = MustConnect(node.net.port());
    direct = Pipeline(client, stream, 0, pipelined);
    for (std::string& line : Pipeline(client, stream, pipelined,
                                      stream.size())) {
      direct.push_back(std::move(line));
    }
  }
  std::vector<std::string> routed;
  {
    RoutedNode cluster(options);
    NetClient client = MustConnect(cluster.net->port());
    routed = Pipeline(client, stream, 0, pipelined);
    for (std::string& line : Pipeline(client, stream, pipelined,
                                      stream.size())) {
      routed.push_back(std::move(line));
    }
  }

  ASSERT_EQ(direct.size(), stream.size());
  ASSERT_EQ(routed.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(direct[i], routed[i]) << "request " << i;
  }
  // The stream priced for real and exercised the paths it names.
  EXPECT_NE(direct[6].find("\"report\""), std::string::npos) << direct[6];
  const std::string oversized =
      service::OversizedLineResponse(options.max_request_bytes);
  EXPECT_EQ(routed[pipelined + 5], oversized);
  EXPECT_EQ(routed[pipelined + 6], oversized);
  EXPECT_NE(routed[pipelined + 7].find("\"responses\""), std::string::npos)
      << routed[pipelined + 7];
}

TEST(RouterNetServerTest, ServerInfoCarriesRoutingAndTransportCounters) {
  RoutedNode cluster(ServerOptions{});
  NetClient client = MustConnect(cluster.net->port());
  Result<std::string> info = client.Call(R"({"v":2,"op":"server_info"})");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_NE(info->find("\"role\":\"router\""), std::string::npos) << *info;
  EXPECT_NE(info->find("\"transport\""), std::string::npos) << *info;
  EXPECT_NE(info->find("\"connections_open\":1"), std::string::npos) << *info;
}

TEST(RouterNetServerTest, ConnectionCapRefusesSurplusConnections) {
  NetServerOptions router_net;
  router_net.max_connections = 1;
  RoutedNode cluster(ServerOptions{}, router_net);
  const std::string request = R"({"v":1,"op":"list_mechanisms"})";

  NetClient first = MustConnect(cluster.net->port());
  Result<std::string> served = first.Call(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_NE(served->find("\"ok\":true"), std::string::npos) << *served;

  NetClient surplus = MustConnect(cluster.net->port());
  Result<std::string> refused = surplus.ReadLine();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_NE(refused->find("ResourceExhausted"), std::string::npos)
      << *refused;
  EXPECT_NE(refused->find("connection limit reached"), std::string::npos)
      << *refused;
  EXPECT_EQ(cluster.net->stats().connections_refused, 1u);

  // The admitted connection is unaffected; once it leaves, a new one fits.
  served = first.Call(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  first.Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.net->stats().connections_open != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  NetClient next = MustConnect(cluster.net->port());
  served = next.Call(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_NE(served->find("\"ok\":true"), std::string::npos) << *served;
}

TEST(RouterNetServerTest, SlowReaderIsCutOffWithoutBlockingOthers) {
  NetServerOptions router_net;
  router_net.max_write_buffer_bytes = 16 * 1024;
  router_net.sndbuf_bytes = 8 * 1024;  // Trip the app-level cap quickly.
  RoutedNode cluster(ServerOptions{}, router_net);

  // The slow reader fires requests and never reads, until the router's
  // write buffer for it passes the cap and the connection is condemned.
  NetClient slow = MustConnect(cluster.net->port());
  const std::string request = R"({"v":1,"op":"list_mechanisms"})";
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(slow.SendLine(request).ok()) << "request " << i;
  }

  // A well-behaved client routes on another worker and is served
  // throughout.
  NetClient good = MustConnect(cluster.net->port());
  for (int i = 0; i < 50; ++i) {
    Result<std::string> response = good.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cluster.net->stats().connections_dropped_backpressure == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cluster.net->stats().connections_dropped_backpressure, 1u);

  // Draining now yields the bounded backlog, the typed verdict, then EOF.
  std::string last_line;
  size_t lines_read = 0;
  for (;;) {
    Result<std::string> line = slow.ReadLine();
    if (!line.ok()) break;
    last_line = std::move(*line);
    ++lines_read;
  }
  ASSERT_GT(lines_read, 0u);
  EXPECT_LT(lines_read, 2000u);
  EXPECT_NE(last_line.find("ResourceExhausted"), std::string::npos)
      << last_line;
  EXPECT_NE(last_line.find("reader too slow"), std::string::npos)
      << last_line;
}

TEST(RouterNetServerTest, WireShutdownDrainsTheRouterAndItsNode) {
  RoutedNode cluster(ServerOptions{});
  NetClient client = MustConnect(cluster.net->port());
  Result<std::string> response =
      client.Call(R"({"v":2,"op":"shutdown","id":"bye"})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("\"nodes_notified\":1"), std::string::npos)
      << *response;
  cluster.net->Wait();  // Returns: the router's transport drained.
  cluster.node.net.Wait();
  EXPECT_TRUE(cluster.router->shutdown_requested());
  EXPECT_TRUE(cluster.node.server.shutdown_requested());
}

}  // namespace
}  // namespace optshare::cluster
