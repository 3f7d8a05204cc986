// Cluster throughput harness: drives the multi-node pricing cluster
// (src/cluster/) end to end — N ClusterNodes with journal-streaming
// replication, fronted by a ClusterRouter over localhost TCP — with one
// client per tenancy running full billing periods through the router, and
// measures aggregate request throughput as tenancies sweep 1 -> 8 for each
// node count. Emits BENCH_cluster.json.
//
//   cluster_speed [--quick] [--out PATH] [--periods P] [--tenants N]
//
// Each sweep point runs kRepetitions times on a fresh cluster, in rounds
// over the whole sweep, and reports the median request rate
// ("requests_per_sec", the gated number) with the min and max alongside: a
// single run of a point lasts tens of milliseconds, too short to resolve a
// 20 % change on its own.
//
// The 1-node column is the routing-overhead floor (every request pays one
// extra hop, no replication); the 3-node column adds consistent-hash
// spreading plus a synchronous replica stream per journal write — the
// interesting signal is how much of the fan-out win survives that cost.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/router.h"
#include "common/json.h"
#include "common/rng.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "simdb/scenarios.h"

namespace optshare {
namespace {

using Clock = std::chrono::steady_clock;
using cluster::ClusterNode;
using cluster::ClusterNodeOptions;
using cluster::ClusterRouter;
using cluster::NodeInfo;
using cluster::PlacementMap;
using cluster::RouterOptions;
using service::NetClient;
using service::protocol::Request;
using service::protocol::RequestOp;

constexpr int kRepetitions = 5;

struct RunConfig {
  int periods = 2;
  int tenants = 300;
  int slots = 12;
  int workers = 4;  ///< Per node.
};

struct SweepPoint {
  int nodes = 0;
  int tenancies = 0;
  double ms_total = 0.0;
  long long requests = 0;
};

/// A running cluster: N nodes on ephemeral ports + the router front end.
struct Cluster {
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<ClusterRouter> router;
  std::unique_ptr<service::NetServer> front;

  ~Cluster() {
    if (front != nullptr) front->Stop();
    for (auto& node : nodes) node->Stop();
  }
};

/// Boots `num_nodes` in-process nodes on ephemeral ports. Two-phase
/// placement: the nodes start with a provisional map (ports unknown), then
/// install the post-bind map — the same path a live cluster_update takes.
std::unique_ptr<Cluster> StartCluster(int num_nodes, int workers) {
  std::vector<NodeInfo> entries;
  for (int n = 0; n < num_nodes; ++n) {
    entries.push_back({"node-" + std::to_string(n), "127.0.0.1", 0, false});
  }
  Result<PlacementMap> provisional = PlacementMap::Create(entries);
  if (!provisional.ok()) {
    std::cerr << "placement failed: " << provisional.status().ToString()
              << "\n";
    std::exit(1);
  }
  auto cluster = std::make_unique<Cluster>();
  for (int n = 0; n < num_nodes; ++n) {
    ClusterNodeOptions options;
    options.node_id = entries[static_cast<size_t>(n)].id;
    options.placement = *provisional;
    options.port = 0;
    options.num_workers = workers;
    options.connect.timeout_ms = 1000;
    cluster->nodes.push_back(std::make_unique<ClusterNode>(options));
    Status started = cluster->nodes.back()->Start();
    if (!started.ok()) {
      std::cerr << "node start failed: " << started.ToString() << "\n";
      std::exit(1);
    }
    entries[static_cast<size_t>(n)].port = cluster->nodes.back()->port();
  }
  Result<PlacementMap> bound = PlacementMap::Create(entries);
  if (!bound.ok()) {
    std::cerr << "placement failed: " << bound.status().ToString() << "\n";
    std::exit(1);
  }
  bound->SetVersion(provisional->version() + 1);
  for (auto& node : cluster->nodes) {
    node->replication()->UpdatePlacement(*bound);
  }
  RouterOptions router_options;
  router_options.placement = *bound;
  cluster->router = std::make_unique<ClusterRouter>(router_options);
  cluster->front = std::make_unique<service::NetServer>(cluster->router.get());
  Status started = cluster->front->Start();
  if (!started.ok()) {
    std::cerr << "router start failed: " << started.ToString() << "\n";
    std::exit(1);
  }
  return cluster;
}

/// One client's whole program: `periods` full billing periods for its own
/// tenancy, every request a blocking round trip through the router.
long long RunClient(uint16_t router_port, const std::string& tenancy,
                    const simdb::Scenario& scenario, const RunConfig& config,
                    uint64_t seed) {
  Result<NetClient> client = NetClient::Connect("127.0.0.1", router_port);
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.status().ToString() << "\n";
    std::exit(1);
  }
  Rng rng(seed);
  const std::vector<simdb::SimUser> tenants =
      simdb::JitterTenants(scenario.tenants, config.slots, rng, 0.5, 2.0);
  long long requests = 0;
  const auto call = [&](Request request) {
    auto response = client->Call(request);
    if (!response.ok() || !response->ok()) {
      std::cerr << "request failed: "
                << (response.ok() ? response->status.ToString()
                                  : response.status().ToString())
                << "\n";
      std::exit(1);
    }
    ++requests;
  };
  for (int p = 0; p < config.periods; ++p) {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = tenancy;
    if (p == 0) {
      service::protocol::CatalogSpec catalog;
      catalog.scenario = "telemetry";
      catalog.scenario_tenants = config.tenants;
      catalog.scenario_slots = config.slots;
      open.catalog = catalog;
      service::ServiceConfig service_config;
      service_config.slots_per_period = config.slots;
      open.config = service_config;
    }
    call(std::move(open));
    Request submit;
    submit.op = RequestOp::kSubmit;
    submit.tenancy = tenancy;
    submit.tenants = tenants;
    call(std::move(submit));
    for (int s = 0; s < config.slots; ++s) {
      Request advance;
      advance.op = RequestOp::kAdvanceSlot;
      advance.tenancy = tenancy;
      call(std::move(advance));
    }
    Request close;
    close.op = RequestOp::kClosePeriod;
    close.tenancy = tenancy;
    call(std::move(close));
  }
  return requests;
}

SweepPoint RunSweepPoint(const RunConfig& config, int nodes, int tenancies) {
  auto scenario = simdb::TelemetryScenario(config.tenants, config.slots);
  if (!scenario.ok()) {
    std::cerr << "scenario failed: " << scenario.status().ToString() << "\n";
    std::exit(1);
  }
  std::unique_ptr<Cluster> cluster = StartCluster(nodes, config.workers);

  SweepPoint point;
  point.nodes = nodes;
  point.tenancies = tenancies;
  std::vector<long long> counts(static_cast<size_t>(tenancies), 0);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (int t = 0; t < tenancies; ++t) {
    threads.emplace_back([&, t] {
      counts[static_cast<size_t>(t)] = RunClient(
          cluster->front->port(), "tenancy-" + std::to_string(t), *scenario,
          config, 5000 + static_cast<uint64_t>(t));
    });
  }
  for (std::thread& thread : threads) thread.join();
  point.ms_total =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  for (long long count : counts) point.requests += count;
  return point;
}

}  // namespace
}  // namespace optshare

int main(int argc, char** argv) {
  using namespace optshare;

  RunConfig config;
  std::string out_path = "BENCH_cluster.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      config.periods = 1;
      config.tenants = 100;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else if (arg == "--periods" && a + 1 < argc) {
      config.periods = std::stoi(argv[++a]);
    } else if (arg == "--tenants" && a + 1 < argc) {
      config.tenants = std::stoi(argv[++a]);
    } else {
      std::cerr << "usage: cluster_speed [--quick] [--out PATH] "
                   "[--periods P] [--tenants N]\n";
      return 2;
    }
  }

  // Warm-up pays the one-time costs (allocator, cold advisor paths) that
  // would otherwise bill to the first sweep point.
  {
    RunConfig warmup = config;
    warmup.periods = 1;
    (void)RunSweepPoint(warmup, 1, 1);
  }

  // The repetitions run as rounds over the whole sweep, so each point's
  // samples are spread across the run: a host slowdown lasting a few
  // seconds costs every point one sample instead of one point all of them.
  struct Sample {
    double rps;
    SweepPoint point;
  };
  constexpr int kNodeCounts[] = {1, 3};
  constexpr int kTenancyCounts[] = {1, 4, 8};
  std::vector<std::vector<Sample>> samples(std::size(kNodeCounts) *
                                           std::size(kTenancyCounts));
  for (int r = 0; r < kRepetitions; ++r) {
    size_t p = 0;
    for (int nodes : kNodeCounts) {
      for (int tenancies : kTenancyCounts) {
        const SweepPoint point = RunSweepPoint(config, nodes, tenancies);
        const double seconds = point.ms_total / 1000.0;
        samples[p++].push_back(
            {seconds > 0.0 ? static_cast<double>(point.requests) / seconds
                           : 0.0,
             point});
      }
    }
  }

  JsonValue sweep = JsonValue::MakeArray();
  double baseline_rps = 0.0;
  for (std::vector<Sample>& runs : samples) {
    std::sort(runs.begin(), runs.end(),
              [](const Sample& a, const Sample& b) { return a.rps < b.rps; });
    const auto& [rps, point] = runs[kRepetitions / 2];
    if (point.tenancies == 1) baseline_rps = rps;
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("nodes", JsonValue::Number(point.nodes));
    entry.Set("tenancies", JsonValue::Number(point.tenancies));
    entry.Set("ms_total", JsonValue::Number(point.ms_total));
    entry.Set("requests",
              JsonValue::Number(static_cast<double>(point.requests)));
    entry.Set("requests_per_sec", JsonValue::Number(rps));
    entry.Set("requests_per_sec_min", JsonValue::Number(runs.front().rps));
    entry.Set("requests_per_sec_max", JsonValue::Number(runs.back().rps));
    entry.Set("speedup_vs_1_tenancy",
              JsonValue::Number(baseline_rps > 0.0 ? rps / baseline_rps
                                                   : 0.0));
    sweep.Append(std::move(entry));
    std::cout << "nodes " << point.nodes << ", tenancies " << point.tenancies
              << ": median " << rps << " req/s (min " << runs.front().rps
              << ", max " << runs.back().rps << ", " << kRepetitions
              << " runs)\n";
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("benchmark", JsonValue::Str("cluster_speed"));
  doc.Set("transport", JsonValue::Str("tcp-localhost-router"));
  doc.Set("periods_per_tenancy", JsonValue::Number(config.periods));
  doc.Set("tenants_per_tenancy", JsonValue::Number(config.tenants));
  doc.Set("slots_per_period", JsonValue::Number(config.slots));
  doc.Set("workers_per_node", JsonValue::Number(config.workers));
  doc.Set("repetitions", JsonValue::Number(kRepetitions));
  doc.Set("mechanism", JsonValue::Str("addon"));
  doc.Set("hardware_threads",
          JsonValue::Number(std::thread::hardware_concurrency()));
  doc.Set("sweep", std::move(sweep));

  std::ofstream out(out_path);
  out << doc.Dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
