// TCP transport suite. The load-bearing guarantees:
//
//  1. Transport parity — a recorded request stream replayed through (a)
//     MarketplaceServer::HandleLine, (b) the stdin serve loop (ServeLines
//     over a pipe), and (c) a NetClient -> NetServer round trip over
//     localhost TCP produces byte-identical response lines, over-cap lines
//     and oversized batch frames included. The cap wording, version echo
//     and error surface cannot diverge between transports because they are
//     one implementation (service/dispatch.h); this test pins that.
//
//  2. The 16-client soak: threaded NetClients each driving their own
//     tenancy through 3 full billing periods against one NetServer backed
//     by a FileStateStore, interleaved with mid-run disconnects and one
//     kill-and-recover cycle — every tenancy's PeriodReports bit-identical
//     to a single-client pipe (HandleLine) run of the same program.
//
//  3. Bounded backpressure: a reader that stops draining is cut off with a
//     typed ResourceExhausted and closed without ever blocking the event
//     loop or other connections.
#include "service/net_server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/dispatch.h"
#include "service/net_client.h"
#include "service/pricing_session.h"
#include "service/state_store.h"
#include "simdb/scenarios.h"

namespace optshare::service {
namespace {

using protocol::Request;
using protocol::RequestOp;
using protocol::Response;

std::vector<simdb::SimUser> JitterTenants(std::vector<simdb::SimUser> tenants,
                                          int slots, uint64_t seed) {
  Rng rng(seed);
  return simdb::JitterTenants(std::move(tenants), slots, rng);
}

/// Scratch dirs live under the working directory (the build tree when run
/// via ctest), so the suite never writes outside it.
std::string TempDir(const std::string& leaf) {
  return "optshare_net_test_scratch/" + leaf;
}

/// Runs the whole program directly through PricingSession — the reference
/// the networked replay must match bit for bit.
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

/// The wire lines of one period's program. `with_catalog` bootstraps the
/// tenancy (first-ever open_period).
std::vector<std::string> PeriodLines(
    const std::string& tenancy, const ServiceConfig& config,
    int scenario_tenants, int scenario_slots, bool with_catalog,
    const std::vector<simdb::SimUser>& tenants) {
  std::vector<std::string> lines;
  Request open;
  open.op = RequestOp::kOpenPeriod;
  open.tenancy = tenancy;
  if (with_catalog) {
    protocol::CatalogSpec catalog;
    catalog.scenario = "telemetry";
    catalog.scenario_tenants = scenario_tenants;
    catalog.scenario_slots = scenario_slots;
    open.catalog = catalog;
    open.config = config;
  }
  lines.push_back(protocol::ToJson(open).Dump());
  Request submit;
  submit.op = RequestOp::kSubmit;
  submit.tenancy = tenancy;
  submit.tenants = tenants;
  lines.push_back(protocol::ToJson(submit).Dump());
  Request advance;
  advance.op = RequestOp::kAdvanceSlot;
  advance.tenancy = tenancy;
  advance.slots = config.slots_per_period;
  lines.push_back(protocol::ToJson(advance).Dump());
  Request close;
  close.op = RequestOp::kClosePeriod;
  close.tenancy = tenancy;
  lines.push_back(protocol::ToJson(close).Dump());
  return lines;
}

/// Parses the close_period report out of a response line.
PeriodReport ReportFromLine(const std::string& line) {
  Result<JsonValue> doc = JsonValue::Parse(line);
  EXPECT_TRUE(doc.ok()) << line;
  Result<Response> response = protocol::ResponseFromJson(*doc);
  EXPECT_TRUE(response.ok()) << line;
  EXPECT_TRUE(response->ok()) << response->status.ToString();
  const JsonValue* report = response->payload.Find("report");
  EXPECT_NE(report, nullptr) << line;
  Result<PeriodReport> parsed = protocol::PeriodReportFromJson(*report);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

void ExpectBitIdentical(const PeriodReport& direct,
                        const PeriodReport& replayed) {
  // The JSON encoding round-trips doubles exactly, so string equality of
  // the dumps is bit-for-bit equality of payments, ledger and built set.
  EXPECT_EQ(protocol::ToJson(direct).Dump(), protocol::ToJson(replayed).Dump());
}

/// Starts a NetServer on an ephemeral loopback port.
std::unique_ptr<NetServer> StartNet(MarketplaceServer* server,
                                    NetServerOptions options = {}) {
  auto net = std::make_unique<NetServer>(server, std::move(options));
  Status started = net->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  EXPECT_GT(net->port(), 0);
  return net;
}

NetClient MustConnect(const NetServer& net) {
  Result<NetClient> client = NetClient::Connect("127.0.0.1", net.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

// -- 1. Transport parity ----------------------------------------------------

TEST(NetTransportParityTest, TcpAndStdinPathAndHandleLineAgreeByteForByte) {
  constexpr int kTenants = 5;
  constexpr int kSlots = 8;
  auto scenario = simdb::TelemetryScenario(kTenants, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  config.slots_per_period = kSlots;

  // A recorded stream interleaving two tenancies' periods with the error
  // surface: a parse error, an unsupported version, an unknown tenancy, a
  // v1 client using a v2 op, an unknown field, a line over the plain cap,
  // a line over even the framing cap, and a batch frame over the plain cap
  // (legal: batch frames get the larger cap) — every class a transport
  // must answer itself.
  std::vector<std::string> stream;
  const std::vector<simdb::SimUser> acme =
      JitterTenants(scenario->tenants, kSlots, 11);
  const std::vector<simdb::SimUser> globex =
      JitterTenants(scenario->tenants, kSlots, 22);
  const auto acme_lines =
      PeriodLines("acme", config, kTenants, kSlots, true, acme);
  const auto globex_lines =
      PeriodLines("globex", config, kTenants, kSlots, true, globex);
  for (size_t i = 0; i < acme_lines.size(); ++i) {
    stream.push_back(acme_lines[i]);
    stream.push_back(globex_lines[i]);
  }
  // The period lines fly fully pipelined; the trailing error surface +
  // final report go after an ack barrier. The snapshot-serving read path
  // promises read-your-writes only for ACKNOWLEDGED writes (see the
  // ordering note in MarketplaceServer::Dispatch), so an un-awaited
  // report pipelined behind close_period may legally serve the previous
  // period's view — not a transport divergence, and not what this test
  // pins.
  const size_t pipelined = stream.size();
  // The smallest plain cap every period line fits under, so the caps
  // below bite on purpose and nowhere else.
  size_t longest = 0;
  for (const std::string& line : stream) {
    longest = std::max(longest, line.size());
  }
  ServerOptions options;
  options.num_workers = 2;
  options.max_request_bytes = longest + 16;
  options.max_batch_request_bytes = 4 * options.max_request_bytes;
  std::string batch = R"({"v":3,"op":"batch","requests":[)";
  for (int i = 0; batch.size() <= options.max_request_bytes; ++i) {
    if (i > 0) batch += ",";
    batch += R"({"v":1,"op":"report","id":"b)" + std::to_string(i) +
             R"(","tenancy":")" + (i % 2 == 0 ? "acme" : "globex") +
             "\"}";
  }
  batch += "]}";
  ASSERT_LT(batch.size(), options.max_batch_request_bytes);

  stream.push_back("{this is not json");
  stream.push_back(R"({"v":4,"op":"list_mechanisms"})");
  stream.push_back(R"({"v":1,"op":"report","tenancy":"nobody"})");
  stream.push_back(R"({"v":1,"op":"server_info"})");
  stream.push_back(R"({"v":1,"op":"list_mechanisms","bogus_field":true})");
  stream.push_back(std::string(options.max_request_bytes + 1, 'x'));
  stream.push_back(std::string(options.max_batch_request_bytes + 1, 'y'));
  stream.push_back(batch);
  stream.push_back(R"({"v":1,"op":"report","tenancy":"acme"})");

  // (a) HandleLine, the synchronous reference.
  std::vector<std::string> via_handle_line;
  {
    MarketplaceServer server(options);
    for (const std::string& line : stream) {
      via_handle_line.push_back(server.HandleLine(line));
    }
  }

  // (b) The stdin serve loop, reading the stream from a pipe with every
  // request of a phase in flight together.
  std::vector<std::string> via_stdin;
  {
    MarketplaceServer server(options);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::mutex out_mu;
    std::condition_variable out_cv;
    std::thread serve([&] {
      ServeLines(&server, fds[0], [&](std::string_view line) {
        std::lock_guard<std::mutex> lock(out_mu);
        via_stdin.emplace_back(line);
        out_cv.notify_all();
      });
    });
    const auto write_lines = [&](size_t from, size_t to) {
      for (size_t i = from; i < to; ++i) {
        const std::string framed = stream[i] + "\n";
        for (size_t off = 0; off < framed.size();) {
          const ssize_t n =
              ::write(fds[1], framed.data() + off, framed.size() - off);
          ASSERT_GT(n, 0);
          off += static_cast<size_t>(n);
        }
      }
    };
    write_lines(0, pipelined);
    {
      std::unique_lock<std::mutex> lock(out_mu);
      out_cv.wait(lock, [&] { return via_stdin.size() == pipelined; });
    }
    write_lines(pipelined, stream.size());
    ::close(fds[1]);
    serve.join();
    ::close(fds[0]);
  }

  // (c) Pipelined over localhost TCP.
  std::vector<std::string> via_tcp;
  {
    MarketplaceServer server(options);
    auto net = StartNet(&server);
    NetClient client = MustConnect(*net);
    for (size_t i = 0; i < pipelined; ++i) {
      ASSERT_TRUE(client.SendLine(stream[i]).ok());
    }
    for (size_t i = 0; i < pipelined; ++i) {
      Result<std::string> response = client.ReadLine();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      via_tcp.push_back(std::move(*response));
    }
    // Acks drained — the writes are visible; the trailing reads follow.
    for (size_t i = pipelined; i < stream.size(); ++i) {
      ASSERT_TRUE(client.SendLine(stream[i]).ok());
    }
    for (size_t i = pipelined; i < stream.size(); ++i) {
      Result<std::string> response = client.ReadLine();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      via_tcp.push_back(std::move(*response));
    }
  }

  ASSERT_EQ(via_handle_line.size(), stream.size());
  ASSERT_EQ(via_stdin.size(), stream.size());
  ASSERT_EQ(via_tcp.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(via_handle_line[i], via_stdin[i]) << "request " << i;
    EXPECT_EQ(via_handle_line[i], via_tcp[i]) << "request " << i;
  }
  // Both over-cap lines answer the one plain-cap rejection; the batch
  // frame over the plain cap is served.
  const std::string oversized =
      OversizedLineResponse(options.max_request_bytes);
  EXPECT_EQ(via_handle_line[pipelined + 5], oversized);
  EXPECT_EQ(via_handle_line[pipelined + 6], oversized);
  EXPECT_NE(via_handle_line[pipelined + 7].find("\"responses\""),
            std::string::npos)
      << via_handle_line[pipelined + 7];
  // And the stream did real pricing: both close_periods carried reports.
  ExpectBitIdentical(ReportFromLine(via_handle_line[6]),
                     ReportFromLine(via_tcp[6]));
}

// -- 2. The 16-client soak --------------------------------------------------

/// One client's period over TCP: four round trips, returning the close
/// response line.
std::string RunPeriodOverTcp(NetClient& client, const std::string& tenancy,
                             const ServiceConfig& config, int scenario_tenants,
                             bool with_catalog,
                             const std::vector<simdb::SimUser>& tenants) {
  std::string close_line;
  for (const std::string& line :
       PeriodLines(tenancy, config, scenario_tenants,
                   config.slots_per_period, with_catalog, tenants)) {
    Result<std::string> response = client.Call(line);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return "";
    close_line = std::move(*response);
  }
  return close_line;
}

/// A client that connects, stirs up partial traffic on a throwaway
/// tenancy, and vanishes mid-stream — the disconnect chaos the soak
/// interleaves with real clients.
void RunFlakyClient(uint16_t port, const std::string& tenancy,
                    const ServiceConfig& config, int scenario_tenants,
                    const std::vector<simdb::SimUser>& tenants) {
  Result<NetClient> client = NetClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto lines = PeriodLines(tenancy, config, scenario_tenants,
                                 config.slots_per_period, true, tenants);
  // Send the open and the submit, read only one response, then vanish with
  // the advance_slot response undelivered and the period still open.
  ASSERT_TRUE(client->SendLine(lines[0]).ok());
  ASSERT_TRUE(client->SendLine(lines[1]).ok());
  Result<std::string> first = client->ReadLine();
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(client->SendLine(lines[2]).ok());
  client->Close();
}

TEST(NetSoakTest, SixteenClientsThreePeriodsWithDisconnectsAndCrashRecover) {
  constexpr int kClients = 16;
  constexpr int kPeriods = 3;
  constexpr int kTenants = 4;
  constexpr int kSlots = 8;
  auto scenario = simdb::TelemetryScenario(kTenants, kSlots);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  config.slots_per_period = kSlots;
  const std::string dir = TempDir("soak");

  // Per-client tenant draws for every period, and the single-client
  // reference reports they must match bit for bit.
  std::vector<std::vector<std::vector<simdb::SimUser>>> programs;
  std::vector<std::vector<PeriodReport>> direct;
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::vector<simdb::SimUser>> periods;
    for (int p = 0; p < kPeriods; ++p) {
      periods.push_back(JitterTenants(
          scenario->tenants, kSlots,
          9000 + static_cast<uint64_t>(100 * c + p)));
    }
    direct.push_back(DirectReports(scenario->catalog, config, periods));
    programs.push_back(std::move(periods));
  }

  const auto tenancy_name = [](int c) {
    return "soak-" + std::to_string(c);
  };
  std::vector<std::vector<std::string>> close_lines(kClients);

  // Runs one soak phase: every client executes periods [first, last) on
  // its own connection and thread, with flaky disconnecting clients
  // interleaved throughout.
  const auto run_phase = [&](const NetServer& net, int first, int last,
                             int flaky_seed) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        NetClient client = MustConnect(net);
        for (int p = first; p < last; ++p) {
          const std::string line = RunPeriodOverTcp(
              client, tenancy_name(c), config, kTenants,
              /*with_catalog=*/p == 0,
              programs[static_cast<size_t>(c)][static_cast<size_t>(p)]);
          close_lines[static_cast<size_t>(c)].push_back(line);
        }
      });
    }
    for (int f = 0; f < 4; ++f) {
      threads.emplace_back([&, f] {
        RunFlakyClient(net.port(),
                       "flaky-" + std::to_string(flaky_seed) + "-" +
                           std::to_string(f),
                       config, kTenants,
                       JitterTenants(scenario->tenants, kSlots,
                                     static_cast<uint64_t>(777 + f)));
      });
    }
    for (std::thread& thread : threads) thread.join();
  };

  // Phase 1: period 1 for everyone, then kill the process state without
  // Shutdown — destructors drain in-flight work but checkpoint nothing,
  // exactly a crash after the last acknowledged response.
  {
    auto store = FileStateStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ServerOptions options;
    options.num_workers = 4;
    options.store = std::move(*store);
    auto server = std::make_unique<MarketplaceServer>(std::move(options));
    auto net = StartNet(server.get());
    run_phase(*net, 0, 1, 1);
    net->Stop();
    net.reset();
    server.reset();  // No Shutdown(): the kill.
  }

  // Phase 2: recover from the data dir and run periods 2 and 3. Carried
  // built-structure sets must survive the crash for the reports to match.
  {
    auto store = FileStateStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ServerOptions options;
    options.num_workers = 4;
    options.store = std::move(*store);
    MarketplaceServer server(std::move(options));
    Result<RecoveryStats> recovered = server.Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // All 16 soak tenancies plus the flaky ones' journaled open periods.
    EXPECT_GE(recovered->tenancies_recovered, kClients);
    auto net = StartNet(&server);
    run_phase(*net, 1, kPeriods, 2);
    net->Stop();
  }

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(close_lines[static_cast<size_t>(c)].size(),
              static_cast<size_t>(kPeriods));
    ASSERT_EQ(direct[static_cast<size_t>(c)].size(),
              static_cast<size_t>(kPeriods));
    for (int p = 0; p < kPeriods; ++p) {
      SCOPED_TRACE("client " + std::to_string(c) + " period " +
                   std::to_string(p + 1));
      ExpectBitIdentical(
          direct[static_cast<size_t>(c)][static_cast<size_t>(p)],
          ReportFromLine(
              close_lines[static_cast<size_t>(c)][static_cast<size_t>(p)]));
    }
  }
}

// -- 3. Backpressure and robustness ----------------------------------------

TEST(NetBackpressureTest, SlowReaderIsCutOffWithoutBlockingOthers) {
  MarketplaceServer server(ServerOptions{2});
  NetServerOptions options;
  options.max_write_buffer_bytes = 16 * 1024;
  options.sndbuf_bytes = 8 * 1024;  // Trip the app-level cap quickly.
  auto net = StartNet(&server, options);

  // The slow reader: fires requests and never reads. Eventually the kernel
  // send buffer fills, responses pile up in the server's write buffer past
  // the cap, and the connection is condemned.
  NetClient slow = MustConnect(*net);
  const std::string request = R"({"v":1,"op":"list_mechanisms"})";
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(slow.SendLine(request).ok());
  }

  // Meanwhile a well-behaved client gets prompt service throughout.
  NetClient good = MustConnect(*net);
  for (int i = 0; i < 50; ++i) {
    Result<std::string> response = good.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  }

  // The drop must be observable in the transport counters.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (net->stats().connections_dropped_backpressure == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(net->stats().connections_dropped_backpressure, 1u);

  // Now drain: the slow client gets the queued (bounded) responses, then
  // the typed ResourceExhausted verdict, then EOF.
  std::string last_line;
  size_t lines_read = 0;
  for (;;) {
    Result<std::string> line = slow.ReadLine();
    if (!line.ok()) break;  // EOF: the server closed us.
    last_line = std::move(*line);
    ++lines_read;
  }
  ASSERT_GT(lines_read, 0u);
  // Far fewer than 4000: the buffer cap bounded what was ever queued.
  EXPECT_LT(lines_read, 2000u);
  EXPECT_NE(last_line.find("ResourceExhausted"), std::string::npos)
      << last_line;
  EXPECT_NE(last_line.find("reader too slow"), std::string::npos)
      << last_line;
}

TEST(NetServerTest, OversizeLineAnswersTypedErrorAndFramingSurvives) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_request_bytes = 256;
  MarketplaceServer server(std::move(options));
  auto net = StartNet(&server);
  NetClient client = MustConnect(*net);

  const std::string oversize(1000, 'x');
  ASSERT_TRUE(client.SendLine(oversize).ok());
  ASSERT_TRUE(client.SendLine(R"({"v":1,"op":"list_mechanisms"})").ok());

  Result<std::string> first = client.ReadLine();
  ASSERT_TRUE(first.ok());
  EXPECT_NE(first->find("ResourceExhausted"), std::string::npos) << *first;
  EXPECT_NE(first->find("--max-request-bytes"), std::string::npos) << *first;
  Result<std::string> second = client.ReadLine();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->find("\"ok\":true"), std::string::npos) << *second;
}

TEST(NetServerTest, HalfCloseDrainsEveryPipelinedResponse) {
  MarketplaceServer server(ServerOptions{2});
  auto net = StartNet(&server);
  NetClient client = MustConnect(*net);

  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.op = RequestOp::kListMechanisms;
    request.id = "req-" + std::to_string(i);
    ASSERT_TRUE(client.SendLine(protocol::ToJson(request).Dump()).ok());
  }
  ASSERT_TRUE(client.FinishSending().ok());

  // All responses arrive, in request order, then EOF.
  for (int i = 0; i < kRequests; ++i) {
    Result<std::string> line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_NE(line->find("\"id\":\"req-" + std::to_string(i) + "\""),
              std::string::npos)
        << *line;
  }
  EXPECT_FALSE(client.ReadLine().ok());
}

TEST(NetServerTest, ServerInfoCarriesTransportCountersWhileRunning) {
  MarketplaceServer server(ServerOptions{1});
  auto net = StartNet(&server);
  NetClient client = MustConnect(*net);

  Request info;
  info.op = RequestOp::kServerInfo;
  info.version = 2;
  Result<Response> response = client.Call(info);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->status.ToString();
  const JsonValue* transport = response->payload.Find("transport");
  ASSERT_NE(transport, nullptr);
  EXPECT_GE(transport->Find("connections_open")->AsNumber(), 1.0);
  EXPECT_GE(transport->Find("connections_accepted")->AsNumber(), 1.0);
  EXPECT_GE(transport->Find("requests")->AsNumber(), 1.0);

  // Once the transport stops, server_info loses the section (and must not
  // touch freed NetServer state).
  client.Close();
  net->Stop();
  Request again;
  again.op = RequestOp::kServerInfo;
  again.version = 2;
  Response direct = server.Handle(std::move(again));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.payload.Find("transport"), nullptr);
}

TEST(NetServerTest, WireShutdownDrainsAndStateSurvivesToRecovery) {
  const std::string dir = TempDir("wire_shutdown");
  auto scenario = simdb::TelemetryScenario(4, 8);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  config.slots_per_period = 8;

  {
    auto store = FileStateStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ServerOptions options;
    options.num_workers = 2;
    options.store = std::move(*store);
    MarketplaceServer server(std::move(options));
    auto net = StartNet(&server);

    NetClient client = MustConnect(*net);
    const std::string close_line = RunPeriodOverTcp(
        client, "durable", config, 4, /*with_catalog=*/true,
        JitterTenants(scenario->tenants, 8, 42));
    ASSERT_FALSE(close_line.empty());

    Request shutdown;
    shutdown.op = RequestOp::kShutdown;
    shutdown.version = 2;
    Result<Response> acked = client.Call(shutdown);
    ASSERT_TRUE(acked.ok()) << acked.status().ToString();
    EXPECT_TRUE(acked->ok());
    net->Wait();  // Returns once every connection drained.
    ASSERT_TRUE(server.Shutdown().ok());
    // The drained server closed us.
    EXPECT_FALSE(client.Call(std::string(
                                 R"({"v":1,"op":"list_mechanisms"})"))
                     .ok());
  }

  // A fresh process over the same dir sees the period.
  auto store = FileStateStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.num_workers = 1;
  options.store = std::move(*store);
  MarketplaceServer server(std::move(options));
  Result<RecoveryStats> recovered = server.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->tenancies_recovered, 1);
  Request report;
  report.op = RequestOp::kReport;
  report.tenancy = "durable";
  Response response = server.Handle(std::move(report));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.payload.Find("periods_run")->AsNumber(), 1.0);
}

// -- Protocol v3: batch frames over the wire --------------------------------

/// The members a mixed batch exercises: mutations, reads, duplicate ids,
/// mixed protocol versions, and one member that errors (unknown tenant).
std::vector<Request> MixedBatchMembers(const std::string& tenancy,
                                       const std::vector<simdb::SimUser>& t) {
  std::vector<Request> members;
  Request submit;
  submit.op = RequestOp::kSubmit;
  submit.tenancy = tenancy;
  submit.id = "m0";
  submit.tenants = t;
  members.push_back(submit);
  Request advance;
  advance.op = RequestOp::kAdvanceSlot;
  advance.tenancy = tenancy;
  advance.id = "m1";
  advance.slots = 2;
  members.push_back(advance);
  Request report;
  report.op = RequestOp::kReport;
  report.tenancy = tenancy;
  report.id = "m1";  // Duplicate id: answered positionally, both echoed.
  members.push_back(report);
  Request depart;
  depart.op = RequestOp::kDepart;
  depart.tenancy = tenancy;
  depart.id = "m3";
  depart.tenant = 9999;  // No such tenant: a typed error member.
  members.push_back(depart);
  Request list;
  list.op = RequestOp::kListMechanisms;
  list.version = 1;  // Mixed-version member rides in a v3 frame.
  list.id = "m4";
  members.push_back(list);
  return members;
}

TEST(NetBatchTest, WireBatchMatchesSequentialSendsByteForByte) {
  auto scenario = simdb::TelemetryScenario(4, 8);
  ASSERT_TRUE(scenario.ok());
  const std::vector<simdb::SimUser> tenants =
      JitterTenants(scenario->tenants, 8, 7);
  const auto open_tenancy = [&](NetClient& client, const std::string& name) {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = name;
    protocol::CatalogSpec catalog;
    catalog.scenario = "telemetry";
    catalog.scenario_tenants = 4;
    catalog.scenario_slots = 8;
    open.catalog = catalog;
    Result<Response> opened = client.Call(open);
    ASSERT_TRUE(opened.ok() && opened->ok());
  };

  // Server A: the members one at a time, recording each wire line.
  MarketplaceServer sequential_server(ServerOptions{2});
  auto sequential_net = StartNet(&sequential_server);
  NetClient sequential_client = MustConnect(*sequential_net);
  open_tenancy(sequential_client, "t");
  std::vector<std::string> expected;
  for (const Request& member : MixedBatchMembers("t", tenants)) {
    Result<std::string> line =
        sequential_client.Call(protocol::ToJson(member).Dump());
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    expected.push_back(*line);
  }

  // Server B: the same members as one v3 batch frame.
  MarketplaceServer batch_server(ServerOptions{2});
  auto batch_net = StartNet(&batch_server);
  NetClient batch_client = MustConnect(*batch_net);
  open_tenancy(batch_client, "t");
  Request batch;
  batch.op = RequestOp::kBatch;
  batch.version = 3;
  batch.id = "frame";
  batch.requests = MixedBatchMembers("t", tenants);
  Result<Response> response = batch_client.Call(batch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->status.ToString();
  EXPECT_EQ(response->id, "frame");
  const JsonValue* docs = response->payload.Find("responses");
  ASSERT_NE(docs, nullptr);
  ASSERT_EQ(docs->AsArray().size(), expected.size());

  // Ordered and byte-identical: member i's document is exactly the line
  // the sequential server answered for request i (both normalized through
  // one parse->dump so the comparison is of documents, not whitespace).
  for (size_t i = 0; i < expected.size(); ++i) {
    Result<JsonValue> sequential_doc = JsonValue::Parse(expected[i]);
    ASSERT_TRUE(sequential_doc.ok());
    EXPECT_EQ(docs->AsArray()[i].Dump(), sequential_doc->Dump())
        << "member " << i << " diverged";
  }
  // The error member answered in place without poisoning its neighbors.
  EXPECT_EQ(*docs->AsArray()[3].Find("ok"), JsonValue::Bool(false));
  EXPECT_EQ(*docs->AsArray()[4].Find("ok"), JsonValue::Bool(true));
}

TEST(NetBatchTest, HandleLineAndTypedHandleAgreeOnBatchFrames) {
  // The wire path splices pre-serialized member responses
  // (Response::raw_payload); the typed path builds the JsonValue tree.
  // Same read-only members against the same server must serialize
  // identically through both.
  MarketplaceServer server(ServerOptions{2});
  {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = "t";
    protocol::CatalogSpec catalog;
    catalog.scenario = "telemetry";
    catalog.scenario_tenants = 3;
    catalog.scenario_slots = 6;
    open.catalog = catalog;
    ASSERT_TRUE(server.Handle(std::move(open)).ok());
  }
  Request batch;
  batch.op = RequestOp::kBatch;
  batch.version = 3;
  batch.id = "b";
  for (int i = 0; i < 3; ++i) {
    Request report;
    report.op = RequestOp::kReport;
    report.tenancy = "t";
    report.id = "r" + std::to_string(i);
    batch.requests.push_back(report);
    Request list;
    list.op = RequestOp::kListMechanisms;
    list.id = "l" + std::to_string(i);
    batch.requests.push_back(list);
  }
  const std::string wire_line =
      server.HandleLine(protocol::ToJson(batch).Dump());
  const Response typed = server.Handle(batch);
  EXPECT_EQ(wire_line, protocol::FormatResponseLine(typed));
  EXPECT_EQ(wire_line, protocol::ToJson(typed).Dump());
}

TEST(NetBatchTest, LegalBatchFramesPassTheLineCapUntruncated) {
  // Regression: the transport line cap once applied the plain request cap
  // to every line, so a legal v3 batch frame bigger than one request's
  // budget was cut off mid-frame. Batch frames must pass under the batch
  // cap; an equally big non-batch line still answers the plain-cap error.
  ServerOptions options;
  options.num_workers = 2;
  options.max_request_bytes = 512;
  options.max_batch_request_bytes = 64 * 1024;
  MarketplaceServer server(std::move(options));
  auto net = StartNet(&server);
  NetClient client = MustConnect(*net);
  {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = "t";
    protocol::CatalogSpec catalog;
    catalog.scenario = "telemetry";
    catalog.scenario_tenants = 3;
    catalog.scenario_slots = 6;
    open.catalog = catalog;
    Result<Response> opened = client.Call(open);
    ASSERT_TRUE(opened.ok() && opened->ok());
  }

  // A batch frame well over the 512-byte plain cap but under the batch cap.
  Request batch;
  batch.op = RequestOp::kBatch;
  batch.version = 3;
  for (int i = 0; i < 40; ++i) {
    Request report;
    report.op = RequestOp::kReport;
    report.tenancy = "t";
    report.id = "member-" + std::to_string(i);
    batch.requests.push_back(report);
  }
  const std::string frame = protocol::ToJson(batch).Dump();
  ASSERT_GT(frame.size(), size_t{512});
  {
    Result<std::string> line = client.Call(frame);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
    EXPECT_NE(line->find("member-39"), std::string::npos)
        << "batch frame truncated: " << *line;
  }

  // The same bytes minus batch-ness: over-cap, typed rejection.
  std::string oversized = R"({"v":1,"op":"report","tenancy":"t")";
  oversized += ",\"id\":\"" + std::string(600, 'x') + "\"}";
  Result<std::string> rejected = client.Call(oversized);
  ASSERT_TRUE(rejected.ok());
  EXPECT_NE(rejected->find("ResourceExhausted"), std::string::npos)
      << *rejected;

  // Framing intact afterwards: a canary answers normally.
  Result<std::string> canary =
      client.Call(std::string(R"({"v":1,"op":"list_mechanisms","id":"c"})"));
  ASSERT_TRUE(canary.ok());
  EXPECT_NE(canary->find("\"id\":\"c\""), std::string::npos);
  EXPECT_NE(canary->find("\"ok\":true"), std::string::npos);
}

// -- Protocol v3: admission control under load ------------------------------

TEST(AdmissionSoakTest, QuotaBreachingTenantCannotStarveACompliantOne) {
  // One tenancy hammers mutating ops far over its token-bucket quota; a
  // compliant tenancy paces itself under the rate. Per-tenancy buckets
  // mean the breacher's rejections are its own: the compliant tenant must
  // see zero ResourceExhausted, while the breacher sees plenty, each with
  // a usable retry_after_ms hint.
  ServerOptions options;
  options.num_workers = 2;
  options.admission.mutating_ops_per_sec = 200.0;
  options.admission.burst = 20.0;
  MarketplaceServer server(std::move(options));
  auto net = StartNet(&server);

  const auto open_tenancy = [&](NetClient& client, const std::string& name) {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = name;
    protocol::CatalogSpec catalog;
    catalog.scenario = "telemetry";
    catalog.scenario_tenants = 3;
    catalog.scenario_slots = 6;
    open.catalog = catalog;
    Result<Response> opened = client.Call(open);
    ASSERT_TRUE(opened.ok() && opened->ok());
  };

  std::atomic<int> breacher_rejected{0};
  std::atomic<int> breacher_bad_hint{0};
  std::atomic<int> compliant_rejected{0};
  std::atomic<int> compliant_failed{0};

  std::thread breacher([&] {
    NetClient client = MustConnect(*net);
    open_tenancy(client, "greedy");
    Request advance;
    advance.op = RequestOp::kAdvanceSlot;
    advance.tenancy = "greedy";
    for (int i = 0; i < 600; ++i) {
      Result<Response> response = client.Call(advance);
      if (!response.ok()) return;
      if (!response->ok()) {
        if (response->status.code() == StatusCode::kResourceExhausted) {
          breacher_rejected.fetch_add(1);
          if (response->retry_after_ms <= 0) breacher_bad_hint.fetch_add(1);
        }
      }
    }
  });
  std::thread compliant([&] {
    NetClient client = MustConnect(*net);
    open_tenancy(client, "polite");
    Request advance;
    advance.op = RequestOp::kAdvanceSlot;
    advance.tenancy = "polite";
    // 15 ops with 20 of burst: never over quota, whatever the pacing. A
    // session-level error (advancing past the period's end) still proves
    // the request was served; only a transport failure or a quota
    // rejection would mean the breacher starved us.
    for (int i = 0; i < 15; ++i) {
      Result<Response> response = client.Call(advance);
      if (!response.ok()) {
        compliant_failed.fetch_add(1);
      } else if (!response->ok() &&
                 response->status.code() == StatusCode::kResourceExhausted) {
        compliant_rejected.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  breacher.join();
  compliant.join();

  // 600 mutations against burst 20 + 200/s cannot all be admitted in the
  // seconds this takes; the compliant tenant must be untouched.
  EXPECT_GT(breacher_rejected.load(), 0);
  EXPECT_EQ(breacher_bad_hint.load(), 0);
  EXPECT_EQ(compliant_rejected.load(), 0);
  EXPECT_EQ(compliant_failed.load(), 0);

  // The rejections surface on the metrics plane.
  Request info;
  info.op = RequestOp::kServerInfo;
  info.version = 2;
  Response response = server.Handle(std::move(info));
  ASSERT_TRUE(response.ok());
  const JsonValue* metrics = response.payload.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* admission = metrics->Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_GT(admission->Find("rejected")->AsNumber(), 0.0);
}

}  // namespace
}  // namespace optshare::service
