// Protocol fuzz battery: seeded-random mutation of valid wire request
// lines fed to the server — directly through HandleLine (the parser and
// dispatch surface) and over real localhost TCP through the NetServer
// event loop with torn, merged and corrupted frames. The invariant under
// fuzz is narrow and absolute:
//
//   - the server never crashes, and
//   - every request line is answered by exactly one well-formed response
//     line (a typed error for garbage), and
//   - framing never desyncs: after any batch of hostile input, a valid
//     canary request with a unique id still gets its own correct response.
//
// Mutations cover the classes ISSUE 5 names: truncation, byte flips,
// field drops and duplications, oversized lines, and frames split or
// merged across TCP reads. Seeds are fixed, so a failure replays
// deterministically. The suite runs under ASan/TSan in CI (the `net` job
// and the sanitizer jobs pick it up by glob/regex).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/marketplace_server.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/protocol.h"
#include "simdb/scenarios.h"
#include "support/request_oracle.h"

namespace optshare::service {
namespace {

using protocol::Request;
using protocol::RequestOp;
using protocol::Response;

/// A corpus of valid request lines covering every op and both schema
/// versions — the seeds the mutators start from.
std::vector<std::string> BuildCorpus() {
  auto scenario = simdb::TelemetryScenario(3, 6);
  EXPECT_TRUE(scenario.ok());
  Rng rng(1234);
  const std::vector<simdb::SimUser> tenants =
      simdb::JitterTenants(scenario->tenants, 6, rng);

  std::vector<std::string> corpus;
  Request open;
  open.op = RequestOp::kOpenPeriod;
  open.tenancy = "fuzz";
  protocol::CatalogSpec catalog;
  catalog.scenario = "telemetry";
  catalog.scenario_tenants = 3;
  catalog.scenario_slots = 6;
  open.catalog = catalog;
  ServiceConfig config;
  config.slots_per_period = 6;
  open.config = config;
  corpus.push_back(protocol::ToJson(open).Dump());

  Request submit;
  submit.op = RequestOp::kSubmit;
  submit.tenancy = "fuzz";
  submit.tenants = tenants;
  corpus.push_back(protocol::ToJson(submit).Dump());

  Request depart;
  depart.op = RequestOp::kDepart;
  depart.tenancy = "fuzz";
  depart.tenant = 1;
  corpus.push_back(protocol::ToJson(depart).Dump());

  Request advance;
  advance.op = RequestOp::kAdvanceSlot;
  advance.tenancy = "fuzz";
  advance.slots = 2;
  corpus.push_back(protocol::ToJson(advance).Dump());

  Request close;
  close.op = RequestOp::kClosePeriod;
  close.tenancy = "fuzz";
  corpus.push_back(protocol::ToJson(close).Dump());

  Request report;
  report.op = RequestOp::kReport;
  report.tenancy = "fuzz";
  report.id = "rep";
  corpus.push_back(protocol::ToJson(report).Dump());

  Request list;
  list.op = RequestOp::kListMechanisms;
  corpus.push_back(protocol::ToJson(list).Dump());

  for (RequestOp op : {RequestOp::kSnapshot, RequestOp::kRestore,
                       RequestOp::kShutdown, RequestOp::kServerInfo}) {
    Request v2;
    v2.op = op;
    v2.version = 2;
    if (protocol::OpTakesTenancy(op)) v2.tenancy = "fuzz";
    // NOTE: the shutdown line stays in the corpus deliberately — mutated
    // forms must parse-fail or be handled; the TCP fuzz filters out exact
    // accepted shutdowns so the server stays up (tested separately).
    corpus.push_back(protocol::ToJson(v2).Dump());
  }

  // v3 batch frames: mixed-version members, duplicate ids, two tenancies
  // in one frame. These seed every mutator AND pin the codec's
  // batch path against the tree oracle in the differential battery.
  {
    Request batch;
    batch.op = RequestOp::kBatch;
    batch.version = 3;
    batch.id = "dup";
    Request member = depart;
    member.id = "dup";  // Duplicate of the envelope's AND its sibling's id.
    batch.requests.push_back(member);
    member.version = 1;  // Mixed-version member.
    batch.requests.push_back(member);
    Request other = advance;
    other.tenancy = "fuzz-2";  // Second tenancy in the same frame.
    other.id = "dup";
    batch.requests.push_back(other);
    batch.requests.push_back(report);
    corpus.push_back(protocol::ToJson(batch).Dump());
  }
  {
    Request batch;
    batch.op = RequestOp::kBatch;
    batch.version = 3;
    batch.requests.push_back(submit);
    batch.requests.push_back(advance);
    corpus.push_back(protocol::ToJson(batch).Dump());
  }
  return corpus;
}

/// One seeded mutation of `line`: the ISSUE 5 classes plus raw noise.
std::string Mutate(const std::string& line, Rng& rng) {
  std::string out = line;
  switch (rng.UniformInt(0, 6)) {
    case 0: {  // Truncation.
      if (!out.empty()) {
        out.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(out.size()) - 1)));
      }
      break;
    }
    case 1: {  // Byte flips.
      const int flips = static_cast<int>(rng.UniformInt(1, 8));
      for (int f = 0; f < flips && !out.empty(); ++f) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(out.size()) - 1));
        char byte = static_cast<char>(rng.UniformInt(1, 255));
        if (byte == '\n') byte = '?';  // Stay one frame.
        out[at] = byte;
      }
      break;
    }
    case 2: {  // Field drop: cut from one '"' to the next ','/'}'.
      const size_t start = out.find('"', static_cast<size_t>(rng.UniformInt(
                                             0, static_cast<int64_t>(
                                                    out.size()))));
      if (start != std::string::npos) {
        const size_t end = out.find_first_of(",}", start);
        if (end != std::string::npos) out.erase(start, end - start);
      }
      break;
    }
    case 3: {  // Field duplication: re-insert a key/value slice.
      const size_t comma = out.find(',');
      const size_t brace = out.find('{');
      if (comma != std::string::npos && brace != std::string::npos &&
          brace + 1 < comma) {
        out.insert(comma, "," + out.substr(brace + 1, comma - brace - 1));
      }
      break;
    }
    case 4: {  // Splice two corpus-shaped halves (merged documents).
      out += out.substr(out.size() / 2);
      break;
    }
    case 5: {  // Whitespace / control-character injection.
      const int count = static_cast<int>(rng.UniformInt(1, 5));
      for (int c = 0; c < count; ++c) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(out.size())));
        const char* junk[] = {" ", "\t", "\r", "\x01", "{", "}", "\""};
        out.insert(at, junk[rng.UniformInt(0, 6)]);
      }
      break;
    }
    default: {  // Pure noise line.
      const size_t len = static_cast<size_t>(rng.UniformInt(0, 200));
      out.clear();
      for (size_t c = 0; c < len; ++c) {
        char byte = static_cast<char>(rng.UniformInt(1, 255));
        if (byte == '\n') byte = '.';
        out.push_back(byte);
      }
      break;
    }
  }
  return out;
}

/// True when the line would be accepted as a live shutdown request (which
/// would intentionally stop the server mid-fuzz).
bool IsAcceptedShutdown(const std::string& line) {
  Result<Request> parsed = protocol::ParseRequestLine(line);
  return parsed.ok() && parsed->op == RequestOp::kShutdown;
}

// -- Parser / dispatch surface ----------------------------------------------

TEST(ProtocolFuzzTest, HandleLineAnswersOneWellFormedResponsePerMutation) {
  const std::vector<std::string> corpus = BuildCorpus();
  MarketplaceServer server(ServerOptions{2});
  Rng rng(20260730);
  int errors = 0;
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations; ++i) {
    std::string line = corpus[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(corpus.size()) - 1))];
    line = Mutate(line, rng);
    if (rng.Bernoulli(0.3)) line = Mutate(line, rng);  // Stacked damage.
    if (IsAcceptedShutdown(line)) continue;

    const std::string response_line = server.HandleLine(line);
    // Exactly one well-formed, protocol-typed response per line, garbage
    // or not.
    Result<JsonValue> doc = JsonValue::Parse(response_line);
    ASSERT_TRUE(doc.ok()) << "unparseable response for input: " << line;
    Result<Response> response = protocol::ResponseFromJson(*doc);
    ASSERT_TRUE(response.ok()) << "untyped response for input: " << line;
    if (!response->ok()) ++errors;
  }
  // Sanity: the mutator really was hostile — the vast majority of mutated
  // lines must have been rejected with typed errors.
  EXPECT_GT(errors, kIterations / 2);
}

// Differential battery for the request codec (protocol::ParseRequestLine)
// against the JsonValue-tree oracle (tests/support/request_oracle.h):
// every mutated line must get the same ok-ness, the same status text and,
// when accepted, a byte-identical re-serialized Request from both.
TEST(ProtocolFuzzTest, CodecAndOracleAgreeByteForByteUnderMutation) {
  const std::vector<std::string> corpus = BuildCorpus();
  Rng rng(5150);
  int accepted = 0;
  constexpr int kIterations = 30000;
  for (int i = 0; i < kIterations; ++i) {
    std::string line = corpus[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(corpus.size()) - 1))];
    // Leave some lines unmutated so acceptance is exercised too.
    if (rng.Bernoulli(0.9)) line = Mutate(line, rng);
    if (rng.Bernoulli(0.3)) line = Mutate(line, rng);

    const Result<Request> oracle = protocol::ParseRequestLineTree(line);
    const Result<Request> codec = protocol::ParseRequestLine(line);
    ASSERT_EQ(codec.ok(), oracle.ok()) << line;
    if (!codec.ok()) {
      ASSERT_EQ(codec.status().ToString(), oracle.status().ToString())
          << "rejection text diverged on: " << line;
    } else {
      ++accepted;
      ASSERT_EQ(protocol::ToJson(*codec).Dump(),
                protocol::ToJson(*oracle).Dump())
          << line;
    }
  }
  // Unmutated serving lines (submit/depart/advance/...) all parse, and
  // some mutations keep lines valid.
  EXPECT_GT(accepted, 500);
}

TEST(ProtocolFuzzTest, OversizedLinesAreRejectedUnparsed) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_request_bytes = 512;
  MarketplaceServer server(std::move(options));
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const size_t len =
        static_cast<size_t>(rng.UniformInt(513, 64 * 1024));
    std::string line(len, 'a' + static_cast<char>(i % 26));
    const std::string response = server.HandleLine(line);
    EXPECT_NE(response.find("ResourceExhausted"), std::string::npos)
        << response;
  }
  // Well-formed documents over the cap too: valid requests with a long
  // field, and the same with a schema error the parser would name — the
  // cap answers first either way.
  for (int i = 0; i < 200; ++i) {
    const size_t len =
        static_cast<size_t>(rng.UniformInt(513, 64 * 1024));
    std::string line;
    switch (i % 4) {
      case 0:
        line = R"({"v":1,"op":"report","tenancy":")" + std::string(len, 't') +
               R"("})";
        break;
      case 1:
        line = R"({"v":1,"op":"advance_slot","tenancy":"a","x":[)";
        while (line.size() < len) line += "1,";
        line += "1]}";
        break;
      case 2:
        line = R"({"v":2,"op":"query_price","tenancy":"a","tenants":[)";
        while (line.size() < len) {
          line += R"({"start":1,"end":2,"executions_per_slot":1,)"
                  R"("workload":[]},)";
        }
        line += R"({"start":1,"end":2,"executions_per_slot":1,)"
                R"("workload":[]}]})";
        break;
      default:
        line = R"({"v":1,"op":"list_mechanisms","id":")" +
               std::string(len, 'i') + R"("})";
        break;
    }
    ASSERT_TRUE(protocol::ParseRequestLine(line).ok() || i % 4 == 1)
        << line.substr(0, 80);
    const std::string response = server.HandleLine(line);
    EXPECT_NE(response.find("ResourceExhausted"), std::string::npos)
        << response;
  }
  // A regular request still works afterwards.
  const std::string ok =
      server.HandleLine(R"({"v":1,"op":"list_mechanisms"})");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
}

// -- Real TCP: torn, merged, corrupted frames -------------------------------

/// Sends `payload` in random-sized chunks (1 byte .. whole thing) so lines
/// split and merge across the server's reads.
void SendChunked(NetClient& client, const std::string& payload, Rng& rng) {
  size_t sent = 0;
  while (sent < payload.size()) {
    const size_t n = std::min(
        payload.size() - sent,
        static_cast<size_t>(rng.UniformInt(
            1, std::max<int64_t>(1, static_cast<int64_t>(payload.size()) /
                                        3))));
    ASSERT_TRUE(client.SendRaw(payload.substr(sent, n)).ok());
    sent += n;
  }
}

TEST(ProtocolFuzzTest, TcpFramingSurvivesMutatedAndTornStreams) {
  const std::vector<std::string> corpus = BuildCorpus();
  ServerOptions options;
  options.num_workers = 2;
  options.max_request_bytes = 16 * 1024;  // Oversized lines in easy reach.
  MarketplaceServer server(std::move(options));
  NetServer net(&server, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  Rng rng(424242);
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    Result<NetClient> client = NetClient::Connect("127.0.0.1", net.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    // A batch of hostile lines...
    std::string payload;
    int lines_sent = 0;
    const int batch = static_cast<int>(rng.UniformInt(1, 30));
    for (int b = 0; b < batch; ++b) {
      std::string line = corpus[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(corpus.size()) - 1))];
      line = Mutate(line, rng);
      if (rng.Bernoulli(0.2)) {
        // An over-cap line: cap + noise, still one frame.
        line.append(static_cast<size_t>(17 * 1024), '!');
      }
      if (IsAcceptedShutdown(line)) continue;
      // Blank lines are skipped by the server, not answered; keep the
      // response count predictable by not sending effectively-blank lines.
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      payload += line;
      payload += "\n";
      ++lines_sent;
    }
    // ...then the canary: a valid request with a unique id. If framing
    // desynced anywhere above, this response comes back wrong or never.
    Request canary;
    canary.op = RequestOp::kListMechanisms;
    canary.id = "canary-" + std::to_string(round);
    payload += protocol::ToJson(canary).Dump();
    payload += "\n";
    SendChunked(*client, payload, rng);

    for (int b = 0; b < lines_sent; ++b) {
      Result<std::string> line = client->ReadLine();
      ASSERT_TRUE(line.ok())
          << "round " << round << ": connection died before response " << b
          << ": " << line.status().ToString();
      Result<JsonValue> doc = JsonValue::Parse(*line);
      ASSERT_TRUE(doc.ok()) << "round " << round << ": " << *line;
      ASSERT_TRUE(protocol::ResponseFromJson(*doc).ok())
          << "round " << round << ": " << *line;
    }
    Result<std::string> canary_line = client->ReadLine();
    ASSERT_TRUE(canary_line.ok()) << canary_line.status().ToString();
    EXPECT_NE(canary_line->find("\"id\":\"canary-" + std::to_string(round) +
                                "\""),
              std::string::npos)
        << "round " << round << ": framing desynced: " << *canary_line;
    EXPECT_NE(canary_line->find("\"ok\":true"), std::string::npos)
        << *canary_line;
  }

  // The server survived it all and still serves a fresh connection.
  Result<NetClient> fresh = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(fresh.ok());
  Result<std::string> alive =
      fresh->Call(std::string(R"({"v":1,"op":"list_mechanisms"})"));
  ASSERT_TRUE(alive.ok());
  EXPECT_NE(alive->find("\"ok\":true"), std::string::npos);
  net.Stop();
}

TEST(ProtocolFuzzTest, MidFrameDisconnectsLeaveServerServing) {
  MarketplaceServer server(ServerOptions{2});
  NetServer net(&server, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  Rng rng(90210);
  for (int round = 0; round < 30; ++round) {
    Result<NetClient> client = NetClient::Connect("127.0.0.1", net.port());
    ASSERT_TRUE(client.ok());
    // A torn frame: bytes with no terminating newline (sometimes a valid
    // prefix, sometimes noise), then an abrupt disconnect.
    std::string torn = R"({"v":1,"op":"list_mechanisms")";
    if (rng.Bernoulli(0.5)) {
      torn.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(torn.size()))));
    }
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(client->SendLine(torn + "}").ok());  // One whole frame,
      (void)client->ReadLine();                        // answered...
    }
    ASSERT_TRUE(client->SendRaw(torn).ok());  // ...then the torn one.
    client->Close();
  }

  Result<NetClient> fresh = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(fresh.ok());
  Result<std::string> alive =
      fresh->Call(std::string(R"({"v":1,"op":"list_mechanisms"})"));
  ASSERT_TRUE(alive.ok());
  EXPECT_NE(alive->find("\"ok\":true"), std::string::npos);
  net.Stop();
}

// -- Protocol v3: batch-frame battery ---------------------------------------

/// A random batch frame drawn from the member pool: 1..8 members, random
/// ids (duplicates likely), random member versions, sometimes a hostile
/// member op (nested batch / shutdown) the parser must reject whole.
std::string RandomBatchLine(const std::vector<Request>& pool, Rng& rng,
                            bool* expect_reject) {
  Request batch;
  batch.op = RequestOp::kBatch;
  batch.version = 3;
  if (rng.Bernoulli(0.5)) {
    batch.id = "b" + std::to_string(rng.UniformInt(0, 3));
  }
  *expect_reject = false;
  const int members = static_cast<int>(rng.UniformInt(1, 8));
  for (int m = 0; m < members; ++m) {
    Request member = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    if (rng.Bernoulli(0.5)) {
      member.id = "m" + std::to_string(rng.UniformInt(0, 2));  // Duplicates.
    }
    if (rng.Bernoulli(0.1)) {
      member.op = RequestOp::kShutdown;  // Parse-rejected inside a batch.
      member.tenancy.clear();
      member.tenants.clear();
      member.tenant = -1;
      member.slots = 1;
      member.version = 2;
      *expect_reject = true;
    }
    batch.requests.push_back(std::move(member));
  }
  if (rng.Bernoulli(0.1)) {
    // Nested mutation splice: a batch spliced into its own member list.
    Request nested;
    nested.op = RequestOp::kBatch;
    nested.version = 3;
    Request inner = pool.front();
    nested.requests.push_back(std::move(inner));
    batch.requests.push_back(std::move(nested));
    *expect_reject = true;
  }
  return protocol::ToJson(batch).Dump();
}

TEST(ProtocolFuzzTest, BatchFramesAnswerOneOrderedResponseBatch) {
  MarketplaceServer server(ServerOptions{2});
  // Bootstrap the tenancies the member pool mutates.
  for (const char* tenancy : {"fuzz", "fuzz-2"}) {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = tenancy;
    protocol::CatalogSpec catalog;
    catalog.scenario = "telemetry";
    catalog.scenario_tenants = 3;
    catalog.scenario_slots = 6;
    open.catalog = catalog;
    ASSERT_TRUE(server.Handle(std::move(open)).ok());
  }
  std::vector<Request> pool;
  for (const char* tenancy : {"fuzz", "fuzz-2"}) {
    Request advance;
    advance.op = RequestOp::kAdvanceSlot;
    advance.tenancy = tenancy;
    pool.push_back(advance);
    Request report;
    report.op = RequestOp::kReport;
    report.tenancy = tenancy;
    pool.push_back(report);
    Request depart;
    depart.op = RequestOp::kDepart;
    depart.tenancy = tenancy;
    depart.tenant = 1;
    pool.push_back(depart);
  }
  Request list;
  list.op = RequestOp::kListMechanisms;
  list.version = 1;
  pool.push_back(list);

  Rng rng(33550336);
  int accepted = 0, rejected = 0, mutated_rounds = 0;
  for (int i = 0; i < 4000; ++i) {
    bool expect_reject = false;
    std::string line = RandomBatchLine(pool, rng, &expect_reject);
    const bool was_mutated = rng.Bernoulli(0.5);
    if (was_mutated) {
      line = Mutate(line, rng);
      ++mutated_rounds;
    }
    const size_t member_count = [&] {
      Result<Request> parsed = protocol::ParseRequestLine(line);
      return parsed.ok() && parsed->op == RequestOp::kBatch
                 ? parsed->requests.size()
                 : size_t{0};
    }();

    const std::string response_line = server.HandleLine(line);
    Result<JsonValue> doc = JsonValue::Parse(response_line);
    ASSERT_TRUE(doc.ok()) << "unparseable response for: " << line;
    Result<Response> response = protocol::ResponseFromJson(*doc);
    ASSERT_TRUE(response.ok()) << "untyped response for: " << line;
    if (!was_mutated && expect_reject) {
      EXPECT_FALSE(response->ok())
          << "hostile member accepted: " << line;
    }
    if (response->ok() && member_count > 0) {
      ++accepted;
      // The ordered-response invariant: exactly one document per member,
      // ids echoed positionally (duplicates included).
      const JsonValue* docs = response->payload.Find("responses");
      ASSERT_NE(docs, nullptr) << line;
      ASSERT_EQ(docs->AsArray().size(), member_count) << line;
      Result<Request> parsed = protocol::ParseRequestLine(line);
      ASSERT_TRUE(parsed.ok());
      for (size_t m = 0; m < member_count; ++m) {
        const JsonValue* id = docs->AsArray()[m].Find("id");
        if (parsed->requests[m].id.empty()) {
          EXPECT_EQ(id, nullptr) << line;
        } else {
          ASSERT_NE(id, nullptr) << line;
          EXPECT_EQ(id->AsString(), parsed->requests[m].id) << line;
        }
      }
    } else if (!response->ok()) {
      ++rejected;
    }
  }
  // The battery exercised both sides hard.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
  EXPECT_GT(mutated_rounds, 1500);
}

TEST(ProtocolFuzzTest, TornMidBatchDisconnectsLeaveServerServing) {
  MarketplaceServer server(ServerOptions{2});
  NetServer net(&server, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());
  {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = "fuzz";
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
  for (int m = 0; m < 6; ++m) {
    Request advance;
    advance.op = RequestOp::kAdvanceSlot;
    advance.tenancy = "fuzz";
    advance.id = "m" + std::to_string(m);
    batch.requests.push_back(std::move(advance));
  }
  const std::string frame = protocol::ToJson(batch).Dump();

  Rng rng(8128);
  for (int round = 0; round < 30; ++round) {
    Result<NetClient> client = NetClient::Connect("127.0.0.1", net.port());
    ASSERT_TRUE(client.ok());
    // A batch frame torn mid-line (no newline), then an abrupt disconnect
    // — sometimes after a whole successful frame first.
    if (rng.Bernoulli(0.4)) {
      ASSERT_TRUE(client->SendLine(frame).ok());
      Result<std::string> answered = client->ReadLine();
      ASSERT_TRUE(answered.ok());
      EXPECT_NE(answered->find("\"responses\""), std::string::npos);
    }
    const std::string torn = frame.substr(
        0, static_cast<size_t>(
               rng.UniformInt(1, static_cast<int64_t>(frame.size()) - 1)));
    ASSERT_TRUE(client->SendRaw(torn).ok());
    client->Close();
  }

  // The torn frames died with their connections: never half-dispatched,
  // never desynced, and the server still answers a fresh batch.
  Result<NetClient> fresh = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(fresh.ok());
  Result<std::string> alive = fresh->Call(frame);
  ASSERT_TRUE(alive.ok());
  EXPECT_NE(alive->find("\"ok\":true"), std::string::npos);
  net.Stop();
}

}  // namespace
}  // namespace optshare::service
