// Pins the request codec (protocol::ParseRequestLine, one pass over the
// line — service/request_codec.cc) and the response serializer:
//
//   1. Oracle parity — every corpus line through the codec and through the
//      JsonValue-tree oracle (tests/support/request_oracle.h) yields the
//      same accept/reject decision, the same status text and the identical
//      Request (compared as canonical JSON). The corpus covers every op,
//      every protocol version, permuted field orders, whitespace, escapes,
//      duplicates, unknown fields, bad versions and type confusion.
//   2. The golden corpus — tests/data/request_rejections.jsonl holds lines
//      for every op with the exact status text (and, for accepted lines,
//      the re-serialized Request) the strict schema answers; the codec must
//      reproduce each byte for byte, with no oracle involved.
//   3. ToJson -> codec -> ToJson is the identity for every op and version.
//   4. AppendResponseLine emits exactly ToJson(response).Dump()'s bytes,
//      appending after any existing prefix.
//   5. Zero heap allocations per request, steady-state, for parse +
//      response serialization of the fixed-size ops, and O(1) allocations
//      to reject a non-batch line over the plain cap however large it is —
//      counted by the operator-new hook (common/alloc_count.h).
#include "common/alloc_count.h"  // Must be first: defines operator new.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "service/dispatch.h"
#include "service/fast_wire.h"
#include "service/protocol.h"
#include "support/request_oracle.h"

namespace optshare::service::protocol {
namespace {

simdb::SimUser SampleTenant() {
  simdb::SimUser tenant;
  tenant.start = 2;
  tenant.end = 9;
  tenant.executions_per_slot = 137.5;
  simdb::Workload::Entry entry;
  entry.frequency = 2.5;
  entry.query.table = "telemetry";
  entry.query.aggregate = true;
  entry.query.predicates = {{"device", 2e-7}, {"metric", 0.015625}};
  tenant.workload.entries.push_back(entry);
  simdb::Workload::Entry scan;
  scan.frequency = 1.0;
  scan.query.table = "telemetry";
  scan.query.aggregate = false;
  tenant.workload.entries.push_back(scan);
  return tenant;
}

/// Canonical serialized lines for every op and version that speaks it.
std::vector<std::string> CanonicalLines() {
  std::vector<std::string> lines;
  const std::vector<RequestOp> ops = {
      RequestOp::kOpenPeriod,   RequestOp::kSubmit,
      RequestOp::kDepart,       RequestOp::kAdvanceSlot,
      RequestOp::kClosePeriod,  RequestOp::kReport,
      RequestOp::kQueryPrice,   RequestOp::kListMechanisms,
      RequestOp::kSnapshot,     RequestOp::kRestore,
      RequestOp::kShutdown,     RequestOp::kServerInfo};
  for (const RequestOp op : ops) {
    for (int version = RequestOpMinVersion(op); version <= kProtocolVersion;
         ++version) {
      for (const bool with_id : {false, true}) {
        Request request;
        request.op = op;
        request.version = version;
        if (with_id) request.id = "req-42";
        if (OpTakesTenancy(op)) request.tenancy = "acme";
        switch (op) {
          case RequestOp::kOpenPeriod: {
            CatalogSpec catalog;
            catalog.scenario = "telemetry";
            request.catalog = catalog;
            break;
          }
          case RequestOp::kSubmit:
          case RequestOp::kQueryPrice:
            request.tenants = {SampleTenant(), SampleTenant()};
            break;
          case RequestOp::kDepart:
            request.tenant = 3;
            break;
          case RequestOp::kAdvanceSlot:
            request.slots = 4;
            break;
          default:
            break;
        }
        lines.push_back(ToJson(request).Dump());
      }
    }
  }
  // Historical reads: v2 report with an explicit period.
  for (const bool with_id : {false, true}) {
    Request request;
    request.op = RequestOp::kReport;
    request.version = 2;
    request.tenancy = "acme";
    request.period = 2;
    if (with_id) request.id = "req-42";
    lines.push_back(ToJson(request).Dump());
  }
  return lines;
}

/// The adversarial corpus: hand-written lines that probe the schema's
/// ordering, duplicate, escape and lexical rules.
std::vector<std::string> AdversarialLines() {
  return {
      // Field-order permutations and whitespace.
      R"({"op":"report","tenancy":"acme","v":1})",
      R"({"tenancy":"acme","v":2,"op":"snapshot","id":"x"})",
      "{ \"v\" : 1 , \"op\" : \"report\" , \"tenancy\" : \"acme\" }",
      "\t{\"v\":1,\"op\":\"list_mechanisms\"}\r\n",
      R"(  {"v":1,"op":"advance_slot","tenancy":"a","slots":1}  )",
      // Escapes in keys and values.
      R"({"v":1,"op":"report","tenancy":"ac\nme"})",
      R"({"\u006fp":"report","v":1,"tenancy":"acme"})",
      R"({"v":1,"op":"re\u0070ort","tenancy":"acme"})",
      R"({"v":1,"op":"report","tenancy":"ac\u006de"})",
      R"({"v":1,"op":"report","tenancy":"\u00e9\u20ac"})",
      R"({"v":1,"op":"report","tenancy":"tab\tquote\"slash\\"})",
      R"({"v":1,"op":"report","tenancy":"€é"})",
      R"({"v":1,"op":"report","tenancy":"bad\qescape"})",
      R"({"v":1,"op":"report","tenancy":"short\u00"})",
      // Duplicate keys (the last occurrence wins).
      R"({"v":1,"v":2,"op":"server_info"})",
      R"({"v":1,"op":"report","op":"close_period","tenancy":"acme"})",
      R"({"v":1,"op":"report","tenancy":"a","tenancy":"b"})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":2,"slots":3})",
      // Unknown fields / wrong-op fields.
      R"({"v":1,"op":"list_mechanisms","bogus":true})",
      R"({"v":1,"op":"report","tenancy":"acme","slots":2})",
      R"({"v":1,"op":"submit","tenancy":"acme","tenant":1,"tenants":[]})",
      R"({"v":1,"op":"list_mechanisms","tenancy":"acme"})",
      R"({"v":1,"op":"report"})",
      R"({"v":1,"op":"report","tenancy":""})",
      // Version abuse.
      R"({"op":"report","tenancy":"acme"})",
      R"({"v":0,"op":"report","tenancy":"acme"})",
      R"({"v":3,"op":"report","tenancy":"acme"})",
      R"({"v":1.5,"op":"report","tenancy":"acme"})",
      R"({"v":"1","op":"report","tenancy":"acme"})",
      R"({"v":2.0,"op":"snapshot","tenancy":"acme"})",
      R"({"v":1e0,"op":"report","tenancy":"acme"})",
      R"({"v":1,"op":"snapshot","tenancy":"acme"})",
      R"({"v":-1,"op":"report","tenancy":"acme"})",
      // Type confusion.
      R"({"v":1,"op":42,"tenancy":"acme"})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":"3"})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":3.5})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":3000000000})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":-2})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":0})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":-3})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":2.5})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":true})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":{}})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[1]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[]})",
      // Submit payload strictness.
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("workload":[]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[],"extra":0}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1.5,"end":2,)"
      R"("executions_per_slot":3,"workload":[]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":true,"predicates":[]}}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":"yes","predicates":[]}}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":false,"predicates":[{"column":"c",)"
      R"("selectivity":0.5}]}}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":false,"predicates":[{"column":"c"}]}}]}]})",
      // Historical-report period field: bounds, types, wrong ops.
      R"({"v":2,"op":"report","tenancy":"acme","period":0})",
      R"({"v":2,"op":"report","tenancy":"acme","period":-1})",
      R"({"v":2,"op":"report","tenancy":"acme","period":2.5})",
      R"({"v":2,"op":"report","tenancy":"acme","period":"2"})",
      R"({"v":2,"op":"report","tenancy":"acme","period":true})",
      R"({"v":2,"op":"report","tenancy":"acme","period":3000000000})",
      R"({"v":1,"op":"report","tenancy":"acme","period":2})",
      R"({"v":2,"op":"report","tenancy":"acme","period":1,"period":2})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":1,"period":2})",
      R"({"v":1,"op":"close_period","tenancy":"a","period":1})",
      R"({"v":2,"op":"report","period":1})",
      // query_price: version gate, payload strictness, wrong-op fields.
      R"({"v":2,"op":"query_price","tenancy":"a"})",
      R"({"v":2,"op":"query_price","tenancy":"a","tenants":[]})",
      R"({"v":2,"op":"query_price","tenancy":"a","tenants":{}})",
      R"({"v":1,"op":"query_price","tenancy":"a","tenants":[{"start":1,)"
      R"("end":2,"executions_per_slot":3,"workload":[]}]})",
      R"({"v":2,"op":"query_price","tenancy":"a","slots":1,"tenants":)"
      R"([{"start":1,"end":2,"executions_per_slot":3,"workload":[]}]})",
      R"({"v":2,"op":"query_price","tenancy":"a","tenant":1})",
      R"({"v":2,"op":"query_price","tenancy":"a","period":1,"tenants":)"
      R"([{"start":1,"end":2,"executions_per_slot":3,"workload":[]}]})",
      R"({"op":"query_price","tenancy":"a","v":2,"tenants":[{"start":1,)"
      R"("end":2,"executions_per_slot":3,"workload":[]}]})",
      // Malformed JSON and structural abuse.
      "",
      "   ",
      "{",
      "}",
      "[]",
      "null",
      "true",
      "42",
      R"("report")",
      R"({"v":1,"op":"report","tenancy":"acme"} trailing)",
      R"({"v":1,"op":"report","tenancy":"acme"}{"v":1})",
      R"({"v":1 "op":"report"})",
      R"({"v":1,,"op":"report"})",
      R"({"v":1,"op":"report","tenancy":"acme")",
      R"({"v":1,"op":"report","tenancy":"acme",})",
      R"({"v":01,"op":"report","tenancy":"acme"})",
      R"({"v":+1,"op":"report","tenancy":"acme"})",
      R"({"v":1,"op":"report","tenancy":"acme","slots":1e})",
      R"({"v":1,"op":"report","tenancy":"acme","slots":--1})",
      R"({"v":nan,"op":"report","tenancy":"acme"})",
      // open_period's nested payloads.
      R"({"v":1,"op":"open_period","tenancy":"acme"})",
      R"({"v":1,"op":"open_period","tenancy":"acme","catalog":)"
      R"({"scenario":"telemetry","tenants":6,"slots":12}})",
      R"({"v":1,"op":"open_period","tenancy":"acme","config":)"
      R"({"mechanism":"addon"}})",
  };
}

struct GoldenLine {
  std::string line;
  std::string status;   ///< "OK" or Status::ToString().
  std::string request;  ///< ToJson(request).Dump() for accepted lines.
};

std::vector<GoldenLine> GoldenCorpus() {
  std::ifstream in(std::string(OPTSHARE_TEST_DATA_DIR) +
                   "/request_rejections.jsonl");
  EXPECT_TRUE(in.good()) << "tests/data/request_rejections.jsonl missing";
  std::vector<GoldenLine> corpus;
  std::string record;
  while (std::getline(in, record)) {
    Result<JsonValue> doc = JsonValue::Parse(record);
    EXPECT_TRUE(doc.ok()) << record;
    if (!doc.ok()) continue;
    GoldenLine golden;
    golden.line = doc->Find("line")->AsString();
    golden.status = doc->Find("status")->AsString();
    if (const JsonValue* request = doc->Find("request")) {
      golden.request = request->AsString();
    }
    corpus.push_back(std::move(golden));
  }
  return corpus;
}

std::vector<std::string> FullCorpus() {
  std::vector<std::string> corpus = CanonicalLines();
  const std::vector<std::string> adversarial = AdversarialLines();
  corpus.insert(corpus.end(), adversarial.begin(), adversarial.end());
  for (const GoldenLine& golden : GoldenCorpus()) {
    corpus.push_back(golden.line);
  }
  return corpus;
}

void ExpectOracleParity(const std::string& line) {
  SCOPED_TRACE("line: " + line);
  const Result<Request> oracle = ParseRequestLineTree(line);
  const Result<Request> codec = ParseRequestLine(line);
  ASSERT_EQ(oracle.ok(), codec.ok())
      << (codec.ok() ? oracle.status() : codec.status()).ToString();
  if (oracle.ok()) {
    EXPECT_EQ(ToJson(*oracle).Dump(), ToJson(*codec).Dump());
    EXPECT_EQ(oracle->version, codec->version);
    EXPECT_EQ(oracle->op, codec->op);
  } else {
    EXPECT_EQ(oracle.status().ToString(), codec.status().ToString());
  }
}

TEST(CodecOracleTest, CorpusParity) {
  for (const std::string& line : FullCorpus()) ExpectOracleParity(line);
}

TEST(CodecGoldenTest, EveryLineAnswersItsCheckedInStatus) {
  const std::vector<GoldenLine> corpus = GoldenCorpus();
  ASSERT_GE(corpus.size(), 200u);
  size_t accepted = 0;
  for (const GoldenLine& golden : corpus) {
    SCOPED_TRACE("line: " + golden.line);
    const Result<Request> codec = ParseRequestLine(golden.line);
    if (golden.status == "OK") {
      ++accepted;
      ASSERT_TRUE(codec.ok()) << codec.status().ToString();
      EXPECT_EQ(ToJson(*codec).Dump(), golden.request);
    } else {
      ASSERT_FALSE(codec.ok());
      EXPECT_EQ(codec.status().ToString(), golden.status);
    }
  }
  // The corpus is mostly rejections, and it names every op.
  EXPECT_LT(accepted, corpus.size() / 4);
  for (const RequestOp op : kAllRequestOps) {
    const std::string tag =
        "\"op\":\"" + std::string(RequestOpName(op)) + "\"";
    bool named = false;
    for (const GoldenLine& golden : corpus) {
      named = named || golden.line.find(tag) != std::string::npos;
    }
    EXPECT_TRUE(named) << "no golden line for op " << RequestOpName(op);
  }
}

/// A request of `op` with every field its variant carries set.
Request FullRequest(RequestOp op, int version, bool with_id) {
  Request request;
  request.op = op;
  request.version = version;
  if (with_id) request.id = "req-\"42\"";
  if (OpTakesTenancy(op)) request.tenancy = "acme";
  switch (op) {
    case RequestOp::kOpenPeriod: {
      CatalogSpec catalog;
      catalog.scenario = "telemetry";
      catalog.scenario_tenants = 5;
      request.catalog = catalog;
      ServiceConfig config;
      config.mechanism = "naive_online";
      config.maintenance_fraction = 0.125;
      config.admission.mutating_ops_per_sec = 40;
      request.config = config;
      break;
    }
    case RequestOp::kSubmit:
    case RequestOp::kQueryPrice:
      request.tenants = {SampleTenant(), SampleTenant()};
      break;
    case RequestOp::kDepart:
      request.tenant = 3;
      break;
    case RequestOp::kAdvanceSlot:
      request.slots = 4;
      break;
    case RequestOp::kReport:
      request.period = version >= 2 ? 2 : 0;
      break;
    case RequestOp::kReplAppend:
      request.record = R"({"kind":"advance","slots":1})";
      break;
    case RequestOp::kReplCheckpoint:
      request.snapshot = *JsonValue::Parse(R"({"period":1,"x":[1.5,null]})");
      break;
    case RequestOp::kClusterUpdate:
      request.placement = *JsonValue::Parse(R"({"v":1,"nodes":[]})");
      break;
    case RequestOp::kRestore:
    case RequestOp::kExport:
      request.tenancy = with_id ? "acme" : "";
      break;
    case RequestOp::kBatch:
      request.requests = {FullRequest(RequestOp::kSubmit, 1, true),
                          FullRequest(RequestOp::kReport, 2, false)};
      break;
    default:
      break;
  }
  return request;
}

TEST(CodecRoundTripTest, EveryOpAndVersionReserializesIdentically) {
  size_t checked = 0;
  for (const RequestOp op : kAllRequestOps) {
    for (int version = RequestOpMinVersion(op); version <= kProtocolVersion;
         ++version) {
      for (const bool with_id : {false, true}) {
        const std::string line = ToJson(FullRequest(op, version, with_id)).Dump();
        SCOPED_TRACE("line: " + line);
        const Result<Request> parsed = ParseRequestLine(line);
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        EXPECT_EQ(parsed->op, op);
        EXPECT_EQ(parsed->version, version);
        EXPECT_EQ(ToJson(*parsed).Dump(), line);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 2 * kNumRequestOps);
}

TEST(CodecCompatTest, TryFastParseRequestLineIsTheCodecVerdict) {
  for (const std::string& line : FullCorpus()) {
    SCOPED_TRACE("line: " + line);
    const Result<Request> codec = ParseRequestLine(line);
    Request compat;
    ASSERT_EQ(TryFastParseRequestLine(line, &compat), codec.ok());
    if (codec.ok()) {
      EXPECT_EQ(ToJson(compat).Dump(), ToJson(*codec).Dump());
    }
  }
}

TEST(AppendResponseLineTest, MatchesTreeSerializerBytes) {
  std::vector<Response> responses;
  responses.push_back(OkResponse("", JsonValue::Null()));
  responses.push_back(OkResponse("req-1", JsonValue::Null()));
  {
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("mechanisms", JsonValue::MakeArray());
    payload.AsObject()["mechanisms"].Append(JsonValue::Str("addon"));
    payload.Set("count", JsonValue::Number(1));
    payload.Set("ratio", JsonValue::Number(0.015625));
    payload.Set("exact", JsonValue::Number(137.5));
    payload.Set("tiny", JsonValue::Number(2e-7));
    payload.Set("flag", JsonValue::Bool(true));
    payload.Set("name", JsonValue::Str("esc \"q\" \\ \n \t \x01"));
    responses.push_back(OkResponse("id with \"quotes\"", std::move(payload)));
  }
  responses.push_back(
      ErrorResponse("e1", Status::NotFound("tenancy \"acme\" unknown")));
  responses.push_back(ErrorResponse(
      "", Status::InvalidArgument("line\nwith\tcontrol \x02 bytes")));
  responses.back().version = kMinProtocolVersion;

  for (Response& response : responses) {
    for (int version = kMinProtocolVersion; version <= kProtocolVersion;
         ++version) {
      response.version = version;
      const std::string expected = ToJson(response).Dump();
      EXPECT_EQ(FormatResponseLine(response), expected);
      std::string appended = "prefix|";
      AppendResponseLine(response, &appended);
      EXPECT_EQ(appended, "prefix|" + expected);
    }
  }
}

TEST(ZeroAllocationTest, FixedSizeOpsParseAndSerializeWithoutHeap) {
  if (!alloc_count::AllocationCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const std::vector<std::string> lines = {
      R"({"v":1,"op":"advance_slot","tenancy":"acme","slots":3})",
      R"({"v":1,"op":"report","tenancy":"acme","id":"r7"})",
      R"({"v":2,"op":"report","tenancy":"acme","period":2})",
      R"({"v":1,"op":"close_period","tenancy":"acme"})",
      R"({"v":2,"op":"snapshot","tenancy":"acme"})",
      R"({"v":2,"op":"server_info"})",
      R"({"v":1,"op":"depart","tenancy":"acme","tenant":0})",
  };
  Response response = OkResponse("r7", JsonValue::Bool(true));
  std::string scratch;

  // Warm-up: let every lazily-grown buffer reach steady-state capacity.
  for (int i = 0; i < 4; ++i) {
    for (const std::string& line : lines) {
      const Result<Request> parsed = ParseRequestLine(line);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      scratch.clear();
      AppendResponseLine(response, &scratch);
    }
  }

  constexpr int kIterations = 256;
  bool all_ok = true;
  const uint64_t before = alloc_count::ThreadAllocations();
  for (int i = 0; i < kIterations; ++i) {
    for (const std::string& line : lines) {
      const Result<Request> parsed = ParseRequestLine(line);
      all_ok = all_ok && parsed.ok();
      scratch.clear();
      AppendResponseLine(response, &scratch);
    }
  }
  const uint64_t after = alloc_count::ThreadAllocations();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0u)
      << "the wire hot path allocated " << (after - before) << " times over "
      << kIterations * lines.size() << " requests";
}


TEST(ZeroAllocationTest, OversizedNonBatchLinesAreRejectedInConstantAllocations) {
  constexpr size_t kPlainCap = 1 << 20;
  constexpr size_t kFramingCap = 8u << 20;
  // A large array in an unknown field, and a valid-looking submit roster:
  // neither can be answered with anything but the plain-cap rejection.
  std::string unknown_array = R"({"v":1,"op":"report","tenancy":"a","x":[0)";
  while (unknown_array.size() < kPlainCap + 4096) unknown_array += ",0";
  unknown_array += "]}";
  const std::string tenant = ToJson(SampleTenant()).Dump();
  std::string roster = R"({"v":1,"op":"submit","tenancy":"a","tenants":[)";
  roster += tenant;
  while (roster.size() < kPlainCap + 4096) roster += "," + tenant;
  roster += "]}";
  ASSERT_TRUE(ParseRequestLine(roster).ok());  // Fine under no cap.

  const std::string expected = OversizedLineResponse(kPlainCap);
  for (const std::string* line : {&unknown_array, &roster}) {
    const uint64_t before = alloc_count::ThreadAllocations();
    const Result<Request> parsed = ParseLine(*line, kPlainCap, kFramingCap);
    const uint64_t allocations = alloc_count::ThreadAllocations() - before;
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(ErrorLine(parsed.status()), expected);
    if (alloc_count::AllocationCountingAvailable()) {
      EXPECT_LE(allocations, 16u)
          << "rejecting a " << line->size() << "-byte line allocated "
          << allocations << " times";
    }
  }

  // A batch frame over the plain cap is still answered in full.
  Request batch;
  batch.op = RequestOp::kBatch;
  Request member;
  member.op = RequestOp::kSubmit;
  member.tenancy = "a";
  while (batch.requests.size() < 8) {
    member.tenants.assign(600, SampleTenant());
    batch.requests.push_back(member);
  }
  const std::string frame = ToJson(batch).Dump();
  ASSERT_GT(frame.size(), kPlainCap);
  const Result<Request> parsed = ParseLine(frame, kPlainCap, kFramingCap);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(ToJson(*parsed).Dump(), frame);
}

}  // namespace
}  // namespace optshare::service::protocol
