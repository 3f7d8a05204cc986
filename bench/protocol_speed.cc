// Wire-protocol hot-path harness: parse + serialize throughput of the
// request codec (protocol::ParseRequestLine) against the JsonValue-tree
// oracle parser (tests/support/request_oracle.h), per request kind, plus
// heap allocations per line from the operator-new counting hook
// (common/alloc_count.h). Emits BENCH_protocol.json; the "fast" keys are
// the codec and the "tree" keys the oracle.
//
//   protocol_speed [--quick] [--out PATH]
//
// Three views per request kind (submit with 1 and 32 tenants,
// advance_slot, report):
//   - parse: ParseRequestLine vs ParseRequestLineTree
//   - serialize: AppendResponseLine into a reused scratch vs
//     ToJson(response).Dump()
//   - roundtrip: parse + serialize pipelined, codec vs tree — the number
//     the CI gate holds at >= 2x for submit (bench/baselines/gates.json).
#include "common/alloc_count.h"  // Must be first: defines operator new.

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "service/protocol.h"
#include "support/request_oracle.h"

namespace optshare {
namespace {

using Clock = std::chrono::steady_clock;
namespace protocol = service::protocol;
using protocol::Request;
using protocol::RequestOp;
using protocol::Response;

struct Workload {
  std::string name;
  std::string line;      ///< The request the parsers race on.
  Response response;     ///< The reply the serializers race on.
};

simdb::SimUser BenchTenant(int i) {
  simdb::SimUser tenant;
  tenant.start = 1 + (i % 4);
  tenant.end = 12;
  tenant.executions_per_slot = 100.0 + i;
  simdb::Workload::Entry entry;
  entry.frequency = 1.5;
  entry.query.table = "telemetry";
  entry.query.aggregate = true;
  entry.query.predicates = {{"device_id", 1e-6}, {"metric", 0.03125}};
  tenant.workload.entries.push_back(entry);
  return tenant;
}

Workload SubmitWorkload(int tenants) {
  Workload w;
  w.name = "submit_" + std::to_string(tenants);
  Request request;
  request.op = RequestOp::kSubmit;
  request.tenancy = "acme";
  request.id = "bench";
  for (int i = 0; i < tenants; ++i) request.tenants.push_back(BenchTenant(i));
  w.line = protocol::ToJson(request).Dump();
  JsonValue ids = JsonValue::MakeArray();
  ids.Reserve(static_cast<size_t>(tenants));
  for (int i = 0; i < tenants; ++i) ids.Append(JsonValue::Number(i));
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("tenant_ids", std::move(ids));
  w.response = protocol::OkResponse("bench", std::move(payload));
  return w;
}

Workload AdvanceSlotWorkload() {
  Workload w;
  w.name = "advance_slot";
  w.line = R"({"v":1,"op":"advance_slot","tenancy":"acme","slots":1})";
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("slot", JsonValue::Number(5));
  payload.Set("period", JsonValue::Number(2));
  w.response = protocol::OkResponse("", std::move(payload));
  return w;
}

Workload ReportWorkload() {
  Workload w;
  w.name = "report";
  w.line = R"({"v":1,"op":"report","tenancy":"acme","id":"r1"})";
  // A report-shaped payload: per-tenant values and payments.
  JsonValue values = JsonValue::MakeArray();
  JsonValue payments = JsonValue::MakeArray();
  values.Reserve(16);
  payments.Reserve(16);
  for (int i = 0; i < 16; ++i) {
    values.Append(JsonValue::Number(137.5 + i));
    payments.Append(JsonValue::Number(12.0625 * i));
  }
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("period", JsonValue::Number(2));
  payload.Set("values", std::move(values));
  payload.Set("payments", std::move(payments));
  w.response = protocol::OkResponse("r1", std::move(payload));
  return w;
}

/// Best-of-3 wall time for `iters` calls of `fn`, in seconds.
template <typename Fn>
double MeasureSeconds(long long iters, Fn&& fn) {
  double best = 1e300;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto start = Clock::now();
    for (long long i = 0; i < iters; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (s < best) best = s;
  }
  return best;
}

/// Allocations per call of `fn`, averaged over `iters` (after warm-up).
template <typename Fn>
double MeasureAllocs(long long iters, Fn&& fn) {
  if (!alloc_count::AllocationCountingAvailable()) return -1.0;
  for (int i = 0; i < 8; ++i) fn();  // Warm any lazily-grown capacity.
  const uint64_t before = alloc_count::ThreadAllocations();
  for (long long i = 0; i < iters; ++i) fn();
  const uint64_t after = alloc_count::ThreadAllocations();
  return static_cast<double>(after - before) / static_cast<double>(iters);
}

/// Picks an iteration count that makes one repeat of `fn` run for roughly
/// `target_seconds` (so quick mode stays quick and full mode averages out
/// scheduler noise).
template <typename Fn>
long long Calibrate(double target_seconds, Fn&& fn) {
  long long iters = 64;
  for (;;) {
    const auto start = Clock::now();
    for (long long i = 0; i < iters; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (s >= target_seconds || iters >= (1LL << 26)) return iters;
    const double scale = target_seconds / (s > 1e-9 ? s : 1e-9);
    iters = static_cast<long long>(iters * (scale > 8.0 ? 8.0 : scale)) + 1;
  }
}

}  // namespace
}  // namespace optshare

int main(int argc, char** argv) {
  using namespace optshare;

  double target_seconds = 0.2;
  std::string out_path = "BENCH_protocol.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      target_seconds = 0.05;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else {
      std::cerr << "usage: protocol_speed [--quick] [--out PATH]\n";
      return 2;
    }
  }

  std::vector<Workload> workloads;
  workloads.push_back(SubmitWorkload(1));
  workloads.push_back(SubmitWorkload(32));
  workloads.push_back(AdvanceSlotWorkload());
  workloads.push_back(ReportWorkload());

  JsonValue kinds = JsonValue::MakeArray();
  for (const Workload& w : workloads) {
    // Both parsers must accept every benchmarked line with the same
    // Request, or the race compares different work.
    {
      const auto codec = protocol::ParseRequestLine(w.line);
      const auto tree = protocol::ParseRequestLineTree(w.line);
      if (!codec.ok() || !tree.ok() ||
          protocol::ToJson(*tree).Dump() != protocol::ToJson(*codec).Dump()) {
        std::cerr << w.name << ": codec/tree parse mismatch\n";
        return 1;
      }
    }

    const auto parse_fast = [&w] {
      const auto parsed = protocol::ParseRequestLine(w.line);
      if (!parsed.ok()) std::exit(1);
    };
    const auto parse_tree = [&w] {
      const auto parsed = protocol::ParseRequestLineTree(w.line);
      if (!parsed.ok()) std::exit(1);
    };
    std::string scratch;
    const auto serialize_append = [&w, &scratch] {
      scratch.clear();
      protocol::AppendResponseLine(w.response, &scratch);
    };
    const auto serialize_dump = [&w, &scratch] {
      scratch = protocol::ToJson(w.response).Dump();
    };
    const auto roundtrip_fast = [&parse_fast, &serialize_append] {
      parse_fast();
      serialize_append();
    };
    const auto roundtrip_tree = [&parse_tree, &serialize_dump] {
      parse_tree();
      serialize_dump();
    };

    const long long iters = Calibrate(target_seconds, roundtrip_fast);
    const double parse_fast_s = MeasureSeconds(iters, parse_fast);
    const double parse_tree_s = MeasureSeconds(iters, parse_tree);
    const double ser_append_s = MeasureSeconds(iters, serialize_append);
    const double ser_dump_s = MeasureSeconds(iters, serialize_dump);
    const double rt_fast_s = MeasureSeconds(iters, roundtrip_fast);
    const double rt_tree_s = MeasureSeconds(iters, roundtrip_tree);
    const double it = static_cast<double>(iters);
    const double line_mb = static_cast<double>(w.line.size()) / 1e6;

    JsonValue entry = JsonValue::MakeObject();
    entry.Set("kind", JsonValue::Str(w.name));
    entry.Set("request_bytes",
              JsonValue::Number(static_cast<double>(w.line.size())));
    entry.Set("iters", JsonValue::Number(it));
    entry.Set("parse_fast_lines_per_sec", JsonValue::Number(it / parse_fast_s));
    entry.Set("parse_tree_lines_per_sec", JsonValue::Number(it / parse_tree_s));
    entry.Set("parse_fast_mb_per_sec",
              JsonValue::Number(it * line_mb / parse_fast_s));
    entry.Set("parse_speedup_fast_vs_tree",
              JsonValue::Number(parse_tree_s / parse_fast_s));
    entry.Set("serialize_append_lines_per_sec",
              JsonValue::Number(it / ser_append_s));
    entry.Set("serialize_dump_lines_per_sec",
              JsonValue::Number(it / ser_dump_s));
    entry.Set("serialize_speedup_append_vs_dump",
              JsonValue::Number(ser_dump_s / ser_append_s));
    entry.Set("roundtrip_fast_lines_per_sec", JsonValue::Number(it / rt_fast_s));
    entry.Set("roundtrip_tree_lines_per_sec", JsonValue::Number(it / rt_tree_s));
    entry.Set("roundtrip_speedup_fast_vs_tree",
              JsonValue::Number(rt_tree_s / rt_fast_s));
    entry.Set("parse_fast_allocs_per_line",
              JsonValue::Number(MeasureAllocs(iters / 4 + 1, parse_fast)));
    entry.Set("parse_tree_allocs_per_line",
              JsonValue::Number(MeasureAllocs(iters / 4 + 1, parse_tree)));
    entry.Set("roundtrip_fast_allocs_per_line",
              JsonValue::Number(MeasureAllocs(iters / 4 + 1, roundtrip_fast)));
    entry.Set("roundtrip_tree_allocs_per_line",
              JsonValue::Number(MeasureAllocs(iters / 4 + 1, roundtrip_tree)));
    kinds.Append(std::move(entry));

    std::cout << w.name << ": codec " << (it / rt_fast_s)
              << " lines/s, tree " << (it / rt_tree_s) << " lines/s ("
              << (rt_tree_s / rt_fast_s) << "x)\n";
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("benchmark", JsonValue::Str("protocol_speed"));
  doc.Set("alloc_counting",
          JsonValue::Bool(alloc_count::AllocationCountingAvailable()));
  doc.Set("kinds", std::move(kinds));

  std::ofstream out(out_path);
  out << doc.Dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
