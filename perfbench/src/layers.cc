#include "layers.h"

#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "service/admission.h"
#include "service/fast_wire.h"
#include "service/protocol.h"
#include "service/state_store.h"
#include "simdb/advisor.h"
#include "simdb/scenarios.h"
#include "sysinfo.h"
#include "trace.h"

namespace perfbench {
namespace {

using optshare::JsonValue;
using optshare::Result;
using optshare::Status;
namespace service = optshare::service;
namespace protocol = optshare::service::protocol;
namespace simdb = optshare::simdb;

/// Round trips behind net_server.floor_us and thread_pool.handoff_us.
constexpr int kFloorCalls = 2000;
/// How often the rate phase samples server_info's shard queue depths.
constexpr int64_t kQueueSampleNs = 10 * int64_t{1000000};
/// Journal records and checkpoints kept for the direct store replay.
constexpr size_t kMaxKeptStoreOps = 20000;

/// The server's FileStateStore, wrapped to count and keep what the server
/// asks of it (records and snapshots), so the store can be measured with
/// the workload's own records afterwards.
class CountingStore : public service::StateStore {
 public:
  struct Op {
    std::string tenancy;
    std::string record;                 ///< Append.
    std::optional<JsonValue> snapshot;  ///< Checkpoint.
  };

  explicit CountingStore(std::unique_ptr<service::FileStateStore> base)
      : base_(std::move(base)) {}

  std::string_view kind() const override { return base_->kind(); }
  Status Append(const std::string& tenancy,
                const std::string& record) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      bytes_ += record.size() + 1;
      if (ops_.size() < kMaxKeptStoreOps) ops_.push_back({tenancy, record, {}});
    }
    return base_->Append(tenancy, record);
  }
  Status Checkpoint(const std::string& tenancy,
                    const JsonValue& snapshot) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (ops_.size() < kMaxKeptStoreOps) ops_.push_back({tenancy, {}, snapshot});
    }
    return base_->Checkpoint(tenancy, snapshot);
  }
  Status Sync(const std::string& tenancy) override {
    return base_->Sync(tenancy);
  }
  Status Remove(const std::string& tenancy) override {
    return base_->Remove(tenancy);
  }
  Result<std::vector<service::PersistedTenancy>> Load() override {
    return base_->Load();
  }
  service::StateStoreStats stats() const override { return base_->stats(); }

  uint64_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  std::vector<Op> TakeOps() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(ops_);
  }

 private:
  std::unique_ptr<service::FileStateStore> base_;
  mutable std::mutex mu_;  ///< Guards bytes_ and ops_.
  uint64_t bytes_ = 0;
  std::vector<Op> ops_;
};

double Num(const JsonValue& doc, std::initializer_list<const char*> path) {
  const JsonValue* v = &doc;
  for (const char* key : path) {
    v = v->Find(key);
    if (v == nullptr) return 0.0;
  }
  return v->is_number() ? v->AsNumber() : 0.0;
}

JsonValue ServerInfo(service::MarketplaceServer& server) {
  protocol::Request request;
  request.op = protocol::RequestOp::kServerInfo;
  request.version = 3;
  return server.Handle(std::move(request)).payload;
}

/// Counters read from server_info and the store wrapper at one moment.
struct Counters {
  double bytes = 0;           ///< Transport bytes read + written.
  double reads_served = 0;
  double read_fallbacks = 0;
  double publishes = 0;       ///< Views + deltas published.
  double rejected = 0;
  double checkpoints = 0;
  double syncs = 0;
  double appends = 0;
  double journal_bytes = 0;
  int64_t loop_cpu_ns = 0;
  int64_t worker_cpu_ns = 0;
};

Counters ReadCounters(LiveServer& live, const CountingStore& store) {
  const JsonValue info = ServerInfo(*live.server);
  Counters c;
  c.bytes = Num(info, {"transport", "bytes_read"}) +
            Num(info, {"transport", "bytes_written"});
  c.reads_served = Num(info, {"read_path", "reads_served"});
  c.read_fallbacks = Num(info, {"read_path", "fallbacks"});
  c.publishes = Num(info, {"read_path", "views_published"}) +
                Num(info, {"read_path", "delta_publishes"});
  c.rejected = Num(info, {"metrics", "admission", "rejected"});
  const service::StateStoreStats stats = store.stats();
  c.checkpoints = static_cast<double>(stats.checkpoints);
  c.syncs = static_cast<double>(stats.syncs);
  c.appends = static_cast<double>(stats.appends);
  c.journal_bytes = static_cast<double>(store.bytes());
  c.loop_cpu_ns = ThreadsCpuNs(live.loop_tids);
  c.worker_cpu_ns = ThreadsCpuNs(live.worker_tids);
  return c;
}

/// Closes counted in a phase: members that are close_period requests.
uint64_t Closes(const Streams& streams,
                const std::vector<std::vector<Unit>>& units) {
  uint64_t n = 0;
  for (const auto& list : units) {
    for (const Unit& unit : list) {
      const TenancyStream& t = streams.tenancies[unit.tenancy];
      for (uint32_t m = 0; m < unit.members; ++m) {
        n += t.requests[unit.first + m].op == protocol::RequestOp::kClosePeriod;
      }
    }
  }
  return n;
}

/// Per-class sums for the protocol and handle metrics (per request: a
/// frame's cost is shared evenly by its members, under the frame's class).
struct ClassStats {
  double parse_ns[kNumClasses] = {};
  double serialize_ns[kNumClasses] = {};
  double handle_ns[kNumClasses] = {};
  double request_bytes[kNumClasses] = {};
  double response_bytes[kNumClasses] = {};
  double fast[kNumClasses] = {};
  double requests[kNumClasses] = {};

  double Per(const double (&sum)[kNumClasses], int cls, double scale) const {
    return requests[cls] > 0 ? sum[cls] / requests[cls] * scale : 0.0;
  }
};

/// A server for the in-process replay: recovered from a copy of the
/// crashed directory, then brought through the warm-up.
Result<std::unique_ptr<service::MarketplaceServer>> ReplayServer(
    const Streams& streams, const std::string& seed_dir,
    const std::string& dir) {
  OPTSHARE_RETURN_NOT_OK(CopyTree(seed_dir, dir));
  Result<std::unique_ptr<service::FileStateStore>> file =
      service::FileStateStore::Open(dir);
  if (!file.ok()) return file.status();
  service::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.store = std::shared_ptr<service::StateStore>(std::move(*file));
  auto server = std::make_unique<service::MarketplaceServer>(options);
  Result<service::RecoveryStats> recovered = server->Recover();
  if (!recovered.ok()) return recovered.status();
  for (const auto& list : BuildPhase(streams, kWarmup, 0, 1)) {
    for (const Unit& unit : list) {
      const std::string response =
          server->HandleLine(unit.line.substr(0, unit.line.size() - 1));
      if (!ResponseOk(unit, response)) {
        return Status::Internal("replay warm-up: " + response.substr(0, 200));
      }
    }
  }
  return server;
}

/// Replays the serial-phase units in process, one at a time, through each
/// layer's public function. With a tracer, every request gets a root span
/// and parse / admit / handle / serialize spans under it. Returns the
/// replay's wall time (ns).
Result<int64_t> ReplaySerial(service::MarketplaceServer& server,
                             const std::vector<Unit>& units, Tracer* tracer,
                             ClassStats* stats) {
  service::AdmissionController admission;
  std::string scratch;
  const auto begin = [tracer](const char* name, int64_t parent, int64_t id) {
    return tracer ? tracer->Begin(name, parent, id) : -1;
  };
  const auto end = [tracer](int64_t span) {
    if (tracer) tracer->End(span);
  };
  const int64_t t0 = NowNs();
  for (size_t k = 0; k < units.size(); ++k) {
    const Unit& unit = units[k];
    const std::string line = unit.line.substr(0, unit.line.size() - 1);
    const int64_t id = static_cast<int64_t>(k);
    const int64_t root = begin("request", -1, id);
    int64_t span = begin("protocol.parse", root, id);
    Result<protocol::Request> request = protocol::ParseRequestLine(line);
    end(span);
    if (!request.ok()) return request.status();
    span = begin("admission.admit", root, id);
    if (UnitClass(unit) != kRead) {
      const std::string& tenancy = request->op == protocol::RequestOp::kBatch
                                       ? request->requests.front().tenancy
                                       : request->tenancy;
      admission.Admit(tenancy, static_cast<double>(unit.members));
    }
    end(span);
    span = begin("marketplace_server.handle", root, id);
    std::promise<protocol::Response> promise;
    std::future<protocol::Response> future = promise.get_future();
    server.DispatchCallback(
        std::move(*request),
        [&promise](protocol::Response r) { promise.set_value(std::move(r)); },
        &line);
    const protocol::Response response = future.get();
    end(span);
    span = begin("protocol.serialize", root, id);
    scratch.clear();
    protocol::AppendResponseLine(response, &scratch);
    end(span);
    end(root);
    if (!response.ok()) {
      return Status::Internal("replay: id " + unit.id + ": " + scratch);
    }
    if (stats != nullptr) {
      const int cls = UnitClass(unit);
      stats->request_bytes[cls] += static_cast<double>(line.size() + 1);
      stats->response_bytes[cls] += static_cast<double>(scratch.size() + 1);
    }
  }
  return NowNs() - t0;
}

/// Mean (us) of the spans named `name`.
double SpanMeanUs(const std::vector<Span>& spans, const char* name) {
  double sum = 0;
  uint64_t n = 0;
  for (const Span& span : spans) {
    if (std::string_view(span.name) == name) {
      sum += static_cast<double>(span.end_ns - span.start_ns);
      ++n;
    }
  }
  return n > 0 ? sum / 1000.0 / static_cast<double>(n) : 0.0;
}

}  // namespace

void RunTraced(const Plan& plan, uint64_t seed, const std::string& root,
               Outcome* out) {
  Result<Streams> generated =
      GenerateStreams(plan.workload, seed, plan.sizes, true, OnlineCpus());
  if (!generated.ok()) {
    out->Violation(generated.status().ToString());
    return;
  }
  Streams& streams = *generated;
  const std::string seed_dir = root + "/seeded";
  if (const Status st = SeedDataDir(streams, seed_dir); !st.ok()) {
    out->Violation(st.ToString());
    return;
  }
  out->record.Set("data_dir_fs", JsonValue::Str(FileSystemType(seed_dir)));
  Tracer tracer;  // Standalone spans and the traced replay.

  // -- The wire run: counters, thread CPU and the serial mean. -------------
  const std::string wire_dir = root + "/wire";
  if (const Status st = CopyTree(seed_dir, wire_dir); !st.ok()) {
    out->Violation(st.ToString());
    return;
  }
  Result<std::unique_ptr<service::FileStateStore>> file =
      service::FileStateStore::Open(wire_dir);
  if (!file.ok()) {
    out->Violation(file.status().ToString());
    return;
  }
  auto store = std::make_shared<CountingStore>(std::move(*file));
  Result<std::unique_ptr<LiveServer>> started =
      StartServer(streams, wire_dir, store);
  if (!started.ok()) {
    out->Violation("set-up: " + started.status().ToString());
    return;
  }
  LiveServer& live = **started;
  if (const Status st = CheckRecovered(streams, live); !st.ok()) {
    out->Violation(st.ToString());
  }
  out->Metric("state_store.replay_records_per_s",
              live.recover_s > 0
                  ? live.recovery.journal_records_replayed / live.recover_s
                  : 0.0,
              "1/s");
  LoadGenerator& gen = *live.gen;
  {
    const auto units = BuildPhase(streams, kWarmup, 0, kConnections);
    SettlePhase(streams, kWarmup, units,
                gen.RunClosed(units, plan.peak_window, kPhaseTimeoutNs), out);
  }
  const std::vector<std::vector<Unit>> serial_units =
      BuildPhase(streams, kSerial, 0, 1);
  const PhaseResult serial = gen.RunClosed(serial_units, 1, kPhaseTimeoutNs);
  SettlePhase(streams, kSerial, serial_units, serial, out);
  const double serial_mean_us = Mean(LatenciesUs(serial_units, serial, false));

  const std::vector<std::vector<Unit>> rate_units =
      BuildPhase(streams, kRate, 0, kConnections);
  const Counters before = ReadCounters(live, *store);
  double depth_sum = 0;
  int samples = 0;
  int info_calls = 0;
  const PhaseResult rate = gen.RunOpen(
      rate_units, plan.rate_units_per_s, kPhaseTimeoutNs,
      [&] {
        ++info_calls;
        const JsonValue info = ServerInfo(*live.server);
        const JsonValue* depths = info.Find("metrics");
        depths = depths ? depths->Find("shard_queue_depths") : nullptr;
        if (depths == nullptr || !depths->is_array()) return;
        double sum = 0;
        for (const JsonValue& d : depths->AsArray()) sum += d.AsNumber();
        if (!depths->AsArray().empty()) {
          depth_sum += sum / static_cast<double>(depths->AsArray().size());
          ++samples;
        }
      },
      kQueueSampleNs);
  const Counters after = ReadCounters(live, *store);
  SettlePhase(streams, kRate, rate_units, rate, out);
  const double ops = static_cast<double>(AnsweredRequests(rate_units, rate));
  const auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
  // server_info calls made here count as inline reads too (the one in
  // `before` lands after its own snapshot); take them out.
  const double info_reads = info_calls + 1;
  const double served = after.reads_served - before.reads_served - info_reads;
  const double fallbacks = after.read_fallbacks - before.read_fallbacks;
  const double closes = static_cast<double>(Closes(streams, rate_units));

  out->Metric("net_server.loop_cpu_us_per_op",
              per_op((after.loop_cpu_ns - before.loop_cpu_ns) / 1000.0), "us");
  out->Metric("net_server.bytes_per_op", per_op(after.bytes - before.bytes),
              "B");
  out->Metric("net_server.held_share",
              HeldShare(LatenciesUs(rate_units, rate, true),
                        1e6 * kConnections / plan.rate_units_per_s),
              "ratio");
  out->Metric("thread_pool.worker_cpu_us_per_op",
              per_op((after.worker_cpu_ns - before.worker_cpu_ns) / 1000.0),
              "us");
  out->Metric("thread_pool.queue_depth",
              samples > 0 ? depth_sum / samples : 0.0, "count");
  out->Metric("admission.rejected", after.rejected, "count");
  out->Metric("state_store.journal_bytes_per_op",
              per_op(after.journal_bytes - before.journal_bytes), "B");
  out->Metric("state_store.appends_per_op",
              per_op(after.appends - before.appends), "ratio");
  out->Metric("state_store.syncs_per_close",
              closes > 0 ? (after.checkpoints - before.checkpoints +
                            after.syncs - before.syncs) /
                               closes
                         : 0.0,
              "ratio");
  out->Metric("analytics.inline_share",
              served + fallbacks > 0 ? served / (served + fallbacks) : 0.0,
              "ratio");
  out->Metric("analytics.publishes_per_op",
              per_op(after.publishes - before.publishes), "ratio");

  // Transport floor: a wire round trip of list_mechanisms minus the same
  // request handled in process (one shard Post plus one completion).
  double handoff_us = 0;
  {
    std::vector<std::vector<Unit>> units(1);
    for (int i = 0; i < kFloorCalls; ++i) {
      Unit unit;
      unit.id = "L" + std::to_string(i);
      unit.line = "{\"id\":\"" + unit.id + "\",\"op\":\"list_mechanisms\",\"v\":1}\n";
      units[0].push_back(std::move(unit));
    }
    const PhaseResult wire = gen.RunClosed(units, 1, kPhaseTimeoutNs);
    out->Account("floor", wire);
    const double wire_us = Mean(LatenciesUs(units, wire, false));
    for (int i = 0; i < kFloorCalls; ++i) {
      protocol::Request request;
      request.op = protocol::RequestOp::kListMechanisms;
      request.version = 1;
      const int64_t span = tracer.Begin("thread_pool.handoff", -1, i);
      live.server->Handle(std::move(request));
      tracer.End(span);
    }
    handoff_us = SpanMeanUs(tracer.spans(), "thread_pool.handoff");
    out->Metric("net_server.floor_us", wire_us - handoff_us, "us");
    out->Metric("thread_pool.handoff_us", handoff_us, "us");
  }
  std::vector<CountingStore::Op> store_ops = store->TakeOps();
  started->reset();

  // -- The in-process replay of the serial phase, untraced then traced. ----
  int64_t untraced_ns = 0, traced_ns = 0;
  ClassStats classes;
  Tracer replay;
  for (int pass = 0; pass < 2; ++pass) {
    Result<std::unique_ptr<service::MarketplaceServer>> server = ReplayServer(
        streams, seed_dir, root + "/replay-" + std::to_string(pass));
    if (!server.ok()) {
      out->Violation(server.status().ToString());
      return;
    }
    Result<int64_t> ns = ReplaySerial(**server, serial_units[0],
                                      pass == 1 ? &replay : nullptr,
                                      pass == 1 ? &classes : nullptr);
    if (!ns.ok()) {
      out->Violation(ns.status().ToString());
      return;
    }
    (pass == 0 ? untraced_ns : traced_ns) = *ns;
  }
  out->Metric("trace.overhead_share",
              untraced_ns > 0 ? static_cast<double>(traced_ns - untraced_ns) /
                                    static_cast<double>(untraced_ns)
                              : 0.0,
              "ratio");
  const std::vector<Unit>& replayed = serial_units[0];
  for (const Span& span : replay.spans()) {
    const Unit& unit = replayed[static_cast<size_t>(span.request)];
    const int cls = UnitClass(unit);
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    const std::string_view name = span.name;
    if (name == "protocol.parse") classes.parse_ns[cls] += ns;
    if (name == "protocol.serialize") classes.serialize_ns[cls] += ns;
    if (name == "marketplace_server.handle") classes.handle_ns[cls] += ns;
    if (name == "request") classes.requests[cls] += unit.members;
  }
  for (const Unit& unit : replayed) {
    protocol::Request scratch;
    if (protocol::TryFastParseRequestLine(
            std::string_view(unit.line).substr(0, unit.line.size() - 1),
            &scratch)) {
      classes.fast[UnitClass(unit)] += unit.members;
    }
  }
  for (int cls = 0; cls < kNumClasses; ++cls) {
    const std::string suffix = std::string(".") + ClassName(cls);
    out->Metric("protocol.parse_us" + suffix,
                classes.Per(classes.parse_ns, cls, 1e-3), "us");
    out->Metric("protocol.fast_share" + suffix,
                classes.Per(classes.fast, cls, 1), "ratio");
    out->Metric("protocol.serialize_us" + suffix,
                classes.Per(classes.serialize_ns, cls, 1e-3), "us");
    out->Metric("protocol.request_bytes" + suffix,
                classes.Per(classes.request_bytes, cls, 1), "B");
    out->Metric("protocol.response_bytes" + suffix,
                classes.Per(classes.response_bytes, cls, 1), "B");
    out->Metric("marketplace_server.handle_us" + suffix,
                classes.Per(classes.handle_ns, cls, 1e-3), "us");
  }
  const SelfTimes self = ComputeSelfTimes(replay.spans());
  double self_sum = 0;
  for (const char* name : {"request", "protocol.parse", "admission.admit",
                           "marketplace_server.handle", "protocol.serialize"}) {
    self_sum += self.MeanUs(name);
  }
  out->Metric("trace.self_us.request", self.MeanUs("request"), "us");
  out->Metric("trace.self_us.parse", self.MeanUs("protocol.parse"), "us");
  out->Metric("trace.self_us.admit", self.MeanUs("admission.admit"), "us");
  out->Metric("trace.self_us.handle", self.MeanUs("marketplace_server.handle"),
              "us");
  out->Metric("trace.self_us.serialize", self.MeanUs("protocol.serialize"),
              "us");
  out->Metric("admission.admit_us", self.MeanUs("admission.admit"), "us");
  out->Metric("trace.serial_mean_us", serial_mean_us, "us");
  out->Metric("unattributed_us", serial_mean_us - self_sum, "us");

  // -- Standalone layers. ---------------------------------------------------
  out->Metric("pricing_session.submit_us",
              SpanMeanUs(streams.session_spans.spans(), "pricing_session.submit"),
              "us");
  out->Metric("pricing_session.advance_us",
              SpanMeanUs(streams.session_spans.spans(),
                         "pricing_session.advance"),
              "us");
  out->Metric("pricing_session.depart_us",
              SpanMeanUs(streams.session_spans.spans(), "pricing_session.depart"),
              "us");
  out->Metric("pricing_session.close_us",
              SpanMeanUs(streams.session_spans.spans(), "pricing_session.close"),
              "us");

  // simdb: the advisor over the workload's own rosters (query_price) and
  // per-slot arrivals (submit), in the serial phase.
  {
    Result<simdb::Scenario> scenario = simdb::TelemetryScenario(
        8, streams.shape.slots_per_period);
    if (!scenario.ok()) {
      out->Violation(scenario.status().ToString());
      return;
    }
    const simdb::CostModel model(&scenario->catalog);
    const service::ServiceConfig config;
    const simdb::PricingModel pricing(config.pricing);
    double roster_ns = 0, rosters = 0;
    for (const TenancyStream& tenancy : streams.tenancies) {
      const size_t first =
          tenancy.begin[static_cast<size_t>(SegmentIndex(kSerial, 0))];
      const size_t last =
          tenancy.begin[static_cast<size_t>(SegmentIndex(kRate, 0))];
      for (size_t r = first; r < last; ++r) {
        const StreamRequest& item = tenancy.requests[r];
        if (item.op != protocol::RequestOp::kSubmit &&
            item.op != protocol::RequestOp::kQueryPrice) {
          continue;
        }
        Result<protocol::Request> request =
            protocol::ParseRequestLine(item.body);
        if (!request.ok()) continue;
        const int64_t span = tracer.Begin("simdb.propose", -1, -1);
        Result<std::vector<simdb::Proposal>> proposals =
            simdb::ProposeOptimizations(scenario->catalog, model, pricing,
                                        request->tenants, config.advisor);
        tracer.End(span);
        if (!proposals.ok()) out->Violation(proposals.status().ToString());
        if (item.op == protocol::RequestOp::kQueryPrice) {
          const Span& s = tracer.spans().back();
          roster_ns += static_cast<double>(s.end_ns - s.start_ns);
          ++rosters;
        }
      }
    }
    out->Metric("simdb.propose_us", SpanMeanUs(tracer.spans(), "simdb.propose"),
                "us");
    // analytics.read_us: in-process handling of report and query_price,
    // minus the advisor work query_price does.
    const double reads = classes.requests[kRead];
    const double read_handle_us =
        classes.Per(classes.handle_ns, kRead, 1e-3);
    double qp_share = 0;
    if (reads > 0) {
      double qp = 0;
      for (const Unit& unit : replayed) {
        const TenancyStream& t = streams.tenancies[unit.tenancy];
        for (uint32_t m = 0; m < unit.members; ++m) {
          qp += t.requests[unit.first + m].op ==
                protocol::RequestOp::kQueryPrice;
        }
      }
      qp_share = qp / reads;
    }
    const double roster_us = rosters > 0 ? roster_ns / rosters / 1000.0 : 0.0;
    out->Metric("analytics.read_us",
                reads > 0 ? read_handle_us - qp_share * roster_us : 0.0, "us");
  }

  // state_store: the workload's own records and snapshots, replayed
  // straight into a fresh FileStateStore.
  {
    const std::string dir = root + "/store";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    Result<std::unique_ptr<service::FileStateStore>> direct =
        service::FileStateStore::Open(dir);
    if (!direct.ok()) {
      out->Violation(direct.status().ToString());
      return;
    }
    for (const CountingStore::Op& op : store_ops) {
      if (op.snapshot) {
        const int64_t span = tracer.Begin("state_store.checkpoint", -1, -1);
        const Status st = (*direct)->Checkpoint(op.tenancy, *op.snapshot);
        tracer.End(span);
        if (!st.ok()) out->Violation(st.ToString());
      } else {
        const int64_t span = tracer.Begin("state_store.append", -1, -1);
        const Status st = (*direct)->Append(op.tenancy, op.record);
        tracer.End(span);
        if (!st.ok()) out->Violation(st.ToString());
      }
    }
    out->Metric("state_store.append_us",
                SpanMeanUs(tracer.spans(), "state_store.append"), "us");
    out->Metric("state_store.checkpoint_us",
                SpanMeanUs(tracer.spans(), "state_store.checkpoint"), "us");
  }

  // The span file: the traced replay, the PricingSession replay and the
  // standalone calls, written at exit.
  tracer.Absorb(std::move(replay));
  tracer.Absorb(std::move(streams.session_spans));
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  const std::string path =
      ".bench_out/spans-" + std::string(WorkloadName(plan.workload)) + ".jsonl";
  if (!WriteSpans(tracer.spans(), path)) {
    out->Violation("could not write " + path);
  }
  out->record.Set("span_file", JsonValue::Str(path));
  out->record.Set("spans",
                  JsonValue::Number(static_cast<double>(tracer.spans().size())));
}

}  // namespace perfbench
