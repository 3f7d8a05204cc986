#include "harness.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/money.h"
#include "service/protocol.h"
#include "service/state_store.h"
#include "sysinfo.h"
#include "trace.h"

namespace perfbench {
namespace {

using optshare::JsonValue;
using optshare::Result;
using optshare::Status;
namespace service = optshare::service;
namespace protocol = optshare::service::protocol;

/// Per-workload calibration on a 4-vCPU Xeon host: the mean serial round
/// trip and the closed-loop throughput of the parent commit, used only to
/// size each phase so a run measures for about --seconds; the open-loop
/// rate (lines per second), with headroom for hypervisor-steal bursts; and
/// the closed-loop window per connection, at most the tenancies per
/// connection so no tenancy has two lines in flight and the
/// read-your-writes gate never holds a peak-phase line back.
struct Calibration {
  double serial_us_per_unit;
  double peak_requests_per_s;
  double rate_units_per_s;
  int peak_window;
};

Calibration CalibrationOf(Workload workload) {
  switch (workload) {
    case Workload::kBilling:
      return {150.0, 19000.0, 3000.0, 8};
    case Workload::kQuote:
      return {330.0, 9000.0, 700.0, 4};
    case Workload::kBatch:
      return {1000.0, 30000.0, 250.0, 4};
  }
  return {};
}

/// Shares of --seconds given to the serial, rate and peak phases; the
/// rest covers warm-up and the set-ups.
constexpr double kSerialShare = 0.3;
constexpr double kRateShare = 0.3;
constexpr double kPeakShare = 0.3;
constexpr int kSetups = 7;
/// Rounds of serial → rate → peak in the end-to-end run. Many short rounds
/// spread each metric's samples over the whole run, so a slow stretch of
/// the host (seconds long on the reference host) moves few of them.
constexpr int kRounds = 10;
/// Warm-up requests per tenancy, after any forced period close.
constexpr size_t kWarmupRequests = 48;

size_t RoundToFrame(double requests, int frame) {
  const size_t f = static_cast<size_t>(frame);
  const size_t n = static_cast<size_t>(std::ceil(requests));
  return std::max(f, (n + f - 1) / f * f);
}

Unit ReportUnit(const std::string& id, const std::string& tenancy) {
  Unit unit;
  unit.id = id;
  unit.line = "{\"id\":\"" + id + "\",\"op\":\"report\",\"tenancy\":\"" +
              tenancy + "\",\"v\":1}\n";
  unit.checked = true;
  return unit;
}

/// The "result" document of a response line (parsed).
Result<JsonValue> ResultOf(std::string_view line) {
  Result<JsonValue> doc = JsonValue::Parse(line);
  if (!doc.ok()) return doc.status();
  const JsonValue* result = doc->Find("result");
  if (result == nullptr) return Status::Internal("response has no result");
  return *result;
}

Status CheckBalance(const protocol::RequestOp op, const JsonValue& result,
                    const std::string& where) {
  if (op == protocol::RequestOp::kClosePeriod ||
      (op == protocol::RequestOp::kReport && result.Find("report"))) {
    Result<service::PeriodReport> report =
        protocol::PeriodReportFromJson(*result.Find("report"));
    if (!report.ok()) return report.status();
    if (report->ledger.CloudBalance() < -optshare::kMoneyEpsilon) {
      return Status::Internal(where + ": period " +
                              std::to_string(report->period) +
                              " ledger balance is negative");
    }
  } else if (op == protocol::RequestOp::kReport) {
    const JsonValue* balance = result.Find("cumulative_balance");
    if (balance == nullptr || !balance->is_number() ||
        balance->AsNumber() < -optshare::kMoneyEpsilon) {
      return Status::Internal(where + ": cumulative balance is negative");
    }
  }
  return Status::OK();
}

}  // namespace

Plan MakePlan(Workload workload, double seconds, bool traced) {
  const Shape shape = ShapeOf(workload);
  const Calibration cal = CalibrationOf(workload);
  const int rounds = traced ? 1 : kRounds;
  // Seconds of each phase per round, and the per-tenancy share of it.
  const double per_round = seconds / rounds;
  const double per_tenancy = 1.0 / shape.tenancies;
  Plan plan;
  plan.workload = workload;
  plan.seconds = seconds;
  plan.sizes.rounds = rounds;
  plan.sizes.warmup = RoundToFrame(kWarmupRequests, shape.frame);
  plan.sizes.serial = RoundToFrame(per_round * kSerialShare * 1e6 /
                                       cal.serial_us_per_unit * shape.frame *
                                       per_tenancy,
                                   shape.frame);
  plan.sizes.rate = RoundToFrame(per_round * kRateShare *
                                     cal.rate_units_per_s * shape.frame *
                                     per_tenancy,
                                 shape.frame);
  plan.sizes.peak = RoundToFrame(
      per_round * kPeakShare * cal.peak_requests_per_s * per_tenancy,
      shape.frame);
  plan.rate_units_per_s = cal.rate_units_per_s;
  plan.peak_window = cal.peak_window;
  plan.setups = kSetups;
  return plan;
}

JsonValue PlanJson(const Plan& plan) {
  const Shape shape = ShapeOf(plan.workload);
  const auto total = [&](size_t per_tenancy) {
    return JsonValue::Number(static_cast<double>(per_tenancy) *
                             shape.tenancies);
  };
  JsonValue out = JsonValue::MakeObject();
  out.Set("tenancies", JsonValue::Number(shape.tenancies));
  out.Set("slots_per_period", JsonValue::Number(shape.slots_per_period));
  out.Set("frame", JsonValue::Number(shape.frame));
  out.Set("connections", JsonValue::Number(kConnections));
  out.Set("server_workers", JsonValue::Number(kServerWorkers));
  out.Set("setups", JsonValue::Number(plan.setups));
  out.Set("rounds", JsonValue::Number(plan.sizes.rounds));
  out.Set("max_round_steal", JsonValue::Number(kMaxRoundSteal));
  out.Set("warmup_requests_min", total(plan.sizes.warmup));
  out.Set("serial_requests_per_round", total(plan.sizes.serial));
  out.Set("rate_requests_per_round", total(plan.sizes.rate));
  out.Set("rate_lines_per_s", JsonValue::Number(plan.rate_units_per_s));
  out.Set("peak_requests_per_round", total(plan.sizes.peak));
  out.Set("peak_window", JsonValue::Number(plan.peak_window));
  return out;
}

Status SeedDataDir(const Streams& streams, const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Result<std::unique_ptr<service::FileStateStore>> store =
      service::FileStateStore::Open(dir);
  if (!store.ok()) return store.status();
  service::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.store = std::shared_ptr<service::StateStore>(std::move(*store));
  service::MarketplaceServer server(options);
  const std::vector<std::vector<Unit>> units =
      BuildPhase(streams, kSeed, 0, 1);
  for (const Unit& unit : units[0]) {
    const std::string response =
        server.HandleLine(unit.line.substr(0, unit.line.size() - 1));
    if (!ResponseOk(unit, response)) {
      return Status::Internal("seeding: " + response.substr(0, 240));
    }
  }
  for (const TenancyStream& tenancy : streams.tenancies) {
    const Unit unit = ReportUnit("A", tenancy.name);
    const std::string response =
        server.HandleLine(unit.line.substr(0, unit.line.size() - 1));
    Result<JsonValue> result = ResultOf(response);
    if (!result.ok()) return result.status();
    if (result->Dump() != tenancy.live_after_seed) {
      return Status::Internal("seeding: acknowledged live report of " +
                              tenancy.name +
                              " differs from the PricingSession replay");
    }
  }
  return Status::OK();  // ~MarketplaceServer drains without checkpointing.
}

LiveServer::~LiveServer() {
  gen.reset();
  if (net) net->Stop();
  net.reset();
  server.reset();
}

Result<std::unique_ptr<LiveServer>> StartServer(
    const Streams& streams, const std::string& dir,
    std::shared_ptr<service::StateStore> store) {
  auto live = std::make_unique<LiveServer>();
  const std::vector<int> before = ThreadIds();
  const int64_t t0 = NowNs();
  if (store == nullptr) {
    Result<std::unique_ptr<service::FileStateStore>> file =
        service::FileStateStore::Open(dir);
    if (!file.ok()) return file.status();
    store = std::shared_ptr<service::StateStore>(std::move(*file));
  }
  service::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.store = std::move(store);
  live->server = std::make_unique<service::MarketplaceServer>(options);
  const int64_t r0 = NowNs();
  Result<service::RecoveryStats> recovered = live->server->Recover();
  const int64_t r1 = NowNs();
  if (!recovered.ok()) return recovered.status();
  live->recovery = *recovered;
  live->net = std::make_unique<service::NetServer>(live->server.get());
  OPTSHARE_RETURN_NOT_OK(live->net->Start());
  Result<LoadGenerator> gen =
      LoadGenerator::Connect("127.0.0.1", live->net->port(), kConnections);
  if (!gen.ok()) return gen.status();
  live->gen.emplace(std::move(*gen));
  std::vector<std::vector<Unit>> first(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    first[static_cast<size_t>(c)].push_back(ReportUnit(
        "F" + std::to_string(c),
        streams.tenancies[static_cast<size_t>(c) % streams.tenancies.size()]
            .name));
  }
  const PhaseResult answered =
      live->gen->RunClosed(first, 1, 30 * int64_t{1000000000});
  const int64_t t1 = NowNs();
  if (answered.failed_units > 0) {
    return Status::Internal("set-up: first request failed: " +
                            answered.errors.front());
  }
  live->setup_s = static_cast<double>(t1 - t0) / 1e9;
  live->recover_s = static_cast<double>(r1 - r0) / 1e9;
  // Shard workers start with the MarketplaceServer, the event loop with
  // NetServer::Start; the tids new since `before` are theirs.
  const std::vector<int> after = ThreadIds();
  const int self = CurrentThreadId();
  std::vector<int> fresh;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(fresh));
  fresh.erase(std::remove(fresh.begin(), fresh.end(), self), fresh.end());
  // Thread ids grow in creation order: workers first, then the loop.
  if (!fresh.empty()) {
    live->loop_tids.push_back(fresh.back());
    fresh.pop_back();
  }
  live->worker_tids = fresh;
  return live;
}

Status CheckRecovered(const Streams& streams, LiveServer& live) {
  std::vector<std::vector<Unit>> units(kConnections);
  for (size_t i = 0; i < streams.tenancies.size(); ++i) {
    units[i % kConnections].push_back(
        ReportUnit("C" + std::to_string(i), streams.tenancies[i].name));
  }
  const PhaseResult result =
      live.gen->RunClosed(units, 4, 30 * int64_t{1000000000});
  if (result.failed_units > 0) {
    return Status::Internal("recovery check: " + result.errors.front());
  }
  for (size_t c = 0; c < units.size(); ++c) {
    for (size_t k = 0; k < units[c].size(); ++k) {
      const size_t i = k * kConnections + c;
      Result<JsonValue> doc = ResultOf(result.kept[c][k]);
      if (!doc.ok()) return doc.status();
      if (doc->Dump() != streams.tenancies[i].live_after_seed) {
        return Status::Internal(
            "recovery check: live report of " + streams.tenancies[i].name +
            " after recovery differs from the one acknowledged before the "
            "crash");
      }
    }
  }
  return Status::OK();
}

Status DeepCheck(const Streams& streams,
                 const std::vector<std::vector<Unit>>& units,
                 const PhaseResult& result) {
  for (size_t c = 0; c < units.size(); ++c) {
    for (size_t k = 0; k < units[c].size(); ++k) {
      const Unit& unit = units[c][k];
      // Failed units are already counted; their documents are errors.
      if (!unit.checked || !result.timing[c][k].ok) continue;
      const TenancyStream& tenancy = streams.tenancies[unit.tenancy];
      Result<JsonValue> doc = ResultOf(result.kept[c][k]);
      if (!doc.ok()) return doc.status();
      for (uint32_t m = 0; m < unit.members; ++m) {
        const StreamRequest& request = tenancy.requests[unit.first + m];
        if (request.expect < 0) continue;
        const JsonValue* member = &*doc;
        if (unit.members > 1 || streams.shape.frame > 1) {
          const JsonValue* responses = doc->Find("responses");
          if (responses == nullptr || !responses->is_array() ||
              responses->AsArray().size() != unit.members) {
            return Status::Internal("id " + unit.id +
                                    ": batch response has the wrong shape");
          }
          member = responses->AsArray()[m].Find("result");
          if (member == nullptr) {
            return Status::Internal("id " + unit.id + ": member " +
                                    std::to_string(m) + " has no result");
          }
        }
        const std::string where = "id " + unit.id + " (" + tenancy.name +
                                  " request " +
                                  std::to_string(unit.first + m) + ")";
        if (member->Dump() !=
            tenancy.expected[static_cast<size_t>(request.expect)]) {
          return Status::Internal(
              where + ": served " +
              std::string(protocol::RequestOpName(request.op)) +
              " result differs from the PricingSession replay");
        }
        OPTSHARE_RETURN_NOT_OK(CheckBalance(request.op, *member, where));
      }
    }
  }
  return Status::OK();
}

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit) {
  JsonValue metric = JsonValue::MakeObject();
  metric.Set("value", JsonValue::Number(value));
  metric.Set("unit", JsonValue::Str(unit));
  metrics.Set(name, std::move(metric));
}

void Outcome::Account(const char* phase, const PhaseResult& result) {
  attempted += result.requests;
  failed += result.failed_requests;
  for (const std::string& error : result.errors) {
    Violation(std::string(phase) + ": " + error);
  }
}

void SettlePhase(const Streams& streams, int phase,
                 const std::vector<std::vector<Unit>>& units,
                 const PhaseResult& result, Outcome* out) {
  out->Account(PhaseName(phase), result);
  const Status checked = DeepCheck(streams, units, result);
  if (!checked.ok()) out->Violation(checked.ToString());
}

uint64_t AnsweredRequests(const std::vector<std::vector<Unit>>& units,
                          const PhaseResult& result) {
  uint64_t n = 0;
  for (size_t c = 0; c < units.size(); ++c) {
    for (size_t k = 0; k < units[c].size(); ++k) {
      if (result.timing[c][k].ok) n += units[c][k].members;
    }
  }
  return n;
}

double HeldShare(const std::vector<double>& latencies_us, double gap_us) {
  if (latencies_us.empty()) return 0.0;
  size_t held = 0;
  for (double v : latencies_us) held += v >= gap_us ? 1 : 0;
  return static_cast<double>(held) / static_cast<double>(latencies_us.size());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int UnitClass(const Unit& unit) {
  if (unit.classes & (1u << kClose)) return kClose;
  if (unit.classes & (1u << kRead)) return kRead;
  return kWrite;
}

std::vector<double> LatenciesUs(const std::vector<std::vector<Unit>>& units,
                                const PhaseResult& result, bool from_due,
                                int cls) {
  std::vector<double> out;
  for (size_t c = 0; c < units.size(); ++c) {
    for (size_t k = 0; k < units[c].size(); ++k) {
      const UnitTiming& t = result.timing[c][k];
      if (!t.ok || t.recv_ns < 0 || (cls >= 0 && UnitClass(units[c][k]) != cls)) {
        continue;
      }
      out.push_back(static_cast<double>(t.recv_ns -
                                        (from_due ? t.due_ns : t.sent_ns)) /
                    1000.0);
    }
  }
  return out;
}

Status CopyTree(const std::string& src, const std::string& dst) {
  std::error_code ec;
  std::filesystem::remove_all(dst, ec);
  std::filesystem::copy(src, dst, std::filesystem::copy_options::recursive,
                        ec);
  if (ec) return Status::Internal("copy " + src + ": " + ec.message());
  return Status::OK();
}

}  // namespace perfbench
