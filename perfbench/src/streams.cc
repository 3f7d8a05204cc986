#include "streams.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/rng.h"
#include "service/pricing_session.h"
#include "simdb/scenarios.h"

namespace perfbench {
namespace {

using optshare::JsonValue;
using optshare::Result;
using optshare::Rng;
using optshare::Status;
namespace protocol = optshare::service::protocol;
namespace service = optshare::service;
namespace simdb = optshare::simdb;
using protocol::Request;
using protocol::RequestOp;

/// Sizing argument of the telemetry scenario the catalogs are built from.
constexpr int kCatalogTenants = 8;
/// Quote mix: 70 % query_price, 20 % report, 10 % the billing stream.
constexpr double kQuotePriceShare = 0.7;
constexpr double kQuoteReportShare = 0.2;
/// Share of quote's reports that name a closed period (the rest read the
/// live period). Closed-period reports are large (~40 KB); at 3 of 4 they
/// are 15 % of quote's lines, so the serial p90 falls inside their
/// latency mode rather than on the edge between two modes.
constexpr double kHistoricalReportShare = 0.75;
constexpr int kMaxRoster = 8;
constexpr double kDepartProbability = 0.25;

uint64_t TenancySeed(uint64_t seed, Workload workload, int index) {
  optshare::SplitMix64 mix(seed * 0x100000001B3ULL ^
                           (static_cast<uint64_t>(workload) << 32) ^
                           static_cast<uint64_t>(index + 1));
  mix.Next();
  return mix.Next();
}

/// One arriving tenant of the telemetry preset: a device lookup on the
/// telemetry table at the preset's heavy or light execution rate, jittered.
simdb::SimUser DrawTenant(Rng& rng, int start, int end) {
  simdb::SimUser tenant;
  tenant.start = start;
  tenant.end = end;
  static constexpr double kRates[] = {2500.0, 150.0, 150.0};
  tenant.executions_per_slot =
      kRates[rng.UniformInt(0, 2)] * rng.Uniform(0.5, 1.5);
  simdb::Workload::Entry entry;
  entry.query.table = "telemetry";
  entry.query.aggregate = true;
  entry.query.predicates = {{"device", 2e-7}};
  tenant.workload.entries.push_back(std::move(entry));
  return tenant;
}

/// Generates one tenancy's stream and replays each request through a
/// direct PricingSession, with built structures and the cumulative ledger
/// carried across periods exactly as the server carries them.
class TenancyGenerator {
 public:
  TenancyGenerator(Workload workload, const Shape& shape, int index,
                   uint64_t seed, const simdb::Catalog* catalog,
                   TenancyStream* out)
      : workload_(workload),
        shape_(shape),
        rng_(TenancySeed(seed, workload, index)),
        catalog_(catalog),
        out_(out) {
    config_.slots_per_period = shape.slots_per_period;
    config_.mechanism = "addon";
  }

  /// Appends the next request of the workload's mix.
  Status Next() {
    if (workload_ != Workload::kQuote) return NextWrite();
    const double u = rng_.NextDouble();
    if (u < kQuotePriceShare) return QueryPrice();
    if (u < kQuotePriceShare + kQuoteReportShare) return Report();
    return NextWrite();
  }

  /// Appends the next request of the billing pattern: per slot, one submit
  /// of the slot's arrivals, a departure with probability 1/4, then
  /// advance_slot; at period end close_period and the next open_period.
  /// The closed period's report follows the first slot of the next period,
  /// so the read does not wait behind the close's checkpoint.
  Status NextWrite() {
    switch (step_) {
      case Step::kOpen:
        return Open();
      case Step::kSubmit:
        if (report_due_ > 0 && slot_ > 0) {
          const int period = report_due_;
          report_due_ = 0;
          return HistoricalReport(period);
        }
        return Submit();
      case Step::kDepart: {
        step_ = Step::kAdvance;
        if (rng_.Bernoulli(kDepartProbability)) {
          std::vector<int> eligible;
          for (size_t i = 0; i < starts_.size(); ++i) {
            if (starts_[i] <= slot_ && ends_[i] > slot_ + 1) {
              eligible.push_back(static_cast<int>(i));
            }
          }
          if (!eligible.empty()) {
            return Depart(eligible[static_cast<size_t>(rng_.UniformInt(
                0, static_cast<int64_t>(eligible.size()) - 1))]);
          }
        }
        return Advance();
      }
      case Step::kAdvance:
        return Advance();
      case Step::kClose:
        return Close();
    }
    return Status::Internal("unreachable generator step");
  }

  /// True at the start of slot `slot` of period `period`, before its submit.
  bool At(int period, int slot) const {
    return step_ == Step::kSubmit && arrived_ == 0 &&
           periods_run_ + 1 == period && slot_ == slot;
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// The process crashed here: closed reports retained in memory are gone,
  /// so later historical reports may only name periods closed after it.
  void MarkCrash() { closed_since_crash_.clear(); }

  std::string LiveReport() const {
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("tenancy", JsonValue::Str(out_->name));
    payload.Set("periods_run", JsonValue::Number(periods_run_));
    payload.Set("period_open", JsonValue::Bool(session_.has_value()));
    payload.Set("current_slot",
                JsonValue::Number(session_ ? session_->slots_advanced() : 0));
    payload.Set("num_tenants",
                JsonValue::Number(session_ ? session_->num_tenants() : 0));
    JsonValue built = JsonValue::MakeArray();
    for (const std::string& name : built_) built.Append(JsonValue::Str(name));
    payload.Set("built_structures", std::move(built));
    payload.Set("cumulative_balance", JsonValue::Number(cumulative_balance_));
    payload.Set("cumulative_utility", JsonValue::Number(cumulative_utility_));
    return payload.Dump();
  }

 private:
  enum class Step { kOpen, kSubmit, kDepart, kAdvance, kClose };

  Request Base(RequestOp op) const {
    Request request;
    request.op = op;
    request.version = 1;
    request.tenancy = out_->name;
    return request;
  }

  int Emit(const Request& request, OpClass cls, std::string expected = {}) {
    StreamRequest item;
    item.body = protocol::ToJson(request).Dump();
    item.op = request.op;
    item.cls = cls;
    if (!expected.empty()) {
      item.expect = static_cast<int>(out_->expected.size());
      out_->expected.push_back(std::move(expected));
    }
    out_->requests.push_back(std::move(item));
    return static_cast<int>(out_->requests.size()) - 1;
  }

  int64_t BeginSpan(const char* name) {
    return tracer_ == nullptr
               ? -1
               : tracer_->Begin(name, -1,
                                static_cast<int64_t>(out_->requests.size()));
  }
  void EndSpan(int64_t span) {
    if (span >= 0) tracer_->End(span);
  }

  Status Open() {
    Request request = Base(RequestOp::kOpenPeriod);
    if (!created_) {
      protocol::CatalogSpec spec;
      spec.scenario = "telemetry";
      spec.scenario_tenants = kCatalogTenants;
      spec.scenario_slots = shape_.slots_per_period;
      request.catalog = spec;
      request.config = config_;
      created_ = true;
    }
    Result<service::PricingSession> session = service::PricingSession::Open(
        catalog_, config_, built_, periods_run_ + 1);
    if (!session.ok()) return session.status();
    session_.emplace(std::move(*session));
    slot_ = 0;
    starts_.clear();
    ends_.clear();
    step_ = Step::kSubmit;
    Emit(request, kWrite);
    return Status::OK();
  }

  /// One arriving tenant per submit; after the slot's last arrival the
  /// slot moves on to its departure.
  Status Submit() {
    Request request = Base(RequestOp::kSubmit);
    const int start = slot_ + 1;
    const int end =
        static_cast<int>(rng_.UniformInt(start, shape_.slots_per_period));
    request.tenants.push_back(DrawTenant(rng_, start, end));
    starts_.push_back(start);
    ends_.push_back(end);
    const int64_t span = BeginSpan("pricing_session.submit");
    const Status submitted = session_->Submit(request.tenants);
    EndSpan(span);
    if (!submitted.ok()) return submitted;
    if (++arrived_ == shape_.arrivals_per_slot) {
      arrived_ = 0;
      step_ = Step::kDepart;
    }
    Emit(request, kWrite);
    return Status::OK();
  }

  Status Depart(int tenant) {
    Request request = Base(RequestOp::kDepart);
    request.tenant = tenant;
    const int64_t span = BeginSpan("pricing_session.depart");
    const Status departed = session_->Depart(tenant);
    EndSpan(span);
    if (!departed.ok()) return departed;
    ends_[static_cast<size_t>(tenant)] = slot_ + 1;
    Emit(request, kWrite);
    return Status::OK();
  }

  Status Advance() {
    Request request = Base(RequestOp::kAdvanceSlot);
    request.slots = 1;
    const int64_t span = BeginSpan("pricing_session.advance");
    const Status advanced = session_->AdvanceSlot();
    EndSpan(span);
    if (!advanced.ok()) return advanced;
    ++slot_;
    step_ = slot_ == shape_.slots_per_period ? Step::kClose : Step::kSubmit;
    Emit(request, kWrite);
    return Status::OK();
  }

  Status Close() {
    const Request request = Base(RequestOp::kClosePeriod);
    const int64_t span = BeginSpan("pricing_session.close");
    Result<service::PeriodReport> report = session_->Close();
    EndSpan(span);
    if (!report.ok()) return report.status();
    ++periods_run_;
    built_ = session_->built_structures();
    cumulative_balance_ += report->ledger.CloudBalance();
    cumulative_utility_ += report->ledger.TotalUtility();
    session_.reset();
    JsonValue report_json = protocol::ToJson(*report);
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("report", report_json);
    reports_.push_back(std::move(report_json));
    closed_since_crash_.push_back(periods_run_);
    report_due_ = periods_run_;
    step_ = Step::kOpen;
    Emit(request, kClose, payload.Dump());
    return Status::OK();
  }

  Status HistoricalReport(int period) {
    Request request = Base(RequestOp::kReport);
    request.period = period;
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("tenancy", JsonValue::Str(out_->name));
    payload.Set("period", JsonValue::Number(period));
    payload.Set("report", reports_[static_cast<size_t>(period - 1)]);
    Emit(request, kRead, payload.Dump());
    return Status::OK();
  }

  Status Report() {
    if (!closed_since_crash_.empty() &&
        rng_.Bernoulli(kHistoricalReportShare)) {
      return HistoricalReport(closed_since_crash_[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(closed_since_crash_.size()) -
                                 1))]);
    }
    Emit(Base(RequestOp::kReport), kRead, LiveReport());
    return Status::OK();
  }

  Status QueryPrice() {
    Request request = Base(RequestOp::kQueryPrice);
    request.version = 2;
    const int n = static_cast<int>(rng_.UniformInt(1, kMaxRoster));
    for (int k = 0; k < n; ++k) {
      const int start =
          static_cast<int>(rng_.UniformInt(1, shape_.slots_per_period));
      const int end = static_cast<int>(
          rng_.UniformInt(start, shape_.slots_per_period));
      request.tenants.push_back(DrawTenant(rng_, start, end));
    }
    Emit(request, kRead);
    return Status::OK();
  }

  Workload workload_;
  Shape shape_;
  Rng rng_;
  const simdb::Catalog* catalog_;
  TenancyStream* out_;
  Tracer* tracer_ = nullptr;  ///< Records PricingSession calls when set.
  service::ServiceConfig config_;

  Step step_ = Step::kOpen;
  bool created_ = false;
  std::optional<service::PricingSession> session_;
  int slot_ = 0;                 ///< Slots advanced in the open period.
  int arrived_ = 0;              ///< Arrivals submitted in this slot.
  std::vector<int> starts_;      ///< Roster-indexed arrival slots.
  std::vector<int> ends_;        ///< Roster-indexed effective ends.
  std::vector<std::string> built_;
  int periods_run_ = 0;
  double cumulative_balance_ = 0.0;
  double cumulative_utility_ = 0.0;
  std::vector<JsonValue> reports_;  ///< Closed reports, by period - 1.
  std::vector<int> closed_since_crash_;
  int report_due_ = 0;  ///< Closed period whose report is still to send.
};

/// Slot of period 1 at which tenancy `index` is crashed. Spread over most
/// of the period so the tenancies close their periods at evenly spaced
/// moments and every stretch of a phase carries the same mix of work; the
/// quote tenancies sit late in the period so warm-up closes one period
/// each.
int SeedSlot(Workload workload, int index) {
  if (workload == Workload::kQuote) return 80 + (index * 5) % 12;
  return 8 + (index * 37) % 80;
}

Status GenerateTenancy(Workload workload, const Shape& shape, int index,
                       uint64_t seed, const PhaseSizes& sizes,
                       const simdb::Catalog* catalog, TenancyStream* out,
                       Tracer* tracer) {
  char name[16];
  std::snprintf(name, sizeof(name), "t%02d", index);
  out->name = name;
  TenancyGenerator gen(workload, shape, index, seed, catalog, out);
  const size_t frame = static_cast<size_t>(shape.frame);
  const auto fill_frame = [&](size_t from) -> Status {
    while ((out->requests.size() - from) % frame != 0) {
      OPTSHARE_RETURN_NOT_OK(gen.NextWrite());
    }
    return Status::OK();
  };

  // Seeding prefix: the billing pattern up to a fixed mid-period point.
  out->begin.push_back(0);
  while (!gen.At(1, SeedSlot(workload, index))) {
    OPTSHARE_RETURN_NOT_OK(gen.NextWrite());
  }
  OPTSHARE_RETURN_NOT_OK(fill_frame(0));
  out->live_after_seed = gen.LiveReport();
  gen.MarkCrash();

  // Warm-up. Quote tenancies first finish period 1, so historical reports
  // have a closed period to name.
  const size_t warmup = out->requests.size();
  out->begin.push_back(warmup);
  if (workload == Workload::kQuote) {
    while (!gen.At(2, 0)) OPTSHARE_RETURN_NOT_OK(gen.NextWrite());
  }
  for (size_t i = 0; i < sizes.warmup; ++i) {
    OPTSHARE_RETURN_NOT_OK(gen.Next());
  }
  OPTSHARE_RETURN_NOT_OK(fill_frame(warmup));

  // PricingSession calls are traced over round 0's serial phase only: the
  // requests the traced run replays layer by layer.
  const size_t counts[] = {sizes.serial, sizes.rate, sizes.peak};
  for (int round = 0; round < sizes.rounds; ++round) {
    for (int phase = kSerial; phase <= kPeak; ++phase) {
      out->begin.push_back(out->requests.size());
      gen.set_tracer(round == 0 && phase == kSerial ? tracer : nullptr);
      for (size_t i = 0; i < counts[phase - kSerial]; ++i) {
        OPTSHARE_RETURN_NOT_OK(gen.Next());
      }
    }
  }
  out->begin.push_back(out->requests.size());
  return Status::OK();
}

}  // namespace

bool WorkloadFromName(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kBilling, Workload::kQuote, Workload::kBatch}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kBilling:
      return "billing";
    case Workload::kQuote:
      return "quote";
    case Workload::kBatch:
      return "batch";
  }
  return "?";
}

const char* ClassName(int cls) {
  static const char* kNames[] = {"write", "close", "read"};
  return kNames[cls];
}

int SegmentIndex(int phase, int round) {
  return phase <= kWarmup ? phase : kSerial + 3 * round + (phase - kSerial);
}

const char* PhaseName(int phase) {
  static const char* kNames[] = {"seed", "warmup", "serial", "rate", "peak"};
  return kNames[phase];
}

Shape ShapeOf(Workload workload) {
  Shape shape;
  switch (workload) {
    case Workload::kBilling:
      shape.tenancies = 64;
      break;
    case Workload::kQuote:
      shape.tenancies = 16;
      break;
    case Workload::kBatch:
      shape.tenancies = 64;
      shape.frame = 16;
      break;
  }
  return shape;
}

Result<Streams> GenerateStreams(Workload workload, uint64_t seed,
                                const PhaseSizes& sizes, bool traced,
                                int threads) {
  Streams streams;
  streams.workload = workload;
  streams.shape = ShapeOf(workload);
  Result<simdb::Scenario> scenario = simdb::TelemetryScenario(
      kCatalogTenants, streams.shape.slots_per_period);
  if (!scenario.ok()) return scenario.status();
  const simdb::Catalog& catalog = scenario->catalog;

  const int n = streams.shape.tenancies;
  streams.tenancies.resize(static_cast<size_t>(n));
  threads = std::max(1, std::min(threads, n));
  std::vector<Status> status(static_cast<size_t>(threads));
  std::vector<Tracer> tracers(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = t; i < n && status[t].ok(); i += threads) {
        status[t] = GenerateTenancy(
            workload, streams.shape, i, seed, sizes, &catalog,
            &streams.tenancies[static_cast<size_t>(i)],
            traced ? &tracers[static_cast<size_t>(t)] : nullptr);
        if (!status[t].ok()) {
          status[t] = Status::Internal(
              "PricingSession replay rejected tenancy " + std::to_string(i) +
              "'s stream: " + status[t].ToString());
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  for (Tracer& tracer : tracers) streams.session_spans.Absorb(std::move(tracer));
  return streams;
}

uint64_t StreamDigest(const Streams& streams) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  for (const TenancyStream& tenancy : streams.tenancies) {
    for (size_t b : tenancy.begin) mix(std::to_string(b));
    for (const StreamRequest& request : tenancy.requests) mix(request.body);
  }
  return h;
}

std::vector<std::vector<Unit>> BuildPhase(const Streams& streams, int phase,
                                          int round, int connections) {
  const size_t segment = static_cast<size_t>(SegmentIndex(phase, round));
  static const char kLetters[] = "SWsrp";
  const size_t frame = static_cast<size_t>(streams.shape.frame);
  std::vector<std::vector<Unit>> out(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    std::vector<size_t> mine;
    for (size_t i = static_cast<size_t>(c); i < streams.tenancies.size();
         i += static_cast<size_t>(connections)) {
      mine.push_back(i);
    }
    std::vector<size_t> cursor;
    for (size_t i : mine) {
      cursor.push_back(streams.tenancies[i].begin[segment]);
    }
    bool more = true;
    while (more) {
      more = false;
      for (size_t k = 0; k < mine.size(); ++k) {
        const TenancyStream& tenancy = streams.tenancies[mine[k]];
        const size_t end = tenancy.begin[segment + 1];
        if (cursor[k] >= end) continue;
        more = true;
        const size_t count = std::min(frame, end - cursor[k]);
        Unit unit;
        unit.tenancy = static_cast<uint32_t>(mine[k]);
        unit.first = static_cast<uint32_t>(cursor[k]);
        unit.members = static_cast<uint16_t>(count);
        unit.id = std::string(1, kLetters[phase]) + std::to_string(c) + "." +
                  std::to_string(out[static_cast<size_t>(c)].size());
        std::string& line = unit.line;
        line = "{\"id\":\"" + unit.id + "\",";
        if (frame == 1) {
          line.append(tenancy.requests[cursor[k]].body, 1, std::string::npos);
        } else {
          line += "\"op\":\"batch\",\"requests\":[";
        }
        for (size_t r = cursor[k]; r < cursor[k] + count; ++r) {
          const StreamRequest& request = tenancy.requests[r];
          unit.classes |= static_cast<uint8_t>(1u << request.cls);
          unit.checked = unit.checked || request.expect >= 0;
          unit.ordered_read = unit.ordered_read ||
                              (request.cls == kRead && request.expect >= 0);
          if (frame != 1) {
            if (r != cursor[k]) line += ',';
            line += request.body;
          }
        }
        if (frame != 1) line += "],\"v\":3}";
        line += '\n';
        cursor[k] += count;
        out[static_cast<size_t>(c)].push_back(std::move(unit));
      }
    }
  }
  return out;
}

}  // namespace perfbench
