#include "strategy/harness.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "service/net_client.h"
#include "service/net_server.h"
#include "simdb/advisor.h"
#include "simdb/cost_model.h"

namespace optshare::strategy {
namespace {

using service::MarketplaceServer;
using service::NetClient;
using service::NetServer;
using service::PeriodReport;
using service::ServiceConfig;
using service::StructureOutcome;
using Op = service::protocol::RequestOp;
using service::protocol::Request;
using service::protocol::Response;

constexpr char kTenancy[] = "strategy-lab";

ServiceConfig ConfigFromTrace(const TraceConfig& config) {
  ServiceConfig service;
  service.slots_per_period = config.slots_per_period;
  service.maintenance_fraction = config.maintenance_fraction;
  service.mechanism = config.mechanism;
  return service;
}

service::protocol::CatalogSpec CatalogSpecFromTrace(
    const TraceCatalog& catalog) {
  service::protocol::CatalogSpec spec;
  spec.scenario = catalog.scenario;
  spec.scenario_tenants = catalog.scenario_tenants;
  spec.scenario_slots = catalog.scenario_slots;
  spec.tables = catalog.tables;
  return spec;
}

Request TenancyRequest(Op op, const std::string& tenancy) {
  Request request;
  request.op = op;
  request.version = 2;
  request.tenancy = tenancy;
  return request;
}

/// One executed period of one run.
struct PeriodTrack {
  PeriodReport report;
  std::string line;  ///< Canonical report dump (the determinism surface).
  std::vector<StrategistIdentity> identities;
  std::vector<UserId> identity_ids;  ///< Roster ids, aligned above.
  std::optional<TimeSlot> depart_after;
  std::vector<simdb::SimUser> background;  ///< Declared == true demand.
};

struct RunOutput {
  std::vector<PeriodTrack> periods;
};

/// The slot-major program of one period, shared by the harness runs and
/// TraceRequestLines: per slot, submissions for that slot, then
/// departures effective through it, then one advance.
struct SlotProgram {
  std::vector<std::vector<simdb::SimUser>> submits;    ///< [slot-1].
  std::vector<std::vector<int>> departs;               ///< Submission order.
};

/// Orders one trace period slot-major. `departs` entries index the
/// period's flat submission order (background tenants, generation order).
SlotProgram LayoutPeriod(const TracePeriod& period, int slots) {
  SlotProgram program;
  program.submits.resize(static_cast<size_t>(slots));
  program.departs.resize(static_cast<size_t>(slots));
  std::vector<int> order(period.tenants.size(), -1);
  int next = 0;
  for (int s = 1; s <= slots; ++s) {
    for (size_t t = 0; t < period.tenants.size(); ++t) {
      if (period.tenants[t].tenant.start != s) continue;
      program.submits[static_cast<size_t>(s - 1)].push_back(
          period.tenants[t].tenant);
      order[t] = next++;
    }
  }
  for (const TraceDeparture& departure : period.departures) {
    // Departing tenants were eligible (present), so they were submitted.
    program.departs[static_cast<size_t>(departure.slot - 1)].push_back(
        order[static_cast<size_t>(departure.tenant_index)]);
  }
  return program;
}

Result<Response> CallChecked(NetClient& client, const Request& request) {
  Result<Response> response = client.Call(request);
  if (!response.ok()) return response.status();
  if (!response->ok()) return response->status;
  return response;
}

/// Runs the whole multi-period program for one player over TCP.
Result<RunOutput> RunProgram(const StrategyOptions& options,
                             const Trace& trace,
                             const StrategyPlayer& player) {
  const TraceConfig& config = options.background;
  const int z = config.slots_per_period;

  service::ServerOptions server_options;
  server_options.num_workers = options.num_workers;
  MarketplaceServer server(server_options);
  NetServer net(&server, {});
  OPTSHARE_RETURN_NOT_OK(net.Start());
  Result<NetClient> client = NetClient::Connect("127.0.0.1", net.port());
  if (!client.ok()) return client.status();

  RunOutput run;
  for (int p = 1; p <= config.periods; ++p) {
    Request open = TenancyRequest(Op::kOpenPeriod, kTenancy);
    if (p == 1) {
      open.catalog = CatalogSpecFromTrace(config.catalog);
      open.config = ConfigFromTrace(config);
    }
    OPTSHARE_RETURN_NOT_OK(CallChecked(*client, open).status());

    PeriodTrack track;
    const TracePeriod& period = trace.periods[static_cast<size_t>(p - 1)];
    SlotProgram program = LayoutPeriod(period, z);
    StrategistMove move = player.Declare(options.strategist, z);
    track.identities = move.identities;
    track.depart_after = move.depart_after;
    track.identity_ids.assign(move.identities.size(), -1);
    for (const auto& slot_submits : program.submits) {
      for (const simdb::SimUser& tenant : slot_submits) {
        track.background.push_back(tenant);
      }
    }

    // Roster ids are assigned by submission order; track them as we go.
    // Within one slot's batch the background tenants go first, then any
    // strategist identities arriving that slot.
    std::vector<UserId> background_ids;
    UserId next_id = 0;
    for (TimeSlot s = 1; s <= z; ++s) {
      Request submit = TenancyRequest(Op::kSubmit, kTenancy);
      submit.tenants = program.submits[static_cast<size_t>(s - 1)];
      for (size_t j = 0; j < submit.tenants.size(); ++j) {
        background_ids.push_back(next_id + static_cast<UserId>(j));
      }
      std::vector<size_t> arriving;
      for (size_t k = 0; k < move.identities.size(); ++k) {
        if (move.identities[k].declared.start == s) {
          submit.tenants.push_back(move.identities[k].declared);
          arriving.push_back(k);
        }
      }
      if (!submit.tenants.empty()) {
        OPTSHARE_RETURN_NOT_OK(CallChecked(*client, submit).status());
        const UserId strategist_base =
            next_id + static_cast<UserId>(submit.tenants.size()) -
            static_cast<UserId>(arriving.size());
        for (size_t j = 0; j < arriving.size(); ++j) {
          track.identity_ids[arriving[j]] =
              strategist_base + static_cast<UserId>(j);
        }
        next_id += static_cast<UserId>(submit.tenants.size());
      }
      for (int submit_order : program.departs[static_cast<size_t>(s - 1)]) {
        Request depart = TenancyRequest(Op::kDepart, kTenancy);
        depart.tenant = background_ids[static_cast<size_t>(submit_order)];
        OPTSHARE_RETURN_NOT_OK(CallChecked(*client, depart).status());
      }
      if (track.depart_after && *track.depart_after == s) {
        for (size_t k = 0; k < track.identity_ids.size(); ++k) {
          if (track.identity_ids[k] < 0) continue;
          Request depart = TenancyRequest(Op::kDepart, kTenancy);
          depart.tenant = track.identity_ids[k];
          OPTSHARE_RETURN_NOT_OK(CallChecked(*client, depart).status());
        }
      }
      Request advance = TenancyRequest(Op::kAdvanceSlot, kTenancy);
      advance.slots = 1;
      OPTSHARE_RETURN_NOT_OK(CallChecked(*client, advance).status());
    }

    Request close = TenancyRequest(Op::kClosePeriod, kTenancy);
    Result<Response> closed = CallChecked(*client, close);
    if (!closed.ok()) return closed.status();
    const JsonValue* report_v = closed->payload.Find("report");
    if (report_v == nullptr) {
      return Status::Internal("close_period response carried no report");
    }
    Result<PeriodReport> report =
        service::protocol::PeriodReportFromJson(*report_v);
    if (!report.ok()) return report.status();
    track.line = service::protocol::ToJson(*report).Dump();
    track.report = std::move(*report);
    run.periods.push_back(std::move(track));
  }
  net.Stop();
  return run;
}

/// Metrics computed against recomputed *true* values.
struct RunMetrics {
  double utility = 0.0;
  double cost_recovery_error = 0.0;  ///< Max over periods.
  double regret = 0.0;               ///< Max over periods.
};

Result<RunMetrics> Measure(const simdb::Catalog& catalog,
                           const ServiceConfig& config,
                           const RunOutput& run) {
  const simdb::CostModel model(&catalog);
  const simdb::PricingModel pricing(config.pricing);
  const int z = config.slots_per_period;
  RunMetrics metrics;

  for (const PeriodTrack& track : run.periods) {
    // The period's true roster: background declarations are honest, the
    // strategist contributes each identity's *actual* demand.
    std::vector<simdb::SimUser> true_roster = track.background;
    for (const StrategistIdentity& identity : track.identities) {
      true_roster.push_back(identity.actual);
    }
    // Every candidate structure against the true roster — the hindsight
    // menu (min_benefit_ratio 0: the benchmark may build what the advisor
    // would have filtered).
    simdb::AdvisorOptions all;
    all.min_benefit_ratio = 0.0;
    simdb::Advisor advisor(catalog, model, pricing, all);
    OPTSHARE_RETURN_NOT_OK(advisor.Extend(true_roster));
    std::map<std::string, const simdb::Proposal*> by_name;
    for (const simdb::Proposal* proposal : advisor.Ranked()) {
      by_name.emplace(proposal->spec.DisplayName(), proposal);
    }

    // Per-slot true rates of each identity (interval-independent: scored
    // on a one-slot copy, so savings == rate).
    std::vector<simdb::SimUser> one_slot;
    for (const StrategistIdentity& identity : track.identities) {
      simdb::SimUser actual = identity.actual;
      actual.start = 1;
      actual.end = 1;
      one_slot.push_back(std::move(actual));
    }

    double strategist_value = 0.0;
    for (const StructureOutcome& outcome : track.report.structures) {
      if (!outcome.active) continue;
      const auto found = by_name.find(outcome.name);
      if (found == by_name.end()) continue;
      Result<std::vector<double>> rates =
          advisor.SpecSavings(found->second->spec, one_slot);
      if (!rates.ok()) return rates.status();
      for (size_t k = 0; k < track.identities.size(); ++k) {
        const UserId u = track.identity_ids[k];
        if (u < 0) continue;
        TimeSlot from = 0;
        for (const StructureOutcome::ServicedEntry& entry :
             outcome.serviced) {
          if (entry.tenant == u) {
            from = entry.from_slot;
            break;
          }
        }
        if (from == 0) continue;
        const simdb::SimUser& actual = track.identities[k].actual;
        TimeSlot until = std::min<TimeSlot>(actual.end, z);
        if (track.depart_after) {
          until = std::min(until, *track.depart_after);
        }
        const TimeSlot lo = std::max(from, actual.start);
        if (lo <= until) {
          strategist_value += (*rates)[k] * static_cast<double>(until - lo + 1);
        }
      }
    }

    double strategist_paid = 0.0;
    double background_declared_value = 0.0;
    double total_paid = 0.0;
    for (double payment : track.report.ledger.user_payment) {
      total_paid += payment;
    }
    std::vector<char> is_strategist(track.report.ledger.user_value.size(), 0);
    for (const UserId u : track.identity_ids) {
      if (u >= 0 &&
          static_cast<size_t>(u) < track.report.ledger.user_payment.size()) {
        strategist_paid += track.report.ledger.user_payment[static_cast<size_t>(u)];
        is_strategist[static_cast<size_t>(u)] = 1;
      }
    }
    for (size_t u = 0; u < track.report.ledger.user_value.size(); ++u) {
      if (!is_strategist[u]) {
        background_declared_value += track.report.ledger.user_value[u];
      }
    }
    metrics.utility += strategist_value - strategist_paid;

    const double total_cost = track.report.ledger.total_cost;
    if (total_cost > 0.0) {
      metrics.cost_recovery_error =
          std::max(metrics.cost_recovery_error,
                   std::abs(total_cost - total_paid) / total_cost);
    }

    // Hindsight welfare: best structure portfolio against the true
    // demands, priced at what the period actually charged (maintenance
    // for carried structures, the advisor's build cost otherwise).
    double hindsight = 0.0;
    for (const auto& [name, proposal] : by_name) {
      double cost = proposal->cost;
      for (const StructureOutcome& outcome : track.report.structures) {
        if (outcome.name == name) {
          cost = outcome.cost;
          break;
        }
      }
      hindsight += std::max(0.0, proposal->total_savings - cost);
    }
    const double achieved =
        background_declared_value + strategist_value - total_cost;
    metrics.regret = std::max(metrics.regret, hindsight - achieved);
  }
  metrics.regret = std::max(metrics.regret, 0.0);
  return metrics;
}

}  // namespace

JsonValue ToJson(const AttackOutcome& outcome) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("player", JsonValue::Str(outcome.player));
  obj.Set("mechanism", JsonValue::Str(outcome.mechanism));
  obj.Set("periods", JsonValue::Number(outcome.periods));
  obj.Set("truthful_utility", JsonValue::Number(outcome.truthful_utility));
  obj.Set("strategic_utility", JsonValue::Number(outcome.strategic_utility));
  obj.Set("gain", JsonValue::Number(outcome.gain));
  obj.Set("cost_recovery_error",
          JsonValue::Number(outcome.cost_recovery_error));
  obj.Set("regret", JsonValue::Number(outcome.regret));
  return obj;
}

Result<StrategyHarness> StrategyHarness::Make(StrategyOptions options) {
  OPTSHARE_RETURN_NOT_OK(options.background.Validate());
  const int z = options.background.slots_per_period;
  const simdb::SimUser& strategist = options.strategist;
  if (strategist.start < 1 || strategist.end < strategist.start ||
      strategist.end > z) {
    return Status::InvalidArgument(
        "strategist interval must lie within [1, slots_per_period]");
  }
  OPTSHARE_RETURN_NOT_OK(strategist.workload.Validate());
  if (!(strategist.executions_per_slot > 0.0)) {
    return Status::InvalidArgument(
        "strategist executions_per_slot must be > 0");
  }
  Result<Trace> trace = GenerateTrace(options.background);
  if (!trace.ok()) return trace.status();
  return StrategyHarness(std::move(options), std::move(*trace));
}

Result<AttackOutcome> StrategyHarness::Run(const StrategyPlayer& player) {
  const ServiceConfig config = ConfigFromTrace(options_.background);
  Result<simdb::Catalog> catalog =
      BuildTraceCatalog(options_.background.catalog);
  if (!catalog.ok()) return catalog.status();

  const std::unique_ptr<StrategyPlayer> truthful = MakeTruthfulPlayer();
  Result<RunOutput> truthful_run =
      RunProgram(options_, trace_, *truthful);
  if (!truthful_run.ok()) return truthful_run.status();
  Result<RunOutput> strategic_run = RunProgram(options_, trace_, player);
  if (!strategic_run.ok()) return strategic_run.status();

  Result<RunMetrics> truthful_metrics =
      Measure(*catalog, config, *truthful_run);
  if (!truthful_metrics.ok()) return truthful_metrics.status();
  Result<RunMetrics> strategic_metrics =
      Measure(*catalog, config, *strategic_run);
  if (!strategic_metrics.ok()) return strategic_metrics.status();

  AttackOutcome outcome;
  outcome.player = player.name();
  outcome.mechanism = options_.background.mechanism;
  outcome.periods = options_.background.periods;
  outcome.truthful_utility = truthful_metrics->utility;
  outcome.strategic_utility = strategic_metrics->utility;
  outcome.gain = outcome.strategic_utility - outcome.truthful_utility;
  outcome.cost_recovery_error = truthful_metrics->cost_recovery_error;
  outcome.regret = truthful_metrics->regret;
  for (const PeriodTrack& track : truthful_run->periods) {
    outcome.truthful_report_lines.push_back(track.line);
  }
  for (const PeriodTrack& track : strategic_run->periods) {
    outcome.strategic_report_lines.push_back(track.line);
  }
  return outcome;
}

Result<std::vector<std::string>> TraceRequestLines(const TraceConfig& config,
                                                   const Trace& trace,
                                                   const std::string& tenancy) {
  OPTSHARE_RETURN_NOT_OK(config.Validate());
  if (trace.periods.size() != static_cast<size_t>(config.periods) ||
      trace.slots_per_period != config.slots_per_period) {
    return Status::InvalidArgument("trace does not match the config");
  }
  const int z = config.slots_per_period;
  std::vector<std::string> lines;
  for (int p = 1; p <= config.periods; ++p) {
    Request open = TenancyRequest(Op::kOpenPeriod, tenancy);
    if (p == 1) {
      open.catalog = CatalogSpecFromTrace(config.catalog);
      open.config = ConfigFromTrace(config);
    }
    lines.push_back(service::protocol::ToJson(open).Dump());
    SlotProgram program =
        LayoutPeriod(trace.periods[static_cast<size_t>(p - 1)], z);
    for (TimeSlot s = 1; s <= z; ++s) {
      if (!program.submits[static_cast<size_t>(s - 1)].empty()) {
        Request submit = TenancyRequest(Op::kSubmit, tenancy);
        submit.tenants = program.submits[static_cast<size_t>(s - 1)];
        lines.push_back(service::protocol::ToJson(submit).Dump());
      }
      for (int id : program.departs[static_cast<size_t>(s - 1)]) {
        Request depart = TenancyRequest(Op::kDepart, tenancy);
        depart.tenant = id;
        lines.push_back(service::protocol::ToJson(depart).Dump());
      }
      Request advance = TenancyRequest(Op::kAdvanceSlot, tenancy);
      advance.slots = 1;
      lines.push_back(service::protocol::ToJson(advance).Dump());
    }
    Request close = TenancyRequest(Op::kClosePeriod, tenancy);
    lines.push_back(service::protocol::ToJson(close).Dump());
  }
  return lines;
}

}  // namespace optshare::strategy
