// Streaming/batch parity for the PricingSession API: a session fed the
// event stream of a tenant set must produce payments, ledger, and
// built-structure set bit-identical to the legacy batch RunPeriod — whose
// pre-redesign implementation is retained below as the differential
// reference — plus the session-only behaviors the batch API could not
// express (mid-period arrival, early departure, idle periods) and the
// ServiceConfig::Validate rejection paths.
#include "service/pricing_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "baseline/baseline_mechanisms.h"
#include "common/rng.h"
#include "core/accounting.h"
#include "core/mechanism.h"
#include "service/protocol.h"
#include "simdb/scenarios.h"

namespace optshare::service {
namespace {

/// The pre-redesign batch implementation of one billing period, verbatim:
/// advisor, one materialized AddOn game per proposal, AccountResult ledger.
/// The streaming session must reproduce it bit for bit when every tenant
/// is submitted before the first slot.
Result<PeriodReport> LegacyRunPeriod(const simdb::Catalog& catalog,
                                     const ServiceConfig& config,
                                     const std::vector<simdb::SimUser>& tenants,
                                     std::vector<std::string>* built_names,
                                     int period) {
  if (tenants.empty()) {
    return Status::InvalidArgument("a period needs at least one tenant");
  }
  RegisterBaselineMechanisms();
  Result<std::unique_ptr<Mechanism>> mechanism_r =
      ResolveMechanism(config.mechanism, GameKind::kAdditiveOnline);
  if (!mechanism_r.ok()) return mechanism_r.status();
  const Mechanism& mechanism = **mechanism_r;
  for (const auto& t : tenants) {
    if (t.start < 1 || t.end < t.start || t.end > config.slots_per_period) {
      return Status::InvalidArgument(
          "tenant interval outside the period's slots");
    }
  }

  simdb::CostModel model(&catalog);
  simdb::PricingModel pricing(config.pricing);
  Result<std::vector<simdb::Proposal>> proposals_r =
      simdb::ProposeOptimizations(catalog, model, pricing, tenants,
                                  config.advisor);
  if (!proposals_r.ok()) return proposals_r.status();

  PeriodReport report;
  report.period = period;

  std::vector<std::string> next_built;
  Accounting ledger;
  ledger.user_value.assign(tenants.size(), 0.0);
  ledger.user_payment.assign(tenants.size(), 0.0);

  for (const auto& proposal : *proposals_r) {
    StructureOutcome outcome;
    outcome.name = proposal.spec.DisplayName();
    outcome.num_candidates = proposal.beneficiaries.size();
    outcome.carried_over =
        std::find(built_names->begin(), built_names->end(), outcome.name) !=
        built_names->end();
    outcome.cost = outcome.carried_over
                       ? std::max(proposal.cost * config.maintenance_fraction,
                                  1e-12)
                       : proposal.cost;

    AdditiveOnlineGame game;
    game.num_slots = config.slots_per_period;
    game.cost = outcome.cost;
    for (size_t i = 0; i < tenants.size(); ++i) {
      const double per_slot =
          proposal.user_savings[i] /
          static_cast<double>(tenants[i].end - tenants[i].start + 1);
      game.users.push_back(
          SlotValues::Constant(tenants[i].start, tenants[i].end, per_slot));
    }
    Status st = game.Validate();
    if (!st.ok()) return st;

    Result<MechanismResult> result_r = mechanism.Run(GameView(game));
    if (!result_r.ok()) return result_r.status();
    const MechanismResult& result = *result_r;
    const Accounting acc = AccountResult(GameView(game), result);
    outcome.active = result.implemented;
    if (result.implemented) {
      int subscribers = 0;
      for (double p : result.payments) subscribers += p > 0.0 ? 1 : 0;
      outcome.num_subscribers = subscribers;
      next_built.push_back(outcome.name);
      ledger.total_cost += acc.total_cost;
      for (size_t i = 0; i < tenants.size(); ++i) {
        ledger.user_value[i] += acc.user_value[i];
        ledger.user_payment[i] += acc.user_payment[i];
      }
    }
    report.structures.push_back(std::move(outcome));
  }

  *built_names = std::move(next_built);
  report.ledger = std::move(ledger);
  return report;
}

void ExpectSameReport(const PeriodReport& legacy, const PeriodReport& got) {
  EXPECT_EQ(legacy.period, got.period);
  ASSERT_EQ(legacy.structures.size(), got.structures.size());
  for (size_t s = 0; s < legacy.structures.size(); ++s) {
    const StructureOutcome& a = legacy.structures[s];
    const StructureOutcome& b = got.structures[s];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.cost, b.cost) << a.name;
    EXPECT_EQ(a.active, b.active) << a.name;
    EXPECT_EQ(a.carried_over, b.carried_over) << a.name;
    EXPECT_EQ(a.num_candidates, b.num_candidates) << a.name;
    EXPECT_EQ(a.num_subscribers, b.num_subscribers) << a.name;
  }
  EXPECT_EQ(legacy.ledger.total_cost, got.ledger.total_cost);
  ASSERT_EQ(legacy.ledger.user_value.size(), got.ledger.user_value.size());
  for (size_t i = 0; i < legacy.ledger.user_value.size(); ++i) {
    EXPECT_EQ(legacy.ledger.user_value[i], got.ledger.user_value[i])
        << "value of tenant " << i;
    EXPECT_EQ(legacy.ledger.user_payment[i], got.ledger.user_payment[i])
        << "payment of tenant " << i;
  }
}

class PricingSessionParityTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PricingSessionParityTest, SessionBitIdenticalToLegacyRunPeriod) {
  const std::string mechanism = GetParam();
  auto scenario = simdb::TelemetryScenario(6, 12);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  config.mechanism = mechanism;

  Rng rng(99);
  std::vector<std::string> legacy_built;
  std::vector<std::string> session_built;
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<simdb::SimUser> tenants =
        simdb::JitterTenants(scenario->tenants, config.slots_per_period, rng);

    std::vector<std::string> legacy_before = legacy_built;
    Result<PeriodReport> legacy =
        LegacyRunPeriod(scenario->catalog, config, tenants, &legacy_built,
                        trial + 1);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

    Result<PricingSession> session = PricingSession::Open(
        &scenario->catalog, config, session_built, trial + 1);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session->Submit(tenants).ok());
    for (int slot = 0; slot < config.slots_per_period; ++slot) {
      ASSERT_TRUE(session->AdvanceSlot().ok());
    }
    Result<PeriodReport> report = session->Close();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    session_built = session->built_structures();

    ExpectSameReport(*legacy, *report);
    EXPECT_EQ(legacy_built, session_built) << "built set after trial "
                                           << trial;
  }
}

// "addon" exercises the native slot-incremental path, "naive_online" and
// "regret" the buffering adapter.
INSTANTIATE_TEST_SUITE_P(Mechanisms, PricingSessionParityTest,
                         ::testing::Values("addon", "naive_online", "regret"));

TEST(PricingSessionParity, CloudServiceAdapterMatchesLegacyAcrossPeriods) {
  auto scenario = simdb::ClickstreamScenario(6, 12);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;

  CloudService service(scenario->catalog, config);
  std::vector<std::string> legacy_built;
  const double drift[3] = {1.0, 1.7, 0.4};
  for (int period = 0; period < 3; ++period) {
    std::vector<simdb::SimUser> tenants = scenario->tenants;
    for (auto& t : tenants) t.executions_per_slot *= drift[period];

    Result<PeriodReport> legacy = LegacyRunPeriod(
        scenario->catalog, config, tenants, &legacy_built, period + 1);
    ASSERT_TRUE(legacy.ok());
    Result<PeriodReport> got = service.RunPeriod(tenants);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameReport(*legacy, *got);
    EXPECT_EQ(legacy_built, service.built_structures());
  }
}

TEST(PricingSessionStreaming, MidPeriodArrivalJoinsRunningGames) {
  auto scenario = simdb::TelemetryScenario(5, 12);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;

  Result<PricingSession> session =
      PricingSession::Open(&scenario->catalog, config);
  ASSERT_TRUE(session.ok());

  // Four tenants open the period; the fifth signs up after slot 6.
  simdb::SimUser late = scenario->tenants.back();
  scenario->tenants.pop_back();
  ASSERT_TRUE(session->Submit(scenario->tenants).ok());
  for (int slot = 0; slot < 6; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  late.start = 7;
  late.end = 12;
  Result<UserId> id = session->Submit(late);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 4);

  // Retroactive arrivals are rejected.
  simdb::SimUser stale = late;
  stale.start = 3;
  EXPECT_FALSE(session->Submit(stale).ok());

  for (int slot = 6; slot < 12; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  Result<PeriodReport> report = session->Close();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->ledger.user_value.size(), 5u);
  EXPECT_GT(report->ActiveStructures(), 0);
  // AddOn keeps cost recovery even with the latecomer.
  EXPECT_TRUE(report->ledger.CostRecovered());
  // The latecomer derived value and was charged.
  EXPECT_GT(report->ledger.user_value[4], 0.0);
  EXPECT_GT(report->ledger.user_payment[4], 0.0);
}

TEST(PricingSessionStreaming, EarlyDepartureStopsValueAndCharges) {
  auto scenario = simdb::TelemetryScenario(5, 12);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;

  Result<PricingSession> session =
      PricingSession::Open(&scenario->catalog, config);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Submit(scenario->tenants).ok());
  for (int slot = 0; slot < 4; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  ASSERT_TRUE(session->Depart(0).ok());
  EXPECT_FALSE(session->Depart(99).ok());
  for (int slot = 4; slot < 12; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  Result<PeriodReport> report = session->Close();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ledger.CostRecovered());
}

TEST(PricingSessionStreaming, DepartBeforeIntegrationDoesNotWedge) {
  auto scenario = simdb::TelemetryScenario(4, 12);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;

  Result<PricingSession> session =
      PricingSession::Open(&scenario->catalog, config);
  ASSERT_TRUE(session.ok());
  simdb::SimUser brief = scenario->tenants.back();
  scenario->tenants.pop_back();
  ASSERT_TRUE(session->Submit(scenario->tenants).ok());
  ASSERT_TRUE(session->AdvanceSlot().ok());

  // A tenant submitted after slot 1 departs before the advisor ever
  // integrated her: the session must stay consistent (regression — this
  // used to enqueue her departure ahead of her arrival and wedge every
  // subsequent AdvanceSlot).
  brief.start = 2;
  brief.end = 12;
  Result<UserId> id = session->Submit(brief);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(session->Depart(*id).ok());
  for (int slot = 1; slot < 12; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok()) << "slot " << slot + 1;
  }
  Result<PeriodReport> report = session->Close();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->ledger.user_value.size(), 4u);
  EXPECT_TRUE(report->ledger.CostRecovered());
}

/// Streams one period slot by slot: the tenants of arrivals[t] are
/// submitted before slot t + 1, and one of the tenants already present
/// departs every fourth slot. With `move_at` >= 0 the session is moved
/// before slot move_at + 1 — out of the std::optional that holds it,
/// through a Result, and back — the way the server relocates sessions.
Result<PeriodReport> StreamPeriod(
    const simdb::Catalog& catalog, const ServiceConfig& config,
    const std::vector<std::vector<simdb::SimUser>>& arrivals, int move_at) {
  Result<PricingSession> opened = PricingSession::Open(&catalog, config);
  if (!opened.ok()) return opened.status();
  std::optional<PricingSession> live;
  live.emplace(std::move(*opened));
  for (int slot = 0; slot < config.slots_per_period; ++slot) {
    if (slot == move_at) {
      Result<PricingSession> hop(std::move(*live));
      live.reset();
      live.emplace(std::move(*hop));
    }
    OPTSHARE_RETURN_NOT_OK(
        live->Submit(arrivals[static_cast<size_t>(slot)]));
    if (slot % 4 == 3 && live->num_tenants() > 1) {
      OPTSHARE_RETURN_NOT_OK(live->Depart(slot % live->num_tenants()));
    }
    OPTSHARE_RETURN_NOT_OK(live->AdvanceSlot());
  }
  return live->Close();
}

TEST(PricingSessionStreaming, MovedSessionKeepsAdvancingIdentically) {
  // Clickstream filters two columns, so the advisor holds several
  // candidates when the session moves.
  auto scenario = simdb::ClickstreamScenario(8, 24);
  ASSERT_TRUE(scenario.ok());
  for (const char* mechanism : {"addon", "naive_online"}) {
    ServiceConfig config;
    config.slots_per_period = 24;
    config.mechanism = mechanism;
    Rng rng(5);
    std::vector<std::vector<simdb::SimUser>> arrivals(24);
    for (int slot = 0; slot < 24; ++slot) {
      for (simdb::SimUser tenant : simdb::JitterTenants(
               {scenario->tenants[static_cast<size_t>(slot % 8)],
                scenario->tenants[static_cast<size_t>((slot + 3) % 8)]},
               24, rng)) {
        tenant.start = slot + 1;
        tenant.end = std::max(tenant.end, tenant.start);
        arrivals[static_cast<size_t>(slot)].push_back(tenant);
      }
    }
    Result<PeriodReport> unmoved =
        StreamPeriod(scenario->catalog, config, arrivals, -1);
    ASSERT_TRUE(unmoved.ok()) << unmoved.status().ToString();
    ASSERT_GE(unmoved->structures.size(), 2u);
    for (int move_at : {1, 12, 23}) {
      Result<PeriodReport> moved =
          StreamPeriod(scenario->catalog, config, arrivals, move_at);
      ASSERT_TRUE(moved.ok()) << moved.status().ToString();
      ExpectSameReport(*unmoved, *moved);
      EXPECT_EQ(protocol::ToJson(*unmoved).Dump(),
                protocol::ToJson(*moved).Dump())
          << mechanism << " moved before slot " << move_at + 1;
    }
  }
}

TEST(PricingSessionStreaming, DisplacedStructureStillAdmitsNewcomers) {
  // With max_proposals = 1, the cheap tenant-lookup view proposed once
  // tenant lookups arrive in slot 2 pushes the severity view out of the
  // proposal set. That view keeps being priced, so the severity scans
  // arriving later must still be declared into its game: every structure
  // ends with one candidate per roster tenant its spec saves money for.
  simdb::Catalog catalog;
  simdb::TableDef logs;
  logs.name = "logs";
  logs.columns = {{"tenant", simdb::ColumnType::kInt64, 100'000},
                  {"severity", simdb::ColumnType::kInt64, 8}};
  logs.row_count = 2'000'000'000;
  ASSERT_TRUE(catalog.AddTable(logs).ok());
  const auto user = [](const char* column, double selectivity,
                       double executions, TimeSlot start) {
    simdb::SimUser u;
    simdb::Workload::Entry entry;
    entry.query.table = "logs";
    entry.query.predicates = {{column, selectivity}};
    entry.query.aggregate = true;
    u.workload.entries.push_back(std::move(entry));
    u.start = start;
    u.end = 12;
    u.executions_per_slot = executions;
    return u;
  };
  ServiceConfig config;
  config.advisor.max_proposals = 1;
  Result<PricingSession> session = PricingSession::Open(&catalog, config);
  ASSERT_TRUE(session.ok());
  std::vector<simdb::SimUser> roster;
  const auto submit = [&](const simdb::SimUser& u) {
    roster.push_back(u);
    return session->Submit(u).ok();
  };
  ASSERT_TRUE(submit(user("severity", 0.125, 500.0, 1)));
  ASSERT_TRUE(session->AdvanceSlot().ok());
  for (TimeSlot start = 2; start <= 4; ++start) {
    ASSERT_TRUE(submit(user("tenant", 1e-5, 300.0, start)));
    ASSERT_TRUE(submit(user("severity", 0.125, 500.0, start)));
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  for (int slot = 4; slot < 12; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  Result<PeriodReport> report = session->Close();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->structures.size(), 2u);

  simdb::AdvisorOptions all;
  all.min_benefit_ratio = 0.0;
  Result<std::vector<simdb::Proposal>> scored = simdb::ProposeOptimizations(
      catalog, simdb::CostModel(&catalog),
      simdb::PricingModel(config.pricing), roster, all);
  ASSERT_TRUE(scored.ok());
  for (const StructureOutcome& outcome : report->structures) {
    int want = -1;
    for (const simdb::Proposal& p : *scored) {
      if (p.spec.DisplayName() == outcome.name) want = p.beneficiaries.size();
    }
    EXPECT_EQ(outcome.num_candidates, want) << outcome.name;
  }
}

TEST(PricingSessionLifecycle, EmptyPeriodClosesCleanly) {
  auto scenario = simdb::TelemetryScenario(3, 12);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;

  Result<PricingSession> session =
      PricingSession::Open(&scenario->catalog, config);
  ASSERT_TRUE(session.ok());
  for (int slot = 0; slot < 12; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  Result<PeriodReport> report = session->Close();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->structures.empty());
  EXPECT_TRUE(report->ledger.user_value.empty());

  // The batch adapter keeps the legacy "at least one tenant" contract.
  CloudService service(std::move(scenario->catalog), config);
  EXPECT_FALSE(service.RunPeriod({}).ok());
}

TEST(PricingSessionLifecycle, SlotDiscipline) {
  auto scenario = simdb::TelemetryScenario(3, 4);
  ASSERT_TRUE(scenario.ok());
  ServiceConfig config;
  config.slots_per_period = 4;

  Result<PricingSession> session =
      PricingSession::Open(&scenario->catalog, config);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Submit(scenario->tenants).ok());
  // Close before the period completes.
  EXPECT_FALSE(session->Close().ok());
  for (int slot = 0; slot < 4; ++slot) {
    ASSERT_TRUE(session->AdvanceSlot().ok());
  }
  // Advance past the period.
  EXPECT_FALSE(session->AdvanceSlot().ok());
  ASSERT_TRUE(session->Close().ok());
  // Everything is rejected after Close.
  EXPECT_FALSE(session->AdvanceSlot().ok());
  EXPECT_FALSE(session->Close().ok());
  EXPECT_FALSE(session->Submit(scenario->tenants.front()).ok());
}

TEST(ServiceConfigValidation, RejectsBadConfigs) {
  auto scenario = simdb::TelemetryScenario(3, 12);
  ASSERT_TRUE(scenario.ok());

  ServiceConfig bad_slots;
  bad_slots.slots_per_period = 0;
  EXPECT_FALSE(bad_slots.Validate().ok());
  EXPECT_FALSE(PricingSession::Open(&scenario->catalog, bad_slots).ok());

  ServiceConfig bad_maint;
  bad_maint.maintenance_fraction = 1.5;
  EXPECT_FALSE(bad_maint.Validate().ok());
  EXPECT_FALSE(PricingSession::Open(&scenario->catalog, bad_maint).ok());
  bad_maint.maintenance_fraction = -0.25;
  EXPECT_FALSE(PricingSession::Open(&scenario->catalog, bad_maint).ok());

  ServiceConfig no_mech;
  no_mech.mechanism.clear();
  EXPECT_FALSE(no_mech.Validate().ok());
  EXPECT_FALSE(PricingSession::Open(&scenario->catalog, no_mech).ok());

  // Unknown mechanism names fail at Open, listing what is registered.
  ServiceConfig unknown;
  unknown.mechanism = "definitely_not_registered";
  Result<PricingSession> open =
      PricingSession::Open(&scenario->catalog, unknown);
  ASSERT_FALSE(open.ok());
  EXPECT_NE(open.status().message().find("registered mechanisms:"),
            std::string::npos);

  // The CloudService constructor validates too; its first RunPeriod
  // surfaces the rejection.
  CloudService service(std::move(scenario->catalog), bad_slots);
  Result<PeriodReport> report = service.RunPeriod(scenario->tenants);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  // A valid config still passes.
  EXPECT_TRUE(ServiceConfig{}.Validate().ok());
}

}  // namespace
}  // namespace optshare::service
