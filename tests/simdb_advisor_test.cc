// Tests for the optimization advisor, and the differential that pins the
// incremental Advisor to the whole-roster oracle in tests/support/: fed the
// same roster in random chunks, Advisor::Extend must reproduce the oracle's
// proposals bit for bit after every chunk.
#include "simdb/advisor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/rng.h"
#include "core/accounting.h"
#include "core/add_off.h"
#include "simdb/scenarios.h"
#include "support/advisor_oracle.h"

namespace optshare::simdb {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef logs;
    logs.name = "logs";
    logs.columns = {
        {"tenant", ColumnType::kInt64, 100'000},
        {"severity", ColumnType::kInt64, 8},
        {"message", ColumnType::kString, 1'000'000'000},
    };
    logs.row_count = 2'000'000'000;
    ASSERT_TRUE(catalog_.AddTable(logs).ok());
  }

  SimUser MakeUser(double selectivity, const std::string& column,
                   double executions) {
    Query q;
    q.table = "logs";
    q.predicates = {{column, selectivity}};
    q.aggregate = true;
    SimUser user;
    user.workload.entries = {{q, 1.0}};
    user.start = 1;
    user.end = 12;
    user.executions_per_slot = executions;
    return user;
  }

  Catalog catalog_;
  PricingModel pricing_;
};

TEST_F(AdvisorTest, ProposesIndexAndViewForFilteredColumns) {
  CostModel model(&catalog_);
  const std::vector<SimUser> users = {MakeUser(1e-5, "tenant", 200.0),
                                      MakeUser(1e-5, "tenant", 50.0)};
  auto proposals = ProposeOptimizations(catalog_, model, pricing_, users);
  ASSERT_TRUE(proposals.ok()) << proposals.status().ToString();
  ASSERT_FALSE(proposals->empty());
  bool has_index = false, has_view = false;
  for (const auto& p : *proposals) {
    EXPECT_EQ(p.spec.table, "logs");
    EXPECT_EQ(p.spec.column, "tenant");
    if (p.spec.kind == OptKind::kSecondaryIndex) has_index = true;
    if (p.spec.kind == OptKind::kMaterializedView) {
      has_view = true;
      EXPECT_DOUBLE_EQ(p.spec.view_selectivity, 1e-5);
    }
    EXPECT_EQ(p.user_savings.size(), 2u);
    EXPECT_GT(p.total_savings, 0.0);
    EXPECT_GT(p.cost, 0.0);
  }
  EXPECT_TRUE(has_index);
  EXPECT_TRUE(has_view);
}

TEST_F(AdvisorTest, RankedByBenefitRatio) {
  CostModel model(&catalog_);
  const std::vector<SimUser> users = {MakeUser(1e-5, "tenant", 500.0),
                                      MakeUser(0.125, "severity", 500.0)};
  auto proposals = ProposeOptimizations(catalog_, model, pricing_, users);
  ASSERT_TRUE(proposals.ok());
  for (size_t k = 1; k < proposals->size(); ++k) {
    EXPECT_GE((*proposals)[k - 1].BenefitRatio(),
              (*proposals)[k].BenefitRatio());
  }
}

TEST_F(AdvisorTest, ThresholdFiltersWeakCandidates) {
  CostModel model(&catalog_);
  // A nearly worthless workload: barely selective predicate, one run.
  const std::vector<SimUser> users = {MakeUser(0.9, "severity", 0.001)};
  AdvisorOptions strict;
  strict.min_benefit_ratio = 10.0;
  auto proposals =
      ProposeOptimizations(catalog_, model, pricing_, users, strict);
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}

TEST_F(AdvisorTest, MaxProposalsCap) {
  CostModel model(&catalog_);
  const std::vector<SimUser> users = {MakeUser(1e-5, "tenant", 500.0),
                                      MakeUser(0.125, "severity", 500.0)};
  AdvisorOptions capped;
  capped.max_proposals = 1;
  capped.min_benefit_ratio = 0.0;
  auto proposals =
      ProposeOptimizations(catalog_, model, pricing_, users, capped);
  ASSERT_TRUE(proposals.ok());
  EXPECT_EQ(proposals->size(), 1u);
}

TEST_F(AdvisorTest, ReplicasOnlyWhenRequested) {
  CostModel model(&catalog_);
  const std::vector<SimUser> users = {MakeUser(1e-5, "tenant", 500.0)};
  AdvisorOptions with_replicas;
  with_replicas.propose_replicas = true;
  with_replicas.min_benefit_ratio = 0.0;
  auto proposals =
      ProposeOptimizations(catalog_, model, pricing_, users, with_replicas);
  ASSERT_TRUE(proposals.ok());
  bool has_replica = false;
  for (const auto& p : *proposals) {
    if (p.spec.kind == OptKind::kReplica) has_replica = true;
  }
  EXPECT_TRUE(has_replica);
}

TEST_F(AdvisorTest, UnknownColumnIsError) {
  CostModel model(&catalog_);
  Query q;
  q.table = "logs";
  q.predicates = {{"missing", 0.5}};
  SimUser user;
  user.workload.entries = {{q, 1.0}};
  EXPECT_FALSE(
      ProposeOptimizations(catalog_, model, pricing_, {user}).ok());
}

TEST_F(AdvisorTest, GameFromProposalsFeedsAddOff) {
  CostModel model(&catalog_);
  const std::vector<SimUser> users = {MakeUser(1e-5, "tenant", 300.0),
                                      MakeUser(1e-5, "tenant", 250.0),
                                      MakeUser(1e-5, "tenant", 10.0)};
  auto proposals = ProposeOptimizations(catalog_, model, pricing_, users);
  ASSERT_TRUE(proposals.ok());
  ASSERT_FALSE(proposals->empty());

  auto game = GameFromProposals(*proposals);
  ASSERT_TRUE(game.ok()) << game.status().ToString();
  EXPECT_EQ(game->num_users(), 3);
  EXPECT_EQ(game->num_opts(), static_cast<int>(proposals->size()));

  // The full pipeline terminates in a priced configuration.
  optshare::AddOffResult r = optshare::RunAddOff(*game);
  optshare::Accounting acc = optshare::AccountAddOff(*game, r);
  EXPECT_TRUE(acc.CostRecovered());
}

TEST_F(AdvisorTest, GameFromEmptyProposalsFails) {
  EXPECT_FALSE(GameFromProposals({}).ok());
}

// ---------------------------------------------------------------------------
// Incremental advisor vs the whole-roster oracle.
// ---------------------------------------------------------------------------

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void ExpectSameProposals(const std::vector<Proposal>& want,
                         const std::vector<Proposal>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t k = 0; k < want.size(); ++k) {
    const Proposal& a = want[k];
    const Proposal& b = got[k];
    const std::string name = a.spec.DisplayName();
    EXPECT_EQ(name, b.spec.DisplayName()) << "rank " << k;
    EXPECT_EQ(a.spec.kind, b.spec.kind) << name;
    EXPECT_EQ(a.spec.table, b.spec.table) << name;
    EXPECT_EQ(a.spec.column, b.spec.column) << name;
    EXPECT_EQ(Bits(a.spec.view_selectivity), Bits(b.spec.view_selectivity))
        << name;
    EXPECT_EQ(Bits(a.cost), Bits(b.cost)) << name;
    EXPECT_EQ(Bits(a.total_savings), Bits(b.total_savings)) << name;
    ASSERT_EQ(a.user_savings.size(), b.user_savings.size()) << name;
    for (size_t i = 0; i < a.user_savings.size(); ++i) {
      EXPECT_EQ(Bits(a.user_savings[i]), Bits(b.user_savings[i]))
          << name << " user " << i;
    }
    EXPECT_EQ(a.beneficiaries, b.beneficiaries) << name;
  }
}

/// The three presets' tables in one catalog.
Catalog PresetCatalog() {
  Catalog catalog;
  for (const auto& make : {ClickstreamScenario, RetailScenario,
                           TelemetryScenario}) {
    Result<Scenario> scenario = make(6, 12);
    EXPECT_TRUE(scenario.ok());
    for (const TableDef& table : scenario->catalog.tables()) {
      EXPECT_TRUE(catalog.AddTable(table).ok());
    }
  }
  return catalog;
}

/// A random tenant over `catalog`: one or two queries, each filtering up
/// to two columns at selectivities drawn from a small ladder (so views see
/// their minimum drop mid-roster, and some queries filter nothing).
SimUser RandomUser(const Catalog& catalog, Rng& rng) {
  static constexpr double kLadder[] = {1e-7, 1e-5, 1e-3, 0.02, 0.3, 1.0};
  SimUser user;
  const int64_t entries = rng.UniformInt(1, 2);
  for (int64_t e = 0; e < entries; ++e) {
    const TableDef& table = catalog.tables()[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(catalog.tables().size()) - 1))];
    Workload::Entry entry;
    entry.query.table = table.name;
    entry.query.aggregate = rng.Bernoulli(0.7);
    entry.frequency = rng.Uniform(0.5, 3.0);
    const int64_t preds = rng.UniformInt(0, 2);
    for (int64_t k = 0; k < preds; ++k) {
      const Column& column = table.columns[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(table.columns.size()) - 1))];
      bool seen = false;
      for (const Predicate& p : entry.query.predicates) {
        seen = seen || p.column == column.name;
      }
      if (seen) continue;
      entry.query.predicates.push_back(
          {column.name, kLadder[rng.UniformInt(0, 5)]});
    }
    user.workload.entries.push_back(std::move(entry));
  }
  const TimeSlot a = static_cast<TimeSlot>(rng.UniformInt(1, 24));
  const TimeSlot b = static_cast<TimeSlot>(rng.UniformInt(1, 24));
  user.start = std::min(a, b);
  user.end = std::max(a, b);
  user.executions_per_slot = rng.Uniform(1.0, 3000.0);
  return user;
}

/// Feeds `roster` to one Advisor in random chunks (empty ones included),
/// moving the advisor between chunks, and checks it against the oracle
/// over the prefix after every chunk.
void ExpectChunkedMatchesOracle(const Catalog& catalog,
                                const std::vector<SimUser>& roster,
                                const AdvisorOptions& options,
                                uint64_t seed) {
  const CostModel model(&catalog);
  const PricingModel pricing;
  Rng rng(seed);
  Advisor advisor(catalog, model, pricing, options);
  std::vector<SimUser> prefix;
  while (prefix.size() < roster.size()) {
    const size_t chunk = std::min(static_cast<size_t>(rng.UniformInt(0, 5)),
                                  roster.size() - prefix.size());
    for (size_t k = 0; k < chunk; ++k) prefix.push_back(roster[prefix.size()]);
    ASSERT_TRUE(advisor.Extend(prefix).ok());
    EXPECT_EQ(advisor.num_users(), prefix.size());
    Result<std::vector<Proposal>> want =
        reference::ProposeOptimizationsWholeRoster(catalog, model, pricing,
                                                   prefix, options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectSameProposals(*want, advisor.Proposals()))
        << "after " << prefix.size() << " users";
    // A moved advisor keeps scoring in its (heap-held) scratch catalog.
    Advisor moved(std::move(advisor));
    advisor = std::move(moved);
  }
  // Every proposal's spec rescored directly gives its per-user savings.
  for (const Proposal* p : advisor.Ranked()) {
    Result<std::vector<double>> direct = advisor.SpecSavings(p->spec, roster);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct->size(), p->user_savings.size());
    for (size_t i = 0; i < direct->size(); ++i) {
      EXPECT_EQ(Bits((*direct)[i]), Bits(p->user_savings[i]));
    }
  }
  Result<std::vector<Proposal>> one_shot =
      ProposeOptimizations(catalog, model, pricing, roster, options);
  Result<std::vector<Proposal>> want =
      reference::ProposeOptimizationsWholeRoster(catalog, model, pricing,
                                                 roster, options);
  ASSERT_TRUE(one_shot.ok() && want.ok());
  ExpectSameProposals(*want, *one_shot);
}

std::vector<AdvisorOptions> OptionGrid() {
  std::vector<AdvisorOptions> grid(5);
  grid[1].propose_replicas = true;
  grid[2].max_proposals = 3;
  grid[3].min_benefit_ratio = 0.0;
  grid[3].propose_replicas = true;
  grid[4].min_benefit_ratio = 2.0;
  grid[4].max_proposals = 1;
  return grid;
}

TEST(AdvisorDifferential, PresetRostersInRandomChunks) {
  for (const auto& make : {ClickstreamScenario, RetailScenario,
                           TelemetryScenario}) {
    Result<Scenario> scenario = make(30, 24);
    ASSERT_TRUE(scenario.ok());
    Rng jitter(11);
    const std::vector<SimUser> roster =
        JitterTenants(scenario->tenants, 24, jitter);
    uint64_t seed = 1;
    for (const AdvisorOptions& options : OptionGrid()) {
      ASSERT_NO_FATAL_FAILURE(ExpectChunkedMatchesOracle(
          scenario->catalog, roster, options, seed++));
    }
  }
}

TEST(AdvisorDifferential, RandomRostersInRandomChunks) {
  const Catalog catalog = PresetCatalog();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7919);
    std::vector<SimUser> roster;
    const int64_t n = rng.UniformInt(1, 60);
    for (int64_t i = 0; i < n; ++i) roster.push_back(RandomUser(catalog, rng));
    for (const AdvisorOptions& options : OptionGrid()) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectChunkedMatchesOracle(catalog, roster, options, seed));
    }
  }
}

TEST_F(AdvisorTest, ViewSelectivityDropMidRosterRescoresTheView) {
  CostModel model(&catalog_);
  AdvisorOptions all;
  all.min_benefit_ratio = 0.0;
  Advisor advisor(catalog_, model, pricing_, all);
  std::vector<SimUser> roster = {MakeUser(1e-3, "tenant", 200.0),
                                 MakeUser(1e-3, "tenant", 80.0)};
  ASSERT_TRUE(advisor.Extend(roster).ok());
  roster.push_back(MakeUser(1e-5, "tenant", 50.0));
  ASSERT_TRUE(advisor.Extend(roster).ok());
  bool saw_view = false;
  for (const Proposal* p : advisor.Ranked()) {
    if (p->spec.kind != OptKind::kMaterializedView) continue;
    saw_view = true;
    EXPECT_EQ(p->spec.view_selectivity, 1e-5);
  }
  EXPECT_TRUE(saw_view);
  Result<std::vector<Proposal>> want =
      reference::ProposeOptimizationsWholeRoster(catalog_, model, pricing_,
                                                 roster, all);
  ASSERT_TRUE(want.ok());
  ExpectSameProposals(*want, advisor.Proposals());
}

TEST_F(AdvisorTest, NewColumnMidRosterIsScoredOverTheWholeRoster) {
  CostModel model(&catalog_);
  AdvisorOptions all;
  all.min_benefit_ratio = 0.0;
  Advisor advisor(catalog_, model, pricing_, all);
  std::vector<SimUser> roster = {MakeUser(1e-5, "tenant", 200.0)};
  ASSERT_TRUE(advisor.Extend(roster).ok());
  EXPECT_EQ(advisor.Ranked().size(), 2u);
  roster.push_back(MakeUser(0.125, "severity", 500.0));
  ASSERT_TRUE(advisor.Extend(roster).ok());
  EXPECT_EQ(advisor.Ranked().size(), 4u);
  for (const Proposal* p : advisor.Ranked()) {
    EXPECT_EQ(p->user_savings.size(), 2u) << p->spec.DisplayName();
  }
  Result<std::vector<Proposal>> want =
      reference::ProposeOptimizationsWholeRoster(catalog_, model, pricing_,
                                                 roster, all);
  ASSERT_TRUE(want.ok());
  ExpectSameProposals(*want, advisor.Proposals());
}

TEST(AdvisorDifferential, InvalidTenantGivesTheOneShotStatusAndNoChange) {
  const Catalog catalog = PresetCatalog();
  const CostModel model(&catalog);
  const PricingModel pricing;
  // Each breaks one validation step of the one-shot pass.
  const auto breakers = std::vector<void (*)(SimUser&)>{
      [](SimUser& u) { u.workload.entries[0].query.table = "nowhere"; },
      [](SimUser& u) {
        u.workload.entries[0].query.predicates.push_back({"nope", 0.5});
      },
      [](SimUser& u) {
        u.workload.entries[0].query.predicates.push_back({"device", 0.0});
      },
      [](SimUser& u) { u.workload.entries.back().frequency = 0.0; },
  };
  uint64_t seed = 1;
  for (auto* breaker : breakers) {
    Rng rng(seed * 104729);
    std::vector<SimUser> roster;
    for (int i = 0; i < 30; ++i) roster.push_back(RandomUser(catalog, rng));
    // Two broken tenants: the first one must be the one reported.
    const size_t bad = static_cast<size_t>(rng.UniformInt(3, 20));
    breaker(roster[bad]);
    roster[bad + 2].workload.entries[0].query.table = "also_nowhere";

    const Status want = reference::ProposeOptimizationsWholeRoster(
                            catalog, model, pricing, roster)
                            .status();
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(
        ProposeOptimizations(catalog, model, pricing, roster).status()
            .ToString(),
        want.ToString());

    Advisor advisor(catalog, model, pricing);
    std::vector<SimUser> prefix;
    Status got;
    while (got.ok()) {
      const size_t before = prefix.size();
      const size_t chunk = static_cast<size_t>(rng.UniformInt(1, 4));
      for (size_t k = 0; k < chunk && prefix.size() < roster.size(); ++k) {
        prefix.push_back(roster[prefix.size()]);
      }
      got = advisor.Extend(prefix);
      if (got.ok()) continue;
      EXPECT_EQ(got.ToString(), want.ToString()) << "breaker " << seed;
      // The failed Extend changed nothing.
      EXPECT_EQ(advisor.num_users(), before);
      prefix.resize(before);
      Result<std::vector<Proposal>> prior =
          reference::ProposeOptimizationsWholeRoster(catalog, model, pricing,
                                                     prefix);
      ASSERT_TRUE(prior.ok());
      ExpectSameProposals(*prior, advisor.Proposals());
    }
    ++seed;
  }
}

}  // namespace
}  // namespace optshare::simdb
