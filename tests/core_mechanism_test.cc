// Cross-mechanism property suite for the unified engine (core/mechanism.h):
//
//  * Differential parity: every engine-backed entry point must reproduce
//    the seed's dense-scan implementations (tests/support/reference.h) exactly —
//    serviced sets, payments, shares, and even round counts — on seeded
//    random games (n up to 1k users, z up to 50 slots).
//  * Economic properties: budget balance (offline), cost recovery (online),
//    and cross-monotonicity of the sharing methods.
//  * Registry: name-based mechanism selection, Supports() enforcement, and
//    agreement between MechanismResult/AccountResult and the per-mechanism
//    legacy accounting.
#include "core/mechanism.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "baseline/baseline_mechanisms.h"
#include "baseline/naive_online.h"
#include "baseline/regret.h"
#include "common/money.h"
#include "common/rng.h"
#include "core/accounting.h"
#include "core/moulin.h"
#include "support/reference.h"
#include "workload/scenario.h"

namespace optshare {
namespace {

void ExpectSameShapley(const ShapleyResult& engine, const ShapleyResult& dense,
                       const std::string& context) {
  EXPECT_EQ(engine.implemented, dense.implemented) << context;
  EXPECT_EQ(engine.iterations, dense.iterations) << context;
  EXPECT_EQ(engine.serviced, dense.serviced) << context;
  // Shares and payments are C/k for the same k: bit-identical, not merely
  // within tolerance.
  EXPECT_EQ(engine.cost_share, dense.cost_share) << context;
  EXPECT_EQ(engine.payments, dense.payments) << context;
}

std::vector<double> RandomBids(Rng& rng, int m, double zero_fraction,
                               double inf_fraction) {
  std::vector<double> bids;
  bids.reserve(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const double roll = rng.NextDouble();
    if (roll < zero_fraction) {
      bids.push_back(0.0);
    } else if (roll < zero_fraction + inf_fraction) {
      bids.push_back(kInfiniteBid);
    } else {
      bids.push_back(rng.Uniform(0.0, 1.0));
    }
  }
  return bids;
}

// --- Shapley ---------------------------------------------------------------

TEST(MechanismEngineTest, ShapleyMatchesDenseOnRandomBids) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 999));
    const std::vector<double> bids = RandomBids(rng, m, 0.2, 0.02);
    const double cost = rng.Uniform(0.01, 0.6) * m;
    ExpectSameShapley(RunShapley(cost, bids),
                      reference::RunShapleyDense(cost, bids),
                      "trial " + std::to_string(trial));
  }
}

TEST(MechanismEngineTest, ShapleyMatchesDenseOnEvictionCascade) {
  // b_k = C/(k + 0.5) forces one eviction per dense round — the worst case
  // the sorted prefix scan eliminates. Nothing is implementable.
  const int m = 300;
  const double cost = 100.0;
  std::vector<double> bids;
  for (int k = 1; k <= m; ++k) bids.push_back(cost / (k + 0.5));
  ExpectSameShapley(RunShapley(cost, bids),
                    reference::RunShapleyDense(cost, bids), "cascade");
  EXPECT_FALSE(RunShapley(cost, bids).implemented);
  EXPECT_EQ(RunShapley(cost, bids).iterations, m);
}

TEST(MechanismEngineTest, ShapleyMatchesDenseOnTinyCost) {
  // Cost below m * epsilon: the share collapses under the money tolerance
  // and the dense loop services even zero bidders.
  const std::vector<double> bids = {0.0, 0.5, 0.0, kInfiniteBid};
  const double cost = 1e-12;
  const ShapleyResult engine = RunShapley(cost, bids);
  ExpectSameShapley(engine, reference::RunShapleyDense(cost, bids),
                    "tiny cost");
  EXPECT_EQ(engine.NumServiced(), 4);
}

TEST(MechanismEngineTest, ShapleyMatchesDenseOnEdgeCases) {
  ExpectSameShapley(RunShapley(10.0, {}), reference::RunShapleyDense(10.0, {}),
                    "no users");
  ExpectSameShapley(RunShapley(10.0, {0.0, 0.0}),
                    reference::RunShapleyDense(10.0, {0.0, 0.0}),
                    "all zero");
  ExpectSameShapley(RunShapley(10.0, {kInfiniteBid}),
                    reference::RunShapleyDense(10.0, {kInfiniteBid}),
                    "single pinned");
  // Bid exactly at the even share stays serviced.
  ExpectSameShapley(RunShapley(90.0, {30.0, 30.0, 30.0}),
                    reference::RunShapleyDense(90.0, {30.0, 30.0, 30.0}),
                    "exact share");
}

// --- Moulin ----------------------------------------------------------------

TEST(MechanismEngineTest, EgalitarianMoulinMatchesDense) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 200));
    const std::vector<double> bids = RandomBids(rng, m, 0.1, 0.0);
    const double cost = rng.Uniform(0.01, 0.5) * m;
    EgalitarianSharing method(cost);
    ExpectSameShapley(RunMoulin(method, bids),
                      reference::RunMoulinDense(method, bids),
                      "trial " + std::to_string(trial));
    // The egalitarian Moulin path and Mechanism 1 are one code path now.
    ExpectSameShapley(RunMoulin(method, bids), RunShapley(cost, bids),
                      "vs shapley, trial " + std::to_string(trial));
  }
}

TEST(MechanismEngineTest, WeightedMoulinStillMatchesDense) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 64));
    std::vector<double> weights;
    for (int i = 0; i < m; ++i) weights.push_back(rng.Uniform(0.5, 4.0));
    const auto method = WeightedSharing::Make(rng.Uniform(0.1, 10.0), weights);
    ASSERT_TRUE(method.ok());
    const std::vector<double> bids = RandomBids(rng, m, 0.1, 0.0);
    ExpectSameShapley(RunMoulin(*method, bids),
                      reference::RunMoulinDense(*method, bids),
                      "trial " + std::to_string(trial));
  }
}

TEST(MechanismEngineTest, SharingMethodsStayCrossMonotonic) {
  EXPECT_TRUE(IsCrossMonotonic(EgalitarianSharing(7.0), 6));
  const auto weighted = WeightedSharing::Make(7.0, {1.0, 2.5, 0.5, 3.0});
  ASSERT_TRUE(weighted.ok());
  EXPECT_TRUE(IsCrossMonotonic(*weighted, 4));
}

// --- AddOff ----------------------------------------------------------------

TEST(MechanismEngineTest, AddOffMatchesDense) {
  Rng rng(14);
  for (int trial = 0; trial < 30; ++trial) {
    AdditiveOfflineGame game;
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 300));
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 8));
    for (int j = 0; j < n; ++j) {
      game.costs.push_back(rng.Uniform(0.01, 0.5) * m);
    }
    for (int i = 0; i < m; ++i) {
      std::vector<double> row;
      for (int j = 0; j < n; ++j) {
        row.push_back(rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 1.0));
      }
      game.bids.push_back(std::move(row));
    }
    ASSERT_TRUE(game.Validate().ok());

    const AddOffResult engine = RunAddOff(game);
    const AddOffResult dense = reference::RunAddOffDense(game);
    ASSERT_EQ(engine.per_opt.size(), dense.per_opt.size());
    EXPECT_EQ(engine.total_payment, dense.total_payment);
    for (size_t j = 0; j < dense.per_opt.size(); ++j) {
      ExpectSameShapley(engine.per_opt[j], dense.per_opt[j],
                        "trial " + std::to_string(trial) + " opt " +
                            std::to_string(j));
    }
    // Budget balance: payments exactly cover implemented costs.
    double paid = 0.0;
    for (double p : engine.total_payment) paid += p;
    EXPECT_NEAR(paid, engine.ImplementedCost(game.costs), 1e-6);
  }
}

// --- AddOn -----------------------------------------------------------------

AdditiveScenario RandomAdditiveScenario(Rng& rng, int max_users) {
  AdditiveScenario scenario;
  scenario.num_users = 1 + static_cast<int>(rng.UniformInt(0, max_users - 1));
  scenario.num_slots = 1 + static_cast<int>(rng.UniformInt(0, 49));
  scenario.duration =
      1 + static_cast<int>(rng.UniformInt(0, scenario.num_slots - 1));
  return scenario;
}

TEST(MechanismEngineTest, AddOnMatchesDenseOnRandomGames) {
  Rng rng(15);
  for (int trial = 0; trial < 25; ++trial) {
    const AdditiveScenario scenario = RandomAdditiveScenario(rng, 1000);
    const double cost =
        rng.Uniform(0.005, 0.3) * scenario.num_users + 0.001;
    const AdditiveOnlineGame game = MakeAdditiveGame(scenario, cost, rng);

    const AddOnResult engine = RunAddOn(game);
    const AddOnResult dense = reference::RunAddOnDense(game);
    const std::string context = "trial " + std::to_string(trial);
    EXPECT_EQ(engine.implemented, dense.implemented) << context;
    EXPECT_EQ(engine.implemented_at, dense.implemented_at) << context;
    EXPECT_EQ(engine.serviced, dense.serviced) << context;
    EXPECT_EQ(engine.cumulative, dense.cumulative) << context;
    EXPECT_EQ(engine.payments, dense.payments) << context;
    EXPECT_EQ(engine.cost_share, dense.cost_share) << context;

    // Cost recovery: departures pay at least the final share, so payments
    // cover the cost whenever the optimization was built.
    if (engine.implemented) {
      EXPECT_TRUE(MoneyGe(engine.TotalPayment(), game.cost)) << context;
    }
  }
}

TEST(MechanismEngineTest, AddOnMatchesDenseWithNonUniformStreams) {
  // Random (not evenly spread) per-slot values exercise the residual
  // suffix-sum state against the dense per-slot recomputation.
  Rng rng(16);
  for (int trial = 0; trial < 25; ++trial) {
    AdditiveOnlineGame game;
    game.num_slots = 1 + static_cast<int>(rng.UniformInt(0, 49));
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 499));
    game.cost = rng.Uniform(0.01, 0.4) * m + 0.001;
    for (int i = 0; i < m; ++i) {
      const TimeSlot start =
          1 + static_cast<TimeSlot>(rng.UniformInt(0, game.num_slots - 1));
      const TimeSlot end =
          start + static_cast<TimeSlot>(rng.UniformInt(0, game.num_slots - start));
      std::vector<double> values;
      for (TimeSlot t = start; t <= end; ++t) {
        values.push_back(rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 1.0));
      }
      game.users.push_back(*SlotValues::Make(start, end, std::move(values)));
    }
    ASSERT_TRUE(game.Validate().ok());

    const AddOnResult engine = RunAddOn(game);
    const AddOnResult dense = reference::RunAddOnDense(game);
    const std::string context = "trial " + std::to_string(trial);
    EXPECT_EQ(engine.serviced, dense.serviced) << context;
    EXPECT_EQ(engine.cumulative, dense.cumulative) << context;
    EXPECT_EQ(engine.payments, dense.payments) << context;
    EXPECT_EQ(engine.cost_share, dense.cost_share) << context;
  }
}

// --- SubstOff / SubstOn ----------------------------------------------------

TEST(MechanismEngineTest, SubstOffMatchesDenseOnRandomMatrices) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 300));
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 10));
    std::vector<double> costs;
    for (int j = 0; j < n; ++j) costs.push_back(rng.Uniform(0.05, 0.3) * m);
    std::vector<std::vector<double>> bids(
        static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(n)));
    for (auto& row : bids) {
      for (double& b : row) {
        const double roll = rng.NextDouble();
        // Mix in pins (as SubstOn produces) and zeros.
        b = roll < 0.55 ? 0.0
            : roll < 0.57 ? kInfiniteBid
                          : rng.Uniform(0.0, 1.0);
      }
    }

    const SubstOffResult engine = RunSubstOffMatrix(costs, bids);
    const SubstOffResult dense =
        reference::RunSubstOffMatrixDense(costs, bids);
    const std::string context = "trial " + std::to_string(trial);
    EXPECT_EQ(engine.implemented, dense.implemented) << context;
    EXPECT_EQ(engine.grant, dense.grant) << context;
    EXPECT_EQ(engine.payments, dense.payments) << context;
    EXPECT_EQ(engine.cost_share, dense.cost_share) << context;
  }
}

TEST(MechanismEngineTest, SubstOffMatchesDenseOnGames) {
  Rng rng(18);
  for (int trial = 0; trial < 30; ++trial) {
    SubstOfflineGame game;
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 400));
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 10));
    for (int j = 0; j < n; ++j) {
      game.costs.push_back(rng.Uniform(0.02, 0.2) * m);
    }
    for (int i = 0; i < m; ++i) {
      SubstOfflineUser user;
      user.value = rng.Uniform(0.01, 1.0);
      const int subs = 1 + static_cast<int>(rng.UniformInt(0, n - 1));
      for (int s : rng.SampleWithoutReplacement(n, subs)) {
        user.substitutes.push_back(s);
      }
      game.users.push_back(std::move(user));
    }
    ASSERT_TRUE(game.Validate().ok());

    const SubstOffResult engine = RunSubstOff(game);
    const SubstOffResult dense = reference::RunSubstOffDense(game);
    const std::string context = "trial " + std::to_string(trial);
    EXPECT_EQ(engine.implemented, dense.implemented) << context;
    EXPECT_EQ(engine.grant, dense.grant) << context;
    EXPECT_EQ(engine.payments, dense.payments) << context;
    EXPECT_EQ(engine.cost_share, dense.cost_share) << context;

    // Budget balance per phase: every granted user pays the phase share.
    EXPECT_NEAR(engine.TotalPayment(), engine.ImplementedCost(game.costs),
                1e-6)
        << context;
  }
}

TEST(MechanismEngineTest, SubstOnMatchesDenseOnRandomGames) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    SubstScenario scenario;
    scenario.num_users = 1 + static_cast<int>(rng.UniformInt(0, 499));
    scenario.num_slots = 1 + static_cast<int>(rng.UniformInt(0, 49));
    scenario.num_opts = 2 + static_cast<int>(rng.UniformInt(0, 10));
    scenario.substitutes_per_user =
        1 + static_cast<int>(rng.UniformInt(0, scenario.num_opts - 1));
    scenario.duration =
        1 + static_cast<int>(rng.UniformInt(0, scenario.num_slots - 1));
    const double mean_cost =
        rng.Uniform(0.01, 0.2) * scenario.num_users + 0.001;
    const SubstOnlineGame game = MakeSubstGame(scenario, mean_cost, rng);

    const SubstOnResult engine = RunSubstOn(game);
    const SubstOnResult dense = reference::RunSubstOnDense(game);
    const std::string context = "trial " + std::to_string(trial);
    EXPECT_EQ(engine.grant, dense.grant) << context;
    EXPECT_EQ(engine.grant_slot, dense.grant_slot) << context;
    EXPECT_EQ(engine.payments, dense.payments) << context;
    EXPECT_EQ(engine.implemented_at, dense.implemented_at) << context;
    EXPECT_EQ(engine.serviced, dense.serviced) << context;

    // Cost recovery across the horizon.
    EXPECT_TRUE(MoneyGe(engine.TotalPayment(),
                        engine.ImplementedCost(game.costs)))
        << context;
  }
}

// --- Registry / MechanismResult -------------------------------------------

TEST(MechanismRegistryTest, CoreAndBaselineNamesResolve) {
  RegisterBaselineMechanisms();
  MechanismRegistry& registry = MechanismRegistry::Global();
  for (const char* name : {"addoff", "shapley", "addon", "substoff",
                           "subston", "naive", "naive_online", "vcg",
                           "regret"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto mech = registry.Create(name);
    ASSERT_TRUE(mech.ok()) << name;
  }
  EXPECT_FALSE(registry.Create("no_such_mechanism").ok());
}

TEST(MechanismRegistryTest, SupportsIsEnforced) {
  RegisterBaselineMechanisms();
  AdditiveOfflineGame offline;
  offline.costs = {10.0};
  offline.bids = {{12.0}};
  // An online-only mechanism must reject an offline game.
  const auto result = RunMechanism("addon", GameView(offline));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MechanismRegistryTest, AddOnResultAgreesWithLegacyAccounting) {
  Rng rng(20);
  for (int trial = 0; trial < 10; ++trial) {
    const AdditiveScenario scenario = RandomAdditiveScenario(rng, 300);
    const double cost = rng.Uniform(0.01, 0.3) * scenario.num_users + 0.001;
    const AdditiveOnlineGame game = MakeAdditiveGame(scenario, cost, rng);

    const auto result = RunMechanism("addon", GameView(game));
    ASSERT_TRUE(result.ok());
    const AddOnResult legacy = RunAddOn(game);

    EXPECT_EQ(result->payments, legacy.payments);
    EXPECT_EQ(result->implemented, legacy.implemented);
    const Accounting uniform = AccountResult(GameView(game), *result);
    const Accounting direct = AccountAddOn(game, legacy);
    EXPECT_EQ(uniform.user_value, direct.user_value);
    EXPECT_EQ(uniform.user_payment, direct.user_payment);
    EXPECT_EQ(uniform.total_cost, direct.total_cost);
  }
}

TEST(MechanismRegistryTest, SubstOnResultAgreesWithLegacyAccounting) {
  Rng rng(21);
  SubstScenario scenario;
  scenario.num_users = 60;
  scenario.num_slots = 20;
  scenario.num_opts = 6;
  scenario.substitutes_per_user = 2;
  for (int trial = 0; trial < 10; ++trial) {
    const SubstOnlineGame game = MakeSubstGame(scenario, 2.0, rng);
    const auto result = RunMechanism("subston", GameView(game));
    ASSERT_TRUE(result.ok());
    const SubstOnResult legacy = RunSubstOn(game);

    EXPECT_EQ(result->payments, legacy.payments);
    EXPECT_EQ(result->grant, legacy.grant);
    EXPECT_EQ(result->grant_slot, legacy.grant_slot);
    const Accounting uniform = AccountResult(GameView(game), *result);
    const Accounting direct = AccountSubstOn(game, legacy);
    EXPECT_EQ(uniform.user_value, direct.user_value);
    EXPECT_EQ(uniform.user_payment, direct.user_payment);
    EXPECT_EQ(uniform.total_cost, direct.total_cost);
  }
}

TEST(MechanismRegistryTest, AddOffResultAgreesWithLegacyAccounting) {
  AdditiveOfflineGame game;
  game.costs = {90.0, 50.0};
  game.bids = {{40.0, 0.0}, {30.0, 60.0}, {35.0, 10.0}};
  const auto result = RunMechanism("addoff", GameView(game));
  ASSERT_TRUE(result.ok());
  const Accounting uniform = AccountResult(GameView(game), *result);
  const Accounting direct = AccountAddOff(game, RunAddOff(game));
  EXPECT_EQ(uniform.user_value, direct.user_value);
  EXPECT_EQ(uniform.user_payment, direct.user_payment);
  EXPECT_EQ(uniform.total_cost, direct.total_cost);
}

TEST(MechanismRegistryTest, BaselineResultsFlowThroughUniformAccounting) {
  RegisterBaselineMechanisms();
  Rng rng(22);
  AdditiveScenario scenario;
  scenario.num_users = 40;
  scenario.num_slots = 12;
  scenario.duration = 3;
  const AdditiveOnlineGame game = MakeAdditiveGame(scenario, 2.0, rng);

  // Regret through the registry must reproduce its own ledger.
  const auto regret = RunMechanism("regret", GameView(game));
  ASSERT_TRUE(regret.ok());
  const Accounting acc = AccountResult(GameView(game), *regret);
  const RegretAdditiveResult direct = RunRegretAdditive(game);
  EXPECT_NEAR(acc.TotalValue(), direct.total_value, 1e-9);
  EXPECT_NEAR(acc.TotalPayment(), direct.total_payment, 1e-9);
  EXPECT_NEAR(acc.total_cost, direct.total_cost, 1e-9);

  // NaiveOnline through the registry keeps its payments.
  const auto naive = RunMechanism("naive_online", GameView(game));
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->payments, RunNaiveOnline(game).payments);
}

/// Minimal mechanism for registry-churn tests.
class TransientMechanism final : public Mechanism {
 public:
  std::string_view name() const override { return "transient"; }
  bool Supports(GameKind) const override { return false; }
  Result<MechanismResult> Run(const GameView& game) const override {
    return UnsupportedKind("transient", game.kind());
  }
};

TEST(MechanismRegistryTest, ConcurrentCreateAndListingIsSafe) {
  // Regression for the multi-tenant server: shards resolve mechanisms by
  // name concurrently while late registrations may still be arriving. Every
  // Create must return a working instance (or a clean NotFound), and no
  // call may crash or corrupt the entry list. Run under TSan in CI.
  RegisterBaselineMechanisms();
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> failures{0};
  std::atomic<int> registered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures, &registered] {
      for (int i = 0; i < kIters; ++i) {
        Result<std::unique_ptr<Mechanism>> mech =
            MechanismRegistry::Global().Create(i % 2 == 0 ? "addon"
                                                          : "naive_online");
        if (!mech.ok() || *mech == nullptr) failures.fetch_add(1);
        if (MechanismRegistry::Global().Names().empty()) failures.fetch_add(1);
        if (!MechanismRegistry::Global().Contains("addoff")) {
          failures.fetch_add(1);
        }
        // Unknown names stay clean NotFounds mid-churn.
        if (MechanismRegistry::Global().Create("no_such_mech").ok()) {
          failures.fetch_add(1);
        }
        // Concurrent registration of thread-unique names must never
        // collide with lookups (registration-before-serving is the
        // documented contract, but racing must stay memory-safe).
        const std::string name =
            "transient_" + std::to_string(t) + "_" + std::to_string(i);
        Status st = MechanismRegistry::Global().Register(
            name, [] { return std::make_unique<TransientMechanism>(); });
        if (st.ok()) registered.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registered.load(), kThreads * kIters);
  // Every transient registration is visible afterwards.
  EXPECT_TRUE(MechanismRegistry::Global().Contains("transient_0_0"));
  EXPECT_TRUE(
      MechanismRegistry::Global().Create("transient_7_199").ok());
}

TEST(MechanismResultTest, MembershipUsesSortedSpans) {
  AdditiveOfflineGame game;
  game.costs = {90.0};
  game.bids = {{40.0}, {10.0}, {35.0}, {45.0}};
  const auto result = RunMechanism("addoff", GameView(game));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Serviced(0, 0));
  EXPECT_FALSE(result->Serviced(1, 0));
  EXPECT_TRUE(result->Serviced(3, 0));
  EXPECT_FALSE(result->Serviced(0, 5));  // Out-of-range opt.
  EXPECT_EQ(result->ImplementedOpts(), std::vector<OptId>{0});
  EXPECT_NEAR(result->TotalPayment(), 90.0, 1e-9);
}

}  // namespace
}  // namespace optshare
