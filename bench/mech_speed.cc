// Mechanism speed harness: times the unified engine (core/mechanism.h)
// against the seed's dense-scan implementations (tests/support/reference.h) and
// emits BENCH_mechanisms.json — ops/sec per mechanism per user count — so
// every later PR has a perf trajectory to compare against.
//
//   mech_speed [--quick] [--out PATH]
//
// --quick caps the user counts (CI-friendly); the default sweep goes to
// n = 100k users on the Shapley/AddOn hot path. No google-benchmark
// dependency: plain chrono, adaptive repetition counts, one JSON document.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/mechanism.h"
#include "support/reference.h"
#include "workload/scenario.h"

namespace optshare {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchRow {
  std::string mechanism;  // "shapley", "shapley_cascade", "addon", ...
  std::string variant;    // "engine" or "dense"
  int n = 0;              // users
  double ms_per_run = 0.0;
  double ops_per_sec = 0.0;  // user-slots (online) or users (offline) / sec
};

/// Times fn adaptively: one warm-up, then enough repetitions to cover
/// ~0.25s (capped), returning milliseconds per run.
template <typename Fn>
double TimeMs(Fn&& fn) {
  fn();  // warm-up
  auto once = [&] {
    const auto start = Clock::now();
    fn();
    const auto stop = Clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
  };
  const double first = once();
  int reps = 1;
  if (first < 250.0) {
    reps = std::min(50, std::max(1, static_cast<int>(250.0 / (first + 0.01))));
  }
  double total = first;
  for (int r = 1; r < reps; ++r) total += once();
  return total / reps;
}

std::vector<double> UniformBids(int n, Rng& rng) {
  std::vector<double> bids;
  bids.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) bids.push_back(rng.Uniform(0.0, 1.0));
  return bids;
}

/// b_k = C/(k + 0.5): one eviction per dense round — the quadratic worst
/// case the sorted prefix scan reduces to O(n log n).
std::vector<double> CascadeBids(int n, double cost) {
  std::vector<double> bids;
  bids.reserve(static_cast<size_t>(n));
  for (int k = 1; k <= n; ++k) bids.push_back(cost / (k + 0.5));
  return bids;
}

}  // namespace

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_mechanisms.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else {
      std::cerr << "usage: mech_speed [--quick] [--out PATH]\n";
      return 2;
    }
  }

  std::vector<BenchRow> rows;
  auto record = [&](std::string mechanism, std::string variant, int n,
                    double ms, double ops) {
    std::printf("%-18s %-6s n=%-8d %10.3f ms/run  %12.0f ops/s\n",
                mechanism.c_str(), variant.c_str(), n, ms, ops);
    std::fflush(stdout);
    rows.push_back({std::move(mechanism), std::move(variant), n, ms, ops});
  };

  // --- Shapley, uniform bids ----------------------------------------------
  for (int n : std::vector<int>{1000, 10000, quick ? 0 : 100000}) {
    if (n == 0) continue;
    Rng rng(1);
    const std::vector<double> bids = UniformBids(n, rng);
    const double cost = 0.3 * n;
    double ms = TimeMs([&] { RunShapley(cost, bids); });
    record("shapley", "engine", n, ms, n / ms * 1000.0);
    ms = TimeMs([&] { reference::RunShapleyDense(cost, bids); });
    record("shapley", "dense", n, ms, n / ms * 1000.0);
  }

  // --- Shapley, eviction-cascade bids -------------------------------------
  for (int n : std::vector<int>{1000, 10000, quick ? 0 : 30000}) {
    if (n == 0) continue;
    const double cost = 100.0;
    const std::vector<double> bids = CascadeBids(n, cost);
    double ms = TimeMs([&] { RunShapley(cost, bids); });
    record("shapley_cascade", "engine", n, ms, n / ms * 1000.0);
    ms = TimeMs([&] { reference::RunShapleyDense(cost, bids); });
    record("shapley_cascade", "dense", n, ms, n / ms * 1000.0);
  }

  // --- AddOn over a full period (long subscriptions) ----------------------
  for (int n : std::vector<int>{10000, quick ? 0 : 100000}) {
    if (n == 0) continue;
    AdditiveScenario scenario;
    scenario.num_users = n;
    scenario.num_slots = 50;
    scenario.duration = 25;
    Rng rng(2);
    const AdditiveOnlineGame game =
        MakeAdditiveGame(scenario, 0.1 * n, rng);
    const double user_slots =
        static_cast<double>(n) * scenario.num_slots;
    double ms = TimeMs([&] { engine::RunAddOnEngine(game); });
    record("addon", "engine", n, ms, user_slots / ms * 1000.0);
    ms = TimeMs([&] { reference::RunAddOnDense(game); });
    record("addon", "dense", n, ms, user_slots / ms * 1000.0);
  }

  // --- SubstOff ------------------------------------------------------------
  for (int n : std::vector<int>{2000, quick ? 0 : 20000}) {
    if (n == 0) continue;
    Rng rng(3);
    SubstOfflineGame game;
    const int opts = 16;
    for (int j = 0; j < opts; ++j) {
      game.costs.push_back(rng.Uniform(0.02, 0.1) * n);
    }
    for (int i = 0; i < n; ++i) {
      SubstOfflineUser user;
      user.value = rng.Uniform(0.01, 1.0);
      for (int s : rng.SampleWithoutReplacement(opts, 3)) {
        user.substitutes.push_back(s);
      }
      game.users.push_back(std::move(user));
    }
    double ms = TimeMs([&] { RunSubstOff(game); });
    record("substoff", "engine", n, ms, n / ms * 1000.0);
    ms = TimeMs([&] { reference::RunSubstOffDense(game); });
    record("substoff", "dense", n, ms, n / ms * 1000.0);
  }

  // --- SubstOn over a period ----------------------------------------------
  for (int n : std::vector<int>{1000, quick ? 0 : 5000}) {
    if (n == 0) continue;
    SubstScenario scenario;
    scenario.num_users = n;
    scenario.num_slots = 30;
    scenario.num_opts = 12;
    scenario.substitutes_per_user = 3;
    scenario.duration = 10;
    Rng rng(4);
    const SubstOnlineGame game = MakeSubstGame(scenario, 0.05 * n, rng);
    const double user_slots =
        static_cast<double>(n) * scenario.num_slots;
    double ms = TimeMs([&] { RunSubstOn(game); });
    record("subston", "engine", n, ms, user_slots / ms * 1000.0);
    ms = TimeMs([&] { reference::RunSubstOnDense(game); });
    record("subston", "dense", n, ms, user_slots / ms * 1000.0);
  }

  // --- Emit JSON -----------------------------------------------------------
  JsonValue doc = JsonValue::MakeObject();
  JsonValue benchmarks = JsonValue::MakeArray();
  for (const BenchRow& row : rows) {
    JsonValue b = JsonValue::MakeObject();
    b.Set("mechanism", JsonValue::Str(row.mechanism));
    b.Set("variant", JsonValue::Str(row.variant));
    b.Set("n", JsonValue::Number(row.n));
    b.Set("ms_per_run", JsonValue::Number(row.ms_per_run));
    b.Set("ops_per_sec", JsonValue::Number(row.ops_per_sec));
    benchmarks.Append(std::move(b));
  }
  doc.Set("benchmarks", std::move(benchmarks));

  JsonValue speedups = JsonValue::MakeObject();
  for (const BenchRow& row : rows) {
    if (row.variant != "engine") continue;
    for (const BenchRow& dense : rows) {
      if (dense.variant == "dense" && dense.mechanism == row.mechanism &&
          dense.n == row.n) {
        speedups.Set(row.mechanism + "_n" + std::to_string(row.n),
                     JsonValue::Number(dense.ms_per_run / row.ms_per_run));
      }
    }
  }
  doc.Set("speedups", std::move(speedups));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << doc.Dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace optshare

int main(int argc, char** argv) { return optshare::Main(argc, argv); }
