// Streaming-session speed harness: measures the steady-state per-slot cost
// of the slot-incremental AddOn surface (core/online_mechanism.h) against
// what the old batch API forces — a full-game recompute whenever the
// period's state changes — and emits BENCH_streaming.json. The acceptance
// bar for the API redesign: at n = 100k tenants, the steady-state per-slot
// session cost must sit at or below the amortized batch-recompute cost
// (one full RunAddOnEngine pass per slot).
//
//   stream_speed [--quick] [--out PATH]
//
// It also times PricingSession::AdvanceSlot at the marketplace's billing
// shape (telemetry catalog, 96-slot periods, 4 arrivals per slot):
// session_advance reports the mean µs per advance over the first and the
// last 16 slots of a period (medians over several periods) and their ratio
// late_vs_early. The roster grows 24-fold between the two windows, so a
// per-slot cost that grows with the roster (an advisor that rescores the
// whole period, say) shows as a large ratio on any hardware.
//
// --quick shrinks the tenant counts and periods (CI smoke); the default
// sweep goes to n = 100k. No google-benchmark dependency: plain chrono,
// one JSON doc.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/online_mechanism.h"
#include "service/pricing_session.h"
#include "simdb/scenarios.h"
#include "workload/event_stream.h"

namespace optshare {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Times fn adaptively: one warm-up, then enough repetitions to cover
/// ~0.25s (capped), returning milliseconds per run.
template <typename Fn>
double TimeMs(Fn&& fn) {
  fn();  // warm-up
  auto once = [&] {
    const auto start = Clock::now();
    fn();
    return ElapsedMs(start);
  };
  const double first = once();
  int reps = 1;
  if (first < 250.0) {
    reps = std::min(20, std::max(1, static_cast<int>(250.0 / (first + 0.01))));
  }
  double total = first;
  for (int r = 1; r < reps; ++r) total += once();
  return total / reps;
}

struct StreamTimings {
  double total_ms = 0.0;
  double per_slot_mean_ms = 0.0;
  double per_slot_median_ms = 0.0;  // The steady-state figure.
  double finalize_ms = 0.0;
};

/// Replays `log` through the native streaming mechanism, timing each
/// OnSlot; the median per-slot time is the steady-state cost.
Result<StreamTimings> TimeStream(const SlotEventLog& log) {
  Result<std::unique_ptr<OnlineMechanism>> mech =
      ResolveOnlineMechanism("addon", log.kind);
  if (!mech.ok()) return mech.status();

  StreamTimings t;
  std::vector<double> slot_ms;
  slot_ms.reserve(static_cast<size_t>(log.num_slots));

  OnlineGameMeta meta;
  meta.kind = log.kind;
  meta.num_slots = log.num_slots;
  meta.costs = log.costs;
  OPTSHARE_RETURN_NOT_OK((*mech)->Begin(meta));
  for (TimeSlot slot = 1; slot <= log.num_slots; ++slot) {
    const auto start = Clock::now();
    Result<OnlineSlotReport> report =
        (*mech)->OnSlot(slot, log.events[static_cast<size_t>(slot - 1)]);
    if (!report.ok()) return report.status();
    slot_ms.push_back(ElapsedMs(start));
  }
  const auto fin_start = Clock::now();
  Result<MechanismResult> result = (*mech)->Finalize();
  if (!result.ok()) return result.status();
  t.finalize_ms = ElapsedMs(fin_start);

  for (double ms : slot_ms) t.total_ms += ms;
  t.per_slot_mean_ms = t.total_ms / static_cast<double>(slot_ms.size());
  std::sort(slot_ms.begin(), slot_ms.end());
  t.per_slot_median_ms = slot_ms[slot_ms.size() / 2];
  return t;
}

/// Billing shape of the session_advance entry.
constexpr int kBillingSlots = 96;
constexpr int kBillingArrivals = 4;
constexpr int kBillingWindow = 16;

/// One arriving telemetry tenant: a device lookup at a heavy or light
/// execution rate, jittered, over [start, end].
simdb::SimUser BillingTenant(Rng& rng, int start, int end) {
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

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

struct AdvanceTimings {
  double early_us = 0.0;  ///< Median over periods of the first window.
  double late_us = 0.0;   ///< Median over periods of the last window.
};

/// Runs `periods` billing-shaped periods, timing every AdvanceSlot.
Result<AdvanceTimings> TimeSessionAdvance(int periods) {
  Result<simdb::Scenario> scenario =
      simdb::TelemetryScenario(8, kBillingSlots);
  if (!scenario.ok()) return scenario.status();
  service::ServiceConfig config;
  config.slots_per_period = kBillingSlots;
  config.mechanism = "addon";
  Rng rng(17);
  std::vector<double> early, late;
  for (int p = 0; p < periods; ++p) {
    Result<service::PricingSession> session =
        service::PricingSession::Open(&scenario->catalog, config);
    if (!session.ok()) return session.status();
    std::vector<double> us;
    for (int slot = 1; slot <= kBillingSlots; ++slot) {
      for (int a = 0; a < kBillingArrivals; ++a) {
        const int end = static_cast<int>(rng.UniformInt(slot, kBillingSlots));
        Result<UserId> id = session->Submit(BillingTenant(rng, slot, end));
        if (!id.ok()) return id.status();
      }
      const auto start = Clock::now();
      OPTSHARE_RETURN_NOT_OK(session->AdvanceSlot());
      us.push_back(ElapsedMs(start) * 1e3);
    }
    Result<service::PeriodReport> report = session->Close();
    if (!report.ok()) return report.status();
    const auto window_mean = [&](size_t from) {
      double sum = 0.0;
      for (size_t k = from; k < from + kBillingWindow; ++k) sum += us[k];
      return sum / kBillingWindow;
    };
    early.push_back(window_mean(0));
    late.push_back(window_mean(us.size() - kBillingWindow));
  }
  AdvanceTimings t;
  t.early_us = Median(early);
  t.late_us = Median(late);
  return t;
}

}  // namespace

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_streaming.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else {
      std::cerr << "usage: stream_speed [--quick] [--out PATH]\n";
      return 2;
    }
  }

  JsonValue benchmarks = JsonValue::MakeArray();
  JsonValue comparisons = JsonValue::MakeObject();

  const std::vector<int> sizes =
      quick ? std::vector<int>{2000} : std::vector<int>{10000, 100000};
  for (int n : sizes) {
    AdditiveScenario scenario;
    scenario.num_users = n;
    scenario.num_slots = 50;
    scenario.duration = 25;
    const double cost = 0.1 * n;
    Rng rng(7);
    const AdditiveOnlineGame game = MakeAdditiveGame(scenario, cost, rng);
    const SlotEventLog log = EventLogFromGame(game);

    // Streaming: per-slot incremental cost of the live session surface.
    Result<StreamTimings> stream = TimeStream(log);
    if (!stream.ok()) {
      std::cerr << "error: " << stream.status().ToString() << "\n";
      return 1;
    }

    // Batch: the recompute the old API forces per state change — a full
    // engine pass over the whole period's game.
    const double batch_full_ms =
        TimeMs([&] { engine::RunAddOnEngine(game); });

    const double speedup = batch_full_ms / stream->per_slot_median_ms;
    std::printf(
        "n=%-7d z=%d  stream: %8.3f ms/slot steady (%8.3f mean, %9.3f "
        "total + %7.3f finalize)\n"
        "                 batch recompute: %9.3f ms/slot  ->  %8.1fx\n",
        n, scenario.num_slots, stream->per_slot_median_ms,
        stream->per_slot_mean_ms, stream->total_ms, stream->finalize_ms,
        batch_full_ms, speedup);
    std::fflush(stdout);

    JsonValue s = JsonValue::MakeObject();
    s.Set("layer", JsonValue::Str("addon_stream"));
    s.Set("n", JsonValue::Number(n));
    s.Set("slots", JsonValue::Number(scenario.num_slots));
    s.Set("ms_total", JsonValue::Number(stream->total_ms));
    s.Set("ms_per_slot_mean", JsonValue::Number(stream->per_slot_mean_ms));
    s.Set("ms_per_slot_steady",
          JsonValue::Number(stream->per_slot_median_ms));
    s.Set("ms_finalize", JsonValue::Number(stream->finalize_ms));
    benchmarks.Append(std::move(s));

    JsonValue b = JsonValue::MakeObject();
    b.Set("layer", JsonValue::Str("addon_batch_recompute"));
    b.Set("n", JsonValue::Number(n));
    b.Set("slots", JsonValue::Number(scenario.num_slots));
    b.Set("ms_per_slot", JsonValue::Number(batch_full_ms));
    benchmarks.Append(std::move(b));

    JsonValue c = JsonValue::MakeObject();
    c.Set("stream_steady_ms_per_slot",
          JsonValue::Number(stream->per_slot_median_ms));
    c.Set("batch_recompute_ms_per_slot", JsonValue::Number(batch_full_ms));
    c.Set("stream_at_or_below_batch",
          JsonValue::Bool(stream->per_slot_median_ms <= batch_full_ms));
    c.Set("speedup", JsonValue::Number(speedup));
    comparisons.Set("n" + std::to_string(n), std::move(c));
  }

  const int periods = quick ? 9 : 41;
  Result<AdvanceTimings> advance = TimeSessionAdvance(periods);
  if (!advance.ok()) {
    std::cerr << "error: " << advance.status().ToString() << "\n";
    return 1;
  }
  const double late_vs_early = advance->late_us / advance->early_us;
  std::printf(
      "session advance (telemetry, %d slots x %d arrivals, %d periods): "
      "%.1f us/slot early, %.1f us/slot late  ->  %.2fx\n",
      kBillingSlots, kBillingArrivals, periods, advance->early_us,
      advance->late_us, late_vs_early);
  JsonValue session_advance = JsonValue::MakeObject();
  session_advance.Set("slots", JsonValue::Number(kBillingSlots));
  session_advance.Set("arrivals_per_slot", JsonValue::Number(kBillingArrivals));
  session_advance.Set("window_slots", JsonValue::Number(kBillingWindow));
  session_advance.Set("periods", JsonValue::Number(periods));
  session_advance.Set("early_us_per_advance",
                      JsonValue::Number(advance->early_us));
  session_advance.Set("late_us_per_advance",
                      JsonValue::Number(advance->late_us));
  session_advance.Set("late_vs_early", JsonValue::Number(late_vs_early));

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("benchmarks", std::move(benchmarks));
  doc.Set("comparisons", std::move(comparisons));
  doc.Set("session_advance", std::move(session_advance));

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
