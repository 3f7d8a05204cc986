// StrategyHarness: the system-level incentive probe. Where
// core_truthfulness_test checks the mechanisms' properties on hand-built
// games in-process, the harness attacks the whole stack: it boots a real
// MarketplaceServer behind a NetServer, drives a multi-period tenancy over
// the v2 wire protocol with NetClient — a trace-generated background
// population plus one strategist — and replays the identical program twice,
// once with the strategist truthful and once playing an attack
// (strategy/player.h). The attack's worth is then measured in *realized*
// terms:
//
//   gain                 strategist's realized utility (true value of the
//                        slots she was actually serviced in, minus her
//                        ledger payments over all her identities) under the
//                        attack, minus the same quantity when truthful. A
//                        truthful mechanism keeps this <= epsilon; the
//                        naive baseline pays attackers.
//   cost_recovery_error  max over periods of |total cost - sum of
//                        payments| / total cost (truthful run).
//   regret               max over periods of the hindsight-welfare
//                        shortfall: the best single-period welfare any
//                        structure choice could have achieved against the
//                        *true* demands, minus the welfare achieved.
//
// Realized value is rebuilt from StructureOutcome::serviced (who was
// serviced from which slot) and per-slot true rates recomputed through the
// advisor's own scoring (Advisor::SpecSavings on a one-slot copy of the
// true demand) — declared ledger values are never trusted, which is the
// whole point. Every run is deterministic: the same options produce
// bit-identical PeriodReport lines.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/cloud_service.h"
#include "strategy/player.h"
#include "strategy/trace.h"

namespace optshare::strategy {

/// One harness setup: the background world plus the strategist's truth.
struct StrategyOptions {
  /// Background population, catalog, mechanism, periods and slots. The
  /// harness runs config.periods periods (>= 2 gives carried structures).
  TraceConfig background;
  /// The strategist's true per-period demand (interval within
  /// [1, background.slots_per_period]).
  simdb::SimUser strategist;
  /// Worker threads for the MarketplaceServer under test.
  int num_workers = 2;
};

/// What one attack bought, against the truthful counterfactual.
struct AttackOutcome {
  std::string player;     ///< Player spec (player.h name()).
  std::string mechanism;  ///< From the background config.
  int periods = 0;
  double truthful_utility = 0.0;
  double strategic_utility = 0.0;
  double gain = 0.0;  ///< strategic_utility - truthful_utility.
  double cost_recovery_error = 0.0;
  double regret = 0.0;
  /// Canonical protocol::ToJson(report).Dump() per period — the
  /// determinism surface (identical options must reproduce these bytes).
  std::vector<std::string> truthful_report_lines;
  std::vector<std::string> strategic_report_lines;
};

JsonValue ToJson(const AttackOutcome& outcome);

class StrategyHarness {
 public:
  /// Validates the options (background config validity, strategist
  /// interval in range).
  static Result<StrategyHarness> Make(StrategyOptions options);

  /// Runs the attack and its truthful counterfactual over the wire and
  /// measures the outcome.
  Result<AttackOutcome> Run(const StrategyPlayer& player);

  const StrategyOptions& options() const { return options_; }

 private:
  explicit StrategyHarness(StrategyOptions options, Trace trace)
      : options_(std::move(options)), trace_(std::move(trace)) {}

  StrategyOptions options_;
  Trace trace_;  ///< Expanded background population.
};

/// The wire program of a bare trace (no strategist): open_period, slot-major
/// submit/depart/advance, close_period per period — one request per line,
/// ready for HandleLine, ServeLines, or a NetClient. The soak suite and
/// `optshare_cli attack --dry-run` both replay these.
Result<std::vector<std::string>> TraceRequestLines(const TraceConfig& config,
                                                   const Trace& trace,
                                                   const std::string& tenancy);

}  // namespace optshare::strategy
