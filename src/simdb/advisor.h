// Optimization advisor: proposes the candidate optimization set J that the
// mechanisms then select from and price (the paper assumes J exists; a real
// cloud derives it from observed workloads, the way index advisors do).
//
// For every (table, column) pair filtered by any user's workload, the
// advisor considers a secondary index and a materialized view (with the
// view selectivity matched to the most selective predicate on it), plus
// one replica per touched table; it scores each candidate by total
// estimated workload savings per period against its cost and returns those
// above a benefit threshold.
//
// The advisor is incremental: Advisor::Extend scores only the users
// appended to the roster since its last call, so a streaming session
// (service/pricing_session.h) pays per slot for that slot's arrivals, not
// for the whole period roster. ProposeOptimizations is the one-shot form.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/coalition.h"
#include "simdb/cost_model.h"
#include "simdb/pricing.h"

namespace optshare::simdb {

/// One advisor proposal.
struct Proposal {
  OptimizationSpec spec;
  double cost = 0.0;            ///< C_j from the pricing model.
  double total_savings = 0.0;   ///< Summed per-period user savings.
  /// Per-user per-period dollar savings (aligned with the users argument).
  std::vector<double> user_savings;
  /// Users with positive savings — the sparse game column this proposal
  /// induces. Everyone else is an implicit zero bidder, which the engine
  /// (core/mechanism.h) counts without materializing.
  Coalition beneficiaries;

  /// Benefit ratio used for ranking.
  double BenefitRatio() const {
    return cost > 0.0 ? total_savings / cost : 0.0;
  }
};

/// Advisor options.
struct AdvisorOptions {
  /// Keep only proposals whose total savings exceed this fraction of cost.
  double min_benefit_ratio = 0.1;
  /// Propose replicas (off by default: they help every query a little,
  /// which inflates J with weak candidates).
  bool propose_replicas = false;
  /// Cap on proposals (highest benefit first; 0 = unlimited).
  int max_proposals = 0;
};

/// Incremental advisor over one growing roster. After Extend(roster),
/// Proposals() is exactly what ProposeOptimizations(roster) returns — the
/// same specs, costs and savings, bit for bit, however the roster was
/// chunked:
///  * each candidate adds its newcomers' savings to a running total in
///    roster order, as the one-shot pass does;
///  * a candidate first seen mid-roster (a newly filtered column or touched
///    table) is scored over the whole roster;
///  * a view whose filter selectivity drops gets the new spec and is
///    rescored from user 0.
/// Scoring runs in a private scratch catalog (the caller's catalog is only
/// read, at construction); the advisor is movable.
class Advisor {
 public:
  /// Copies `catalog`'s tables, `model`'s parameters and `pricing`.
  Advisor(const Catalog& catalog, const CostModel& model,
          const PricingModel& pricing, AdvisorOptions options = {});

  /// Validates and scores roster[num_users(), roster.size()). `roster`
  /// must extend the roster of earlier calls. A validation error names the
  /// first invalid newcomer, as the one-shot pass would, and leaves the
  /// advisor unchanged.
  Status Extend(const std::vector<SimUser>& roster);

  /// The current proposals, filtered and ranked as ProposeOptimizations
  /// ranks them. The pointers stay valid until the next Extend.
  std::vector<const Proposal*> Ranked() const;
  /// Copies of Ranked().
  std::vector<Proposal> Proposals() const;

  /// Per-period savings of users[from, users.size()) for `spec`, scored
  /// exactly as the proposals are (non-negative). Used to admit tenants
  /// into structures that are no longer proposed, and to rescore demand
  /// the roster did not declare.
  Result<std::vector<double>> SpecSavings(const OptimizationSpec& spec,
                                          const std::vector<SimUser>& users,
                                          size_t from = 0);

  /// Roster users scored so far.
  size_t num_users() const { return base_time_.size(); }

 private:
  /// The scratch catalog and its cost model; heap-held so the model's
  /// catalog pointer survives moves of the advisor.
  struct Scratch {
    explicit Scratch(const CostModelParams& params)
        : model(&catalog, params) {}
    Catalog catalog;
    CostModel model;
  };
  /// One candidate; its first proposal.user_savings.size() roster users
  /// are scored.
  struct Candidate {
    Proposal proposal;
    int opt_id = -1;  ///< Scratch-catalog id; -1 = spec not yet priced.
  };
  /// The index and the view on one filtered (table, column) pair; the
  /// view's selectivity is the pair's smallest predicate selectivity.
  struct FilteredColumn {
    Candidate index;
    Candidate view;
  };

  /// Extend after validation: folds the newcomers in and scores them.
  Status Apply(const std::vector<SimUser>& roster);
  /// Prices `candidate`'s spec if it is new, then scores the roster users
  /// it has not scored yet.
  Status ScoreNewcomers(Candidate& candidate,
                        const std::vector<SimUser>& roster);
  /// Period savings of `user` for structure `opt_id`, given the user's
  /// workload time with no structure.
  Result<double> UserSavings(const SimUser& user, double base,
                             int opt_id) const;

  std::unique_ptr<Scratch> scratch_;
  PricingModel pricing_;
  AdvisorOptions options_;
  /// Sticky failure of construction or of scoring after validation.
  Status broken_;
  std::vector<double> base_time_;        ///< Roster-indexed, no structure.
  std::vector<FilteredColumn> columns_;  ///< Sorted by (table, column).
  std::vector<Candidate> replicas_;      ///< Sorted by table.
};

/// Analyzes the users' workloads against the catalog and proposes
/// optimizations. The catalog's existing optimization list is ignored;
/// proposals are returned ranked by descending benefit ratio. One
/// Advisor::Extend over `users`.
Result<std::vector<Proposal>> ProposeOptimizations(
    const Catalog& catalog, const CostModel& model,
    const PricingModel& pricing, const std::vector<SimUser>& users,
    const AdvisorOptions& options = {});

/// Registers the proposals in `catalog` and builds the additive offline
/// game for one period: bids[i][j] = user i's per-period savings from
/// proposal j, costs[j] = proposal cost. (Offline because the advisor runs
/// once per period; use BuildAdditiveGame for the online formulation.)
Result<AdditiveOfflineGame> GameFromProposals(
    const std::vector<Proposal>& proposals);

}  // namespace optshare::simdb
