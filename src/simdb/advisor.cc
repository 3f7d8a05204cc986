#include "simdb/advisor.h"

#include <algorithm>

namespace optshare::simdb {
namespace {

bool SameSpec(const OptimizationSpec& a, const OptimizationSpec& b) {
  return a.kind == b.kind && a.table == b.table && a.column == b.column &&
         a.view_selectivity == b.view_selectivity && a.label == b.label;
}

/// Orders a filtered column's candidates by (table, column).
bool ColumnBefore(const OptimizationSpec& spec, const std::string& table,
                  const std::string& column) {
  return spec.table != table ? spec.table < table : spec.column < column;
}

}  // namespace

Advisor::Advisor(const Catalog& catalog, const CostModel& model,
                 const PricingModel& pricing, AdvisorOptions options)
    : scratch_(std::make_unique<Scratch>(model.params())),
      pricing_(pricing),
      options_(options) {
  for (const auto& t : catalog.tables()) {
    broken_ = scratch_->catalog.AddTable(t);
    if (!broken_.ok()) break;
  }
}

Status Advisor::Extend(const std::vector<SimUser>& roster) {
  OPTSHARE_RETURN_NOT_OK(broken_);
  if (roster.size() < num_users()) {
    return Status::InvalidArgument("advisor roster cannot shrink");
  }
  // Validate every newcomer before any state changes, in the order the
  // one-shot pass checks them.
  for (size_t u = num_users(); u < roster.size(); ++u) {
    const SimUser& user = roster[u];
    OPTSHARE_RETURN_NOT_OK(user.workload.Validate());
    for (const auto& entry : user.workload.entries) {
      Result<const TableDef*> table =
          scratch_->catalog.GetTable(entry.query.table);
      if (!table.ok()) return table.status();
      for (const auto& pred : entry.query.predicates) {
        if ((*table)->FindColumn(pred.column) < 0) {
          return Status::NotFound("no column " + pred.column + " in " +
                                  entry.query.table);
        }
      }
    }
  }
  broken_ = Apply(roster);
  return broken_;
}

Status Advisor::Apply(const std::vector<SimUser>& roster) {
  // Fold the newcomers' filtered columns and touched tables in. New
  // candidates and views whose selectivity dropped are left unregistered
  // (opt_id -1) until every newcomer is folded.
  for (size_t u = num_users(); u < roster.size(); ++u) {
    const SimUser& user = roster[u];
    Result<double> base = scratch_->model.WorkloadTime(user.workload, {});
    if (!base.ok()) return base.status();
    base_time_.push_back(*base);
    for (const auto& entry : user.workload.entries) {
      const std::string& table = entry.query.table;
      if (options_.propose_replicas) {
        auto at = std::lower_bound(
            replicas_.begin(), replicas_.end(), table,
            [](const Candidate& c, const std::string& t) {
              return c.proposal.spec.table < t;
            });
        if (at == replicas_.end() || at->proposal.spec.table != table) {
          Candidate replica;
          replica.proposal.spec.kind = OptKind::kReplica;
          replica.proposal.spec.table = table;
          replicas_.insert(at, std::move(replica));
        }
      }
      for (const auto& pred : entry.query.predicates) {
        auto at = std::lower_bound(
            columns_.begin(), columns_.end(), pred.column,
            [&](const FilteredColumn& c, const std::string& column) {
              return ColumnBefore(c.index.proposal.spec, table, column);
            });
        if (at != columns_.end() && at->index.proposal.spec.table == table &&
            at->index.proposal.spec.column == pred.column) {
          OptimizationSpec& view = at->view.proposal.spec;
          if (pred.selectivity < view.view_selectivity) {
            view.view_selectivity = pred.selectivity;
            at->view.opt_id = -1;
          }
          continue;
        }
        FilteredColumn fresh;
        fresh.index.proposal.spec.kind = OptKind::kSecondaryIndex;
        fresh.index.proposal.spec.table = table;
        fresh.index.proposal.spec.column = pred.column;
        fresh.view.proposal.spec.kind = OptKind::kMaterializedView;
        fresh.view.proposal.spec.table = table;
        fresh.view.proposal.spec.column = pred.column;
        fresh.view.proposal.spec.view_selectivity = pred.selectivity;
        columns_.insert(at, std::move(fresh));
      }
    }
  }

  for (FilteredColumn& column : columns_) {
    OPTSHARE_RETURN_NOT_OK(ScoreNewcomers(column.index, roster));
    OPTSHARE_RETURN_NOT_OK(ScoreNewcomers(column.view, roster));
  }
  for (Candidate& replica : replicas_) {
    OPTSHARE_RETURN_NOT_OK(ScoreNewcomers(replica, roster));
  }
  return Status::OK();
}

Status Advisor::ScoreNewcomers(Candidate& candidate,
                               const std::vector<SimUser>& roster) {
  Proposal& p = candidate.proposal;
  if (candidate.opt_id < 0) {
    // A new spec: price it and score the whole roster from user 0.
    Result<int> id = scratch_->catalog.AddOptimization(p.spec);
    if (!id.ok()) return id.status();
    Result<double> cost = pricing_.OptimizationCost(scratch_->model, *id);
    if (!cost.ok()) return cost.status();
    candidate.opt_id = *id;
    p.cost = *cost;
    p.total_savings = 0.0;
    p.user_savings.clear();
    p.beneficiaries = Coalition();
  }
  // Roster order from the first unscored user: the running total sums in
  // the order the one-shot pass sums it.
  for (size_t u = p.user_savings.size(); u < roster.size(); ++u) {
    Result<double> savings =
        UserSavings(roster[u], base_time_[u], candidate.opt_id);
    if (!savings.ok()) return savings.status();
    if (*savings > 0.0) p.beneficiaries.Insert(static_cast<UserId>(u));
    p.user_savings.push_back(*savings);
    p.total_savings += *savings;
  }
  return Status::OK();
}

Result<double> Advisor::UserSavings(const SimUser& user, double base,
                                    int opt_id) const {
  // Time saved per run times executions per slot times interval length,
  // in dollars.
  Result<double> with = scratch_->model.WorkloadTime(user.workload, {opt_id});
  if (!with.ok()) return with.status();
  const double slots = static_cast<double>(user.end - user.start + 1);
  return pricing_.InstanceDollars(std::max(0.0, base - *with)) *
         user.executions_per_slot * slots;
}

std::vector<const Proposal*> Advisor::Ranked() const {
  std::vector<const Proposal*> ranked;
  // Candidates in the one-shot pass's order — (table, column) pairs with
  // index before view, then replicas — so the sort sees the same sequence.
  const auto consider = [&](const Candidate& c) {
    const Proposal& p = c.proposal;
    if (p.cost > 0.0 && p.BenefitRatio() >= options_.min_benefit_ratio) {
      ranked.push_back(&p);
    }
  };
  for (const FilteredColumn& column : columns_) {
    consider(column.index);
    consider(column.view);
  }
  for (const Candidate& replica : replicas_) consider(replica);

  std::sort(ranked.begin(), ranked.end(),
            [](const Proposal* a, const Proposal* b) {
              if (a->BenefitRatio() != b->BenefitRatio()) {
                return a->BenefitRatio() > b->BenefitRatio();
              }
              return a->spec.DisplayName() < b->spec.DisplayName();
            });
  if (options_.max_proposals > 0 &&
      static_cast<int>(ranked.size()) > options_.max_proposals) {
    ranked.resize(static_cast<size_t>(options_.max_proposals));
  }
  return ranked;
}

std::vector<Proposal> Advisor::Proposals() const {
  std::vector<Proposal> proposals;
  for (const Proposal* p : Ranked()) proposals.push_back(*p);
  return proposals;
}

Result<std::vector<double>> Advisor::SpecSavings(
    const OptimizationSpec& spec, const std::vector<SimUser>& users,
    size_t from) {
  OPTSHARE_RETURN_NOT_OK(broken_);
  if (from > users.size()) {
    return Status::InvalidArgument("savings range starts past the users");
  }
  const std::vector<OptimizationSpec>& known =
      scratch_->catalog.optimizations();
  const auto found = std::find_if(
      known.begin(), known.end(),
      [&](const OptimizationSpec& k) { return SameSpec(k, spec); });
  int id = static_cast<int>(found - known.begin());
  if (found == known.end()) {
    Result<int> added = scratch_->catalog.AddOptimization(spec);
    if (!added.ok()) return added.status();
    id = *added;
  }
  std::vector<double> savings;
  savings.reserve(users.size() - from);
  for (size_t u = from; u < users.size(); ++u) {
    Result<double> base = scratch_->model.WorkloadTime(users[u].workload, {});
    if (!base.ok()) return base.status();
    Result<double> one = UserSavings(users[u], *base, id);
    if (!one.ok()) return one.status();
    savings.push_back(*one);
  }
  return savings;
}

Result<std::vector<Proposal>> ProposeOptimizations(
    const Catalog& catalog, const CostModel& model,
    const PricingModel& pricing, const std::vector<SimUser>& users,
    const AdvisorOptions& options) {
  Advisor advisor(catalog, model, pricing, options);
  OPTSHARE_RETURN_NOT_OK(advisor.Extend(users));
  return advisor.Proposals();
}

Result<AdditiveOfflineGame> GameFromProposals(
    const std::vector<Proposal>& proposals) {
  AdditiveOfflineGame game;
  if (proposals.empty()) {
    return Status::FailedPrecondition("no proposals to build a game from");
  }
  const size_t m = proposals.front().user_savings.size();
  for (const auto& p : proposals) {
    if (p.user_savings.size() != m) {
      return Status::InvalidArgument(
          "proposals disagree on the number of users");
    }
    game.costs.push_back(p.cost);
  }
  for (size_t i = 0; i < m; ++i) {
    std::vector<double> row;
    row.reserve(proposals.size());
    for (const auto& p : proposals) row.push_back(p.user_savings[i]);
    game.bids.push_back(std::move(row));
  }
  OPTSHARE_RETURN_NOT_OK(game.Validate());
  return game;
}

}  // namespace optshare::simdb
