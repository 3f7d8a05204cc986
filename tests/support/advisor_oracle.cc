#include "support/advisor_oracle.h"

#include <algorithm>
#include <map>
#include <set>

namespace optshare::reference {

using simdb::AdvisorOptions;
using simdb::Catalog;
using simdb::CostModel;
using simdb::OptimizationSpec;
using simdb::OptKind;
using simdb::PricingModel;
using simdb::Proposal;
using simdb::SimUser;
using simdb::TableDef;

namespace {

/// Period savings of one user for a hypothetical optimization: time saved
/// per run times executions per slot times interval length, in dollars.
Result<double> UserPeriodSavings(const CostModel& model,
                                 const PricingModel& pricing,
                                 const SimUser& user, int opt_id) {
  Result<double> base = model.WorkloadTime(user.workload, {});
  if (!base.ok()) return base.status();
  Result<double> with = model.WorkloadTime(user.workload, {opt_id});
  if (!with.ok()) return with.status();
  const double slots = static_cast<double>(user.end - user.start + 1);
  return pricing.InstanceDollars(std::max(0.0, *base - *with)) *
         user.executions_per_slot * slots;
}

}  // namespace

Result<std::vector<Proposal>> ProposeOptimizationsWholeRoster(
    const Catalog& catalog, const CostModel& model,
    const PricingModel& pricing, const std::vector<SimUser>& users,
    const AdvisorOptions& options) {
  // Collect filtered (table, column, selectivity) triples and touched
  // tables across all workloads.
  std::set<std::pair<std::string, std::string>> filtered;
  std::map<std::pair<std::string, std::string>, double> min_selectivity;
  std::set<std::string> touched_tables;
  for (const auto& user : users) {
    OPTSHARE_RETURN_NOT_OK(user.workload.Validate());
    for (const auto& entry : user.workload.entries) {
      Result<const TableDef*> table = catalog.GetTable(entry.query.table);
      if (!table.ok()) return table.status();
      touched_tables.insert(entry.query.table);
      for (const auto& pred : entry.query.predicates) {
        if ((*table)->FindColumn(pred.column) < 0) {
          return Status::NotFound("no column " + pred.column + " in " +
                                  entry.query.table);
        }
        const auto key = std::make_pair(entry.query.table, pred.column);
        filtered.insert(key);
        auto it = min_selectivity.find(key);
        if (it == min_selectivity.end() || pred.selectivity < it->second) {
          min_selectivity[key] = pred.selectivity;
        }
      }
    }
  }

  // Candidate specs: index + view per filtered column, replica per table.
  std::vector<OptimizationSpec> candidates;
  for (const auto& [table, column] : filtered) {
    OptimizationSpec index;
    index.kind = OptKind::kSecondaryIndex;
    index.table = table;
    index.column = column;
    candidates.push_back(index);

    OptimizationSpec view;
    view.kind = OptKind::kMaterializedView;
    view.table = table;
    view.column = column;
    view.view_selectivity = min_selectivity[{table, column}];
    candidates.push_back(view);
  }
  if (options.propose_replicas) {
    for (const auto& table : touched_tables) {
      OptimizationSpec replica;
      replica.kind = OptKind::kReplica;
      replica.table = table;
      candidates.push_back(replica);
    }
  }

  // Score candidates in a scratch catalog (so the caller's catalog is not
  // mutated during evaluation).
  Catalog scratch;
  for (const auto& t : catalog.tables()) {
    OPTSHARE_RETURN_NOT_OK(scratch.AddTable(t));
  }
  CostModel scratch_model(&scratch, model.params());

  std::vector<Proposal> proposals;
  for (const auto& spec : candidates) {
    Result<int> id = scratch.AddOptimization(spec);
    if (!id.ok()) return id.status();
    Proposal p;
    p.spec = spec;
    Result<double> cost = pricing.OptimizationCost(scratch_model, *id);
    if (!cost.ok()) return cost.status();
    p.cost = *cost;
    for (const auto& user : users) {
      Result<double> savings =
          UserPeriodSavings(scratch_model, pricing, user, *id);
      if (!savings.ok()) return savings.status();
      if (*savings > 0.0) {
        p.beneficiaries.Insert(
            static_cast<UserId>(p.user_savings.size()));
      }
      p.user_savings.push_back(*savings);
      p.total_savings += *savings;
    }
    if (p.cost > 0.0 && p.BenefitRatio() >= options.min_benefit_ratio) {
      proposals.push_back(std::move(p));
    }
  }

  std::sort(proposals.begin(), proposals.end(),
            [](const Proposal& a, const Proposal& b) {
              if (a.BenefitRatio() != b.BenefitRatio()) {
                return a.BenefitRatio() > b.BenefitRatio();
              }
              return a.spec.DisplayName() < b.spec.DisplayName();
            });
  if (options.max_proposals > 0 &&
      static_cast<int>(proposals.size()) > options.max_proposals) {
    proposals.resize(static_cast<size_t>(options.max_proposals));
  }
  return proposals;
}

}  // namespace optshare::reference
