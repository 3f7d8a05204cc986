#include "support/reference.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/money.h"

namespace optshare::reference {

ShapleyResult RunShapleyDense(double cost, const std::vector<double>& bids) {
  assert(cost > 0.0 && "optimization cost must be positive");
  const size_t m = bids.size();

  ShapleyResult result;
  result.serviced.assign(m, true);
  result.payments.assign(m, 0.0);

  size_t remaining = m;
  bool changed = true;
  double share = 0.0;
  while (remaining > 0 && changed) {
    ++result.iterations;
    share = cost / static_cast<double>(remaining);
    changed = false;
    for (size_t i = 0; i < m; ++i) {
      if (!result.serviced[i]) continue;
      if (!MoneyGe(bids[i], share)) {
        result.serviced[i] = false;
        --remaining;
        changed = true;
      }
    }
  }

  if (remaining == 0) {
    result.serviced.assign(m, false);
    return result;
  }

  result.implemented = true;
  result.cost_share = cost / static_cast<double>(remaining);
  for (size_t i = 0; i < m; ++i) {
    if (result.serviced[i]) result.payments[i] = result.cost_share;
  }
  return result;
}

ShapleyResult RunMoulinDense(const CostSharingMethod& method,
                             const std::vector<double>& bids) {
  const size_t m = bids.size();
  ShapleyResult result;
  result.serviced.assign(m, true);
  result.payments.assign(m, 0.0);

  size_t remaining = m;
  bool changed = true;
  std::vector<double> shares;
  while (remaining > 0 && changed) {
    ++result.iterations;
    shares = method.Shares(result.serviced);
    changed = false;
    for (size_t i = 0; i < m; ++i) {
      if (!result.serviced[i]) continue;
      if (!MoneyGe(bids[i], shares[i])) {
        result.serviced[i] = false;
        --remaining;
        changed = true;
      }
    }
  }

  if (remaining == 0) {
    result.serviced.assign(m, false);
    return result;
  }

  result.implemented = true;
  shares = method.Shares(result.serviced);
  double max_share = 0.0;
  for (size_t i = 0; i < m; ++i) {
    if (result.serviced[i]) {
      result.payments[i] = shares[i];
      max_share = std::max(max_share, shares[i]);
    }
  }
  result.cost_share = max_share;
  return result;
}

AddOffResult RunAddOffDense(const AdditiveOfflineGame& game) {
  assert(game.Validate().ok());
  const int m = game.num_users();
  const int n = game.num_opts();

  AddOffResult result;
  result.per_opt.reserve(static_cast<size_t>(n));
  result.total_payment.assign(static_cast<size_t>(m), 0.0);

  std::vector<double> column(static_cast<size_t>(m));
  for (OptId j = 0; j < n; ++j) {
    for (UserId i = 0; i < m; ++i) {
      column[static_cast<size_t>(i)] =
          game.bids[static_cast<size_t>(i)][static_cast<size_t>(j)];
    }
    ShapleyResult r =
        RunShapleyDense(game.costs[static_cast<size_t>(j)], column);
    for (UserId i = 0; i < m; ++i) {
      result.total_payment[static_cast<size_t>(i)] +=
          r.payments[static_cast<size_t>(i)];
    }
    result.per_opt.push_back(std::move(r));
  }
  return result;
}

AddOnResult RunAddOnDense(const AdditiveOnlineGame& game) {
  assert(game.Validate().ok());
  const int m = game.num_users();
  const int z = game.num_slots;

  AddOnResult result;
  result.serviced.resize(static_cast<size_t>(z));
  result.cumulative.resize(static_cast<size_t>(z));
  result.payments.assign(static_cast<size_t>(m), 0.0);
  result.cost_share.assign(static_cast<size_t>(z), kInfiniteBid);

  std::vector<bool> in_cs(static_cast<size_t>(m), false);
  std::vector<double> residual(static_cast<size_t>(m));

  for (TimeSlot t = 1; t <= z; ++t) {
    for (UserId i = 0; i < m; ++i) {
      const auto& u = game.users[static_cast<size_t>(i)];
      if (in_cs[static_cast<size_t>(i)]) {
        residual[static_cast<size_t>(i)] = kInfiniteBid;
      } else if (t >= u.start) {
        residual[static_cast<size_t>(i)] = u.ResidualFrom(t);
      } else {
        residual[static_cast<size_t>(i)] = 0.0;
      }
    }

    ShapleyResult sh = RunShapleyDense(game.cost, residual);

    auto& cs_t = result.cumulative[static_cast<size_t>(t - 1)];
    auto& s_t = result.serviced[static_cast<size_t>(t - 1)];
    if (sh.implemented) {
      if (!result.implemented) {
        result.implemented = true;
        result.implemented_at = t;
      }
      result.cost_share[static_cast<size_t>(t - 1)] = sh.cost_share;
      for (UserId i = 0; i < m; ++i) {
        if (!sh.serviced[static_cast<size_t>(i)]) continue;
        in_cs[static_cast<size_t>(i)] = true;
        cs_t.push_back(i);
        if (t <= game.users[static_cast<size_t>(i)].end) s_t.push_back(i);
      }
    }

    for (UserId i = 0; i < m; ++i) {
      if (game.users[static_cast<size_t>(i)].end == t && sh.implemented &&
          sh.serviced[static_cast<size_t>(i)]) {
        result.payments[static_cast<size_t>(i)] = sh.cost_share;
      }
    }
  }
  return result;
}

SubstOffResult RunSubstOffMatrixDense(const std::vector<double>& costs,
                                      std::vector<std::vector<double>> bids) {
  const int m = static_cast<int>(bids.size());
  const int n = static_cast<int>(costs.size());

  SubstOffResult result;
  result.grant.assign(static_cast<size_t>(m), kNoOpt);
  result.payments.assign(static_cast<size_t>(m), 0.0);

  std::vector<bool> opt_done(static_cast<size_t>(n), false);
  std::vector<double> column(static_cast<size_t>(m));

  for (int phase = 0; phase < n; ++phase) {
    OptId best = kNoOpt;
    double best_share = std::numeric_limits<double>::infinity();
    ShapleyResult best_result;

    for (OptId j = 0; j < n; ++j) {
      if (opt_done[static_cast<size_t>(j)]) continue;
      for (UserId i = 0; i < m; ++i) {
        column[static_cast<size_t>(i)] =
            bids[static_cast<size_t>(i)][static_cast<size_t>(j)];
      }
      ShapleyResult sh =
          RunShapleyDense(costs[static_cast<size_t>(j)], column);
      if (!sh.implemented) continue;
      if (sh.cost_share < best_share - kMoneyEpsilon || (best == kNoOpt)) {
        best = j;
        best_share = sh.cost_share;
        best_result = std::move(sh);
      }
    }

    if (best == kNoOpt) break;

    result.implemented.push_back(best);
    result.cost_share.push_back(best_result.cost_share);
    opt_done[static_cast<size_t>(best)] = true;
    for (UserId i = 0; i < m; ++i) {
      if (!best_result.serviced[static_cast<size_t>(i)]) continue;
      result.grant[static_cast<size_t>(i)] = best;
      result.payments[static_cast<size_t>(i)] = best_result.cost_share;
      for (OptId j = 0; j < n; ++j) {
        bids[static_cast<size_t>(i)][static_cast<size_t>(j)] = 0.0;
      }
    }
  }
  return result;
}

SubstOffResult RunSubstOffDense(const SubstOfflineGame& game) {
  assert(game.Validate().ok());
  const int m = game.num_users();
  const int n = game.num_opts();

  std::vector<std::vector<double>> bids(
      static_cast<size_t>(m),
      std::vector<double>(static_cast<size_t>(n), 0.0));
  for (UserId i = 0; i < m; ++i) {
    const auto& u = game.users[static_cast<size_t>(i)];
    for (OptId j : u.substitutes) {
      bids[static_cast<size_t>(i)][static_cast<size_t>(j)] = u.value;
    }
  }
  return RunSubstOffMatrixDense(game.costs, std::move(bids));
}

SubstOnResult RunSubstOnDense(const SubstOnlineGame& game) {
  assert(game.Validate().ok());
  const int m = game.num_users();
  const int n = game.num_opts();
  const int z = game.num_slots;

  SubstOnResult result;
  result.grant.assign(static_cast<size_t>(m), kNoOpt);
  result.grant_slot.assign(static_cast<size_t>(m), 0);
  result.payments.assign(static_cast<size_t>(m), 0.0);
  result.implemented_at.assign(static_cast<size_t>(n), 0);
  result.serviced.resize(static_cast<size_t>(z));

  std::vector<std::vector<double>> bids(
      static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(n)));

  for (TimeSlot t = 1; t <= z; ++t) {
    for (UserId i = 0; i < m; ++i) {
      auto& row = bids[static_cast<size_t>(i)];
      const auto& u = game.users[static_cast<size_t>(i)];
      const OptId granted = result.grant[static_cast<size_t>(i)];
      if (granted != kNoOpt) {
        for (OptId j = 0; j < n; ++j) {
          row[static_cast<size_t>(j)] = (j == granted) ? kInfiniteBid : 0.0;
        }
      } else if (t >= u.stream.start) {
        const double residual = u.stream.ResidualFrom(t);
        for (OptId j = 0; j < n; ++j) row[static_cast<size_t>(j)] = 0.0;
        for (OptId j : u.substitutes) {
          row[static_cast<size_t>(j)] = residual;
        }
      } else {
        for (OptId j = 0; j < n; ++j) row[static_cast<size_t>(j)] = 0.0;
      }
    }

    SubstOffResult off = RunSubstOffMatrixDense(game.costs, bids);

    for (OptId j : off.implemented) {
      if (result.implemented_at[static_cast<size_t>(j)] == 0) {
        result.implemented_at[static_cast<size_t>(j)] = t;
      }
    }

    auto& s_t = result.serviced[static_cast<size_t>(t - 1)];
    for (UserId i = 0; i < m; ++i) {
      const OptId g = off.grant[static_cast<size_t>(i)];
      if (g == kNoOpt) continue;
      if (result.grant[static_cast<size_t>(i)] == kNoOpt) {
        result.grant[static_cast<size_t>(i)] = g;
        result.grant_slot[static_cast<size_t>(i)] = t;
      }
      if (t <= game.users[static_cast<size_t>(i)].stream.end) {
        s_t.push_back(i);
      }
      if (game.users[static_cast<size_t>(i)].stream.end == t) {
        result.payments[static_cast<size_t>(i)] =
            off.payments[static_cast<size_t>(i)];
      }
    }
  }
  return result;
}

}  // namespace optshare::reference
