#include "service/pricing_session.h"

#include <algorithm>
#include <utility>

#include "baseline/baseline_mechanisms.h"

namespace optshare::service {

PricingSession::PricingSession(const simdb::Catalog* catalog,
                               ServiceConfig config,
                               std::vector<std::string> built, int period)
    : config_(std::move(config)),
      built_before_(std::move(built)),
      period_(period),
      advisor_(*catalog, simdb::CostModel(catalog),
               simdb::PricingModel(config_.pricing), config_.advisor) {}

Result<PricingSession> PricingSession::Open(const simdb::Catalog* catalog,
                                            ServiceConfig config,
                                            std::vector<std::string> built,
                                            int period) {
  OPTSHARE_RETURN_NOT_OK(config.Validate());
  if (catalog == nullptr) {
    return Status::InvalidArgument("session needs a catalog");
  }
  // Mechanism choice is a runtime parameter: resolve the configured name
  // now so a bad name fails at Open, not mid-period.
  RegisterBaselineMechanisms();
  Result<std::unique_ptr<OnlineMechanism>> probe =
      ResolveOnlineMechanism(config.mechanism, GameKind::kAdditiveOnline);
  if (!probe.ok()) return probe.status();
  return PricingSession(catalog, std::move(config), std::move(built), period);
}

Result<UserId> PricingSession::Submit(const simdb::SimUser& tenant) {
  if (closed_) return Status::FailedPrecondition("session is closed");
  if (!broken_.ok()) return broken_;
  if (tenant.start < 1 || tenant.end < tenant.start ||
      tenant.end > config_.slots_per_period) {
    return Status::InvalidArgument("tenant interval outside the period's slots");
  }
  if (tenant.start <= current_) {
    return Status::InvalidArgument(
        "tenant arrives in an elapsed slot (slot " +
        std::to_string(tenant.start) + ", already advanced through " +
        std::to_string(current_) + ")");
  }
  roster_.push_back(tenant);
  eff_end_.push_back(tenant.end);
  return static_cast<UserId>(roster_.size()) - 1;
}

Status PricingSession::Submit(const std::vector<simdb::SimUser>& tenants) {
  for (const auto& tenant : tenants) {
    Result<UserId> id = Submit(tenant);
    if (!id.ok()) return id.status();
  }
  return Status::OK();
}

Status PricingSession::Depart(UserId tenant) {
  if (closed_) return Status::FailedPrecondition("session is closed");
  OPTSHARE_RETURN_NOT_OK(broken_);
  if (tenant < 0 || tenant >= num_tenants()) {
    return Status::NotFound("unknown tenant id");
  }
  const size_t u = static_cast<size_t>(tenant);
  const TimeSlot t = current_ + 1;  // Present through the upcoming slot.
  if (roster_[u].start > t) {
    return Status::InvalidArgument("cannot depart before arrival");
  }
  if (eff_end_[u] <= t) return Status::OK();
  eff_end_[u] = t;
  // Tenants the advisor has not integrated yet have no arrival events in
  // any structure's queue; their (truncated) intervals reach the engines
  // through DeclareTenant at integration instead.
  if (u < integrated_) {
    for (ProposalState& state : states_) {
      state.pending.push_back(SlotEvent::UserDepart(tenant));
    }
  }
  return Status::OK();
}

void PricingSession::DeclareTenant(ProposalState& state, UserId i,
                                   double savings) {
  const size_t u = static_cast<size_t>(i);
  if (u >= state.rate.size()) {
    const size_t n = roster_.size();
    state.rate.resize(n, 0.0);
    state.vstart.resize(n, 0);
    state.vend.resize(n, 0);
    state.value_acc.resize(n, 0.0);
    state.first_served.resize(n, 0);
  }
  const simdb::SimUser& tenant = roster_[u];
  const TimeSlot arrive_end = std::min(tenant.end, eff_end_[u]);
  state.pending.push_back(
      SlotEvent::UserArrive(i, tenant.start, arrive_end));
  if (savings > 0.0) {
    ++state.num_candidates;
    // The tenant's per-slot rate over her declared interval — the same
    // division the batch game construction used — clipped to the slots
    // that remain when the structure appeared after she arrived.
    const double per_slot =
        savings / static_cast<double>(tenant.end - tenant.start + 1);
    const TimeSlot declare_from = std::max(tenant.start, current_ + 1);
    state.rate[u] = per_slot;
    state.vstart[u] = declare_from;
    state.vend[u] = tenant.end;
    const TimeSlot declare_to = std::min(tenant.end, eff_end_[u]);
    if (declare_from <= declare_to) {
      state.pending.push_back(SlotEvent::DeclareValues(
          i, 0, SlotValues::Constant(declare_from, declare_to, per_slot)));
    }
  }
}

Status PricingSession::IntegratePending() {
  if (integrated_ == roster_.size()) return Status::OK();

  // Only the tenants submitted since the last integration are scored.
  OPTSHARE_RETURN_NOT_OK(advisor_.Extend(roster_));

  std::vector<char> matched(states_.size(), 0);
  for (const simdb::Proposal* proposal : advisor_.Ranked()) {
    const simdb::Proposal& fresh = *proposal;
    const std::string name = fresh.spec.DisplayName();
    size_t idx = states_.size();
    for (size_t s = 0; s < states_.size(); ++s) {
      if (states_[s].name == name) {
        idx = s;
        break;
      }
    }
    if (idx < states_.size()) {
      // Known structure: admit only the tenants the advisor had not seen.
      matched[idx] = 1;
      for (size_t i = integrated_; i < roster_.size(); ++i) {
        DeclareTenant(states_[idx], static_cast<UserId>(i),
                      fresh.user_savings[i]);
      }
      continue;
    }
    // New structure candidate: open its game at the current slot.
    ProposalState state;
    state.spec = fresh.spec;
    state.name = name;
    state.carried_over =
        std::find(built_before_.begin(), built_before_.end(), name) !=
        built_before_.end();
    state.price = state.carried_over
                      ? std::max(fresh.cost * config_.maintenance_fraction,
                                 1e-12)
                      : fresh.cost;
    Result<std::unique_ptr<OnlineMechanism>> mech =
        ResolveOnlineMechanism(config_.mechanism, GameKind::kAdditiveOnline);
    if (!mech.ok()) return mech.status();
    state.mech = std::move(*mech);
    state.native = state.mech->native();
    OnlineGameMeta meta;
    meta.kind = GameKind::kAdditiveOnline;
    meta.num_slots = config_.slots_per_period;
    meta.costs = {state.price};
    OPTSHARE_RETURN_NOT_OK(state.mech->Begin(meta));
    // Catch up on the slots that elapsed before the structure existed.
    for (TimeSlot t = 1; t <= current_; ++t) {
      Result<OnlineSlotReport> report = state.mech->OnSlot(t, {});
      if (!report.ok()) return report.status();
    }
    for (size_t i = 0; i < roster_.size(); ++i) {
      DeclareTenant(state, static_cast<UserId>(i), fresh.user_savings[i]);
    }
    states_.push_back(std::move(state));
  }

  // Structures the advisor no longer proposes (their benefit ratio fell
  // with the new roster mix, or better candidates pushed them past
  // max_proposals) are still being priced: score the new tenants against
  // their specs directly.
  for (size_t s = 0; s < matched.size(); ++s) {
    if (matched[s]) continue;
    Result<std::vector<double>> savings =
        advisor_.SpecSavings(states_[s].spec, roster_, integrated_);
    if (!savings.ok()) return savings.status();
    for (size_t k = 0; k < savings->size(); ++k) {
      DeclareTenant(states_[s], static_cast<UserId>(integrated_ + k),
                    (*savings)[k]);
    }
  }

  integrated_ = roster_.size();
  return Status::OK();
}

void PricingSession::AccrueSlot(ProposalState& state, TimeSlot slot,
                                const OnlineSlotReport& report) {
  for (const auto& priced : report.priced) {
    for (UserId i : priced.newly_serviced) {
      state.serviced.push_back(i);
      const size_t u = static_cast<size_t>(i);
      if (u < state.first_served.size() && state.first_served[u] == 0) {
        state.first_served[u] = slot;
      }
    }
  }
  size_t write = 0;
  for (UserId i : state.serviced) {
    const size_t u = static_cast<size_t>(i);
    if (slot > std::min(state.vend[u], eff_end_[u])) continue;  // Done.
    if (slot >= state.vstart[u] && state.rate[u] != 0.0) {
      state.value_acc[u] += state.rate[u];
    }
    state.serviced[write++] = i;
  }
  state.serviced.resize(write);
}

void PricingSession::AccrueFromResult(ProposalState& state,
                                      const MechanismResult& result) {
  if (result.serviced.empty()) return;
  const auto value_slots = [&](UserId i) {
    const size_t u = static_cast<size_t>(i);
    return std::min(state.vend[u], eff_end_[u]);
  };
  if (result.num_slots == 0) {
    // Offline-collapsed mechanism: a serviced user realizes her whole
    // (effective) declared stream, summed in slot order.
    for (UserId i : result.serviced[0]) {
      const size_t u = static_cast<size_t>(i);
      if (u < state.first_served.size() && state.first_served[u] == 0) {
        state.first_served[u] =
            state.rate[u] != 0.0 ? state.vstart[u] : roster_[u].start;
      }
      if (state.rate[u] == 0.0) continue;
      for (TimeSlot t = state.vstart[u]; t <= value_slots(i); ++t) {
        state.value_acc[u] += state.rate[u];
      }
    }
    return;
  }
  const auto& per_slot = result.active[0];
  for (TimeSlot t = 1; t <= static_cast<TimeSlot>(per_slot.size()); ++t) {
    for (UserId i : per_slot[static_cast<size_t>(t - 1)]) {
      const size_t u = static_cast<size_t>(i);
      if (u < state.first_served.size() && state.first_served[u] == 0) {
        state.first_served[u] = t;
      }
      if (u >= state.rate.size() || state.rate[u] == 0.0) continue;
      if (t >= state.vstart[u] && t <= value_slots(i)) {
        state.value_acc[u] += state.rate[u];
      }
    }
  }
}

Status PricingSession::AdvanceSlot() {
  if (closed_) return Status::FailedPrecondition("session is closed");
  OPTSHARE_RETURN_NOT_OK(broken_);
  if (current_ >= config_.slots_per_period) {
    return Status::FailedPrecondition("period exhausted");
  }
  Status st = IntegratePending();
  if (!st.ok()) {
    broken_ = st;
    return st;
  }
  const TimeSlot slot = current_ + 1;
  for (ProposalState& state : states_) {
    Result<OnlineSlotReport> report = state.mech->OnSlot(slot, state.pending);
    if (!report.ok()) {
      // Earlier structures already stepped this slot: the period cannot be
      // resynchronized, so fail every later call with the root cause.
      broken_ = report.status();
      return broken_;
    }
    state.pending.clear();
    if (!report->deferred) AccrueSlot(state, slot, *report);
  }
  current_ = slot;
  return Status::OK();
}

Result<PeriodReport> PricingSession::Close() {
  if (closed_) return Status::FailedPrecondition("session is closed");
  if (!broken_.ok()) return broken_;
  if (current_ != config_.slots_per_period) {
    return Status::FailedPrecondition(
        "period incomplete: advanced " + std::to_string(current_) + " of " +
        std::to_string(config_.slots_per_period) + " slots");
  }
  closed_ = true;

  PeriodReport report;
  report.period = period_;
  Accounting ledger;
  ledger.user_value.assign(roster_.size(), 0.0);
  ledger.user_payment.assign(roster_.size(), 0.0);

  for (ProposalState& state : states_) {
    Result<MechanismResult> result = state.mech->Finalize();
    if (!result.ok()) return result.status();
    if (!state.native) AccrueFromResult(state, *result);

    StructureOutcome outcome;
    outcome.name = state.name;
    outcome.cost = state.price;
    outcome.carried_over = state.carried_over;
    outcome.num_candidates = state.num_candidates;
    outcome.active = result->implemented;
    for (size_t u = 0; u < state.first_served.size(); ++u) {
      if (state.first_served[u] != 0) {
        outcome.serviced.push_back(
            {static_cast<UserId>(u), state.first_served[u]});
      }
    }
    if (result->implemented) {
      int subscribers = 0;
      for (double p : result->payments) subscribers += p > 0.0 ? 1 : 0;
      outcome.num_subscribers = subscribers;
      built_after_.push_back(state.name);
      ledger.total_cost += state.price;
      for (size_t i = 0; i < roster_.size(); ++i) {
        if (i < state.value_acc.size()) {
          ledger.user_value[i] += state.value_acc[i];
        }
        if (i < result->payments.size()) {
          ledger.user_payment[i] += result->payments[i];
        }
      }
    }
    report.structures.push_back(std::move(outcome));
  }
  report.ledger = std::move(ledger);
  return report;
}

}  // namespace optshare::service
