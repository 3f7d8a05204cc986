// PricingSession: the slot-incremental form of the provider's billing
// period. Where the legacy batch API (CloudService::RunPeriod) demanded the
// full tenant vector up front, a session ingests tenant events as they
// happen and prices slot by slot:
//
//   auto session = PricingSession::Open(&catalog, config);
//   session->Submit(tenants);      // any time before a tenant's first slot
//   session->AdvanceSlot();        // advisor integrates new tenants, then
//   ...                            //   every structure prices one slot
//   session->Submit(late_tenant);  // mid-period arrival (start > elapsed)
//   session->AdvanceSlot();
//   ...
//   PeriodReport report = session->Close();   // ledger + outcomes
//
// The advisor (simdb::Advisor) runs lazily at the first AdvanceSlot after
// submissions and scores only the tenants submitted since its last run, so
// a slot pays advisor work for its own arrivals. New structure candidates
// begin pricing at the current slot, and tenants who arrive after a
// structure was proposed are admitted into its game with their residual
// value streams. Per-structure pricing is driven through the
// streaming mechanism surface (core/online_mechanism.h) — natively
// slot-incremental for "addon", buffered for the baselines — and the
// ledger accrues as slots run for native mechanisms.
//
// Batch compatibility: submitting every tenant before the first
// AdvanceSlot reproduces CloudService::RunPeriod bit-identically (payments,
// ledger, built-structure set) under the default "addon" mechanism; see
// tests/service_session_test.cc.
//
// A session is single-threaded by design: one billing period for one
// caller. The multi-tenant front end is service/marketplace_server.h,
// which runs one session per tenancy period on a sharded worker pool and
// drives it through the wire protocol; this class stays the embedded
// single-tenant surface underneath it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/online_mechanism.h"
#include "service/cloud_service.h"
#include "simdb/advisor.h"

namespace optshare::service {

/// One streaming billing period.
class PricingSession {
 public:
  /// Opens a period over `catalog`'s tables (copied; the catalog need not
  /// outlive the session). `built` lists
  /// structure names carried over from earlier periods (maintenance-only
  /// pricing); `period` is the report's period number. Validates `config`
  /// and resolves its mechanism (baselines included).
  static Result<PricingSession> Open(const simdb::Catalog* catalog,
                                     ServiceConfig config,
                                     std::vector<std::string> built = {},
                                     int period = 1);

  PricingSession(PricingSession&&) = default;
  PricingSession& operator=(PricingSession&&) = default;

  /// Registers a tenant. Her interval must lie within the period and start
  /// after the slots already advanced (no retroactive arrivals). Returns
  /// her roster id.
  Result<UserId> Submit(const simdb::SimUser& tenant);
  /// Registers a batch of tenants (stops at the first rejection).
  Status Submit(const std::vector<simdb::SimUser>& tenants);

  /// Early departure: the tenant stays through the upcoming slot and is
  /// gone afterwards (structures she subscribed to charge her then).
  Status Depart(UserId tenant);

  /// Advances one slot: integrates pending submissions through the advisor,
  /// then prices the slot in every structure's game.
  Status AdvanceSlot();

  /// Closes the period after all slots have been advanced; returns the
  /// period report (per-structure outcomes + ledger over the roster).
  Result<PeriodReport> Close();

  int slots_advanced() const { return current_; }
  int slots_per_period() const { return config_.slots_per_period; }
  int num_tenants() const { return static_cast<int>(roster_.size()); }
  bool closed() const { return closed_; }
  int num_structures() const { return static_cast<int>(states_.size()); }

  /// Valid after Close: names of structures built/renewed this period.
  const std::vector<std::string>& built_structures() const {
    return built_after_;
  }

 private:
  /// One structure candidate being priced over the period.
  struct ProposalState {
    simdb::OptimizationSpec spec;
    std::string name;
    double price = 0.0;          ///< Charged cost (build or maintenance).
    bool carried_over = false;
    int num_candidates = 0;      ///< Tenants with positive declared savings.
    std::unique_ptr<OnlineMechanism> mech;
    bool native = false;
    std::vector<SlotEvent> pending;   ///< Events for the next OnSlot.
    // Declared per-tenant truth (roster-indexed): per-slot rate over
    // [vstart, vend]; rate 0 = no value declared.
    std::vector<double> rate;
    std::vector<TimeSlot> vstart;
    std::vector<TimeSlot> vend;
    // Incremental ledger (native mechanisms; buffered ones catch up at
    // Close from the final result).
    std::vector<double> value_acc;
    std::vector<UserId> serviced;
    /// Roster-indexed first slot each tenant was serviced in (0 = never);
    /// surfaces as StructureOutcome::serviced at Close.
    std::vector<TimeSlot> first_served;
  };

  PricingSession(const simdb::Catalog* catalog, ServiceConfig config,
                 std::vector<std::string> built, int period);

  /// Extends the advisor over the new tenants and folds them and any new
  /// structures in.
  Status IntegratePending();
  /// Declares tenant `i` into `state` with the given period savings.
  void DeclareTenant(ProposalState& state, UserId i, double savings);
  /// Per-slot ledger accrual from a native slot report.
  void AccrueSlot(ProposalState& state, TimeSlot slot,
                  const OnlineSlotReport& report);
  /// Close-time ledger accrual for buffered mechanisms.
  void AccrueFromResult(ProposalState& state, const MechanismResult& result);

  ServiceConfig config_;
  std::vector<std::string> built_before_;
  int period_;
  /// Scores each tenant once, when her submission is integrated.
  simdb::Advisor advisor_;

  std::vector<simdb::SimUser> roster_;
  std::vector<TimeSlot> eff_end_;      ///< Roster-indexed effective ends.
  size_t integrated_ = 0;              ///< Roster prefix seen by the advisor.
  std::vector<ProposalState> states_;
  TimeSlot current_ = 0;
  bool closed_ = false;
  /// First mid-period failure. A failed AdvanceSlot can leave structures
  /// unevenly advanced, so the session turns into a sticky error instead
  /// of pretending a retry could resynchronize the period.
  Status broken_;
  std::vector<std::string> built_after_;
};

}  // namespace optshare::service
