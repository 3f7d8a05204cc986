// The unified mechanism engine.
//
// The paper's four mechanisms (Shapley §4.1, AddOn §5, SubstOff/SubstOn §6)
// and the Moulin generalization share one computational core: find the
// fixed point of the eviction loop "drop every user whose current cost
// share exceeds her bid". The seed implemented that loop five times over
// dense per-user `vector<bool>` masks, rescanning the full user universe
// every round and every time slot. This header replaces those paths with:
//
//  * `engine::EvenSplitFixedPoint` — the even-split (egalitarian) fixed
//    point computed by a prefix scan over bids sorted once, O(n log n)
//    total instead of O(n * rounds). The round count it reports is
//    identical to the dense loop's, and membership, shares and payments
//    are bit-identical (see tests/support/reference.h for the dense originals
//    and tests/core_mechanism_test.cc for the differential suite).
//  * `engine::RunAddOnEngine` — the AddOn slot loop with per-user residual
//    state (suffix-sum arenas, arrival/departure buckets) computed once
//    and reused across slots, touching only present users per slot.
//  * `Mechanism` / `MechanismResult` / `MechanismRegistry` — a polymorphic
//    interface over every mechanism (paper mechanisms and baselines alike)
//    so that callers — the CLI, the cloud service, the experiment harness —
//    select mechanisms by registry name at runtime instead of by
//    compile-time call site, and compare their outcomes uniformly.
//
// The original free functions (RunShapley, RunAddOn, ...) remain the
// stable entry points; they are thin adapters over this engine.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/coalition.h"
#include "core/game.h"

namespace optshare {

// ---------------------------------------------------------------------------
// Engine primitives
// ---------------------------------------------------------------------------
namespace engine {

/// Outcome of the even-split eviction fixed point for one optimization.
struct EvenSplitOutcome {
  /// True iff a non-empty stable coalition covers the cost.
  bool implemented = false;
  /// |S*|: pinned members + affordable finite bids + (zeros when swept in).
  int num_serviced = 0;
  /// Final even share C / |S*| (0 when not implemented). A bid is serviced
  /// iff MoneyGe(bid, share) — callers extract memberships with exactly
  /// this test, the dense loop's final-round rule.
  double share = 0.0;
  /// Rounds the dense eviction loop would have executed — reported for
  /// bit-compatibility with the original mechanism results.
  int iterations = 0;
  /// Finite bids with MoneyGe(bid, share).
  int num_finite_in = 0;
  /// True iff the final share fell to <= kMoneyEpsilon, at which point the
  /// dense loop serviced even zero-bid users; the count then covers all
  /// finite bids and every zero bidder is serviced too.
  bool zeros_in = false;
};

/// Computes the fixed point of Mechanism 1's eviction loop without the
/// dense per-user rescan: the dense loop's shrink sequence depends only on
/// *how many* bids afford each round's share, so each round is a count over
/// the candidate bids — no serviced mask, no rebuild, and only the present
/// candidates are touched. Convergence is typically a handful of rounds;
/// past a fixed round budget the engine sorts the bids once and finishes
/// the replay with binary searches, turning the adversarial
/// one-eviction-per-round cascade from O(n^2) into O(n log n).
///
/// `bids` — finite candidate bids, any order. `num_pinned` — users with
/// infinite bids (the online mechanisms pin already-serviced users); they
/// are always serviced and count toward the denominator. `num_zero` —
/// users bidding exactly 0 (absent, departed, or uninterested users);
/// they are serviced only when the share falls to <= kMoneyEpsilon, exactly
/// as the dense loop's `MoneyGe(0, share)` test behaved. `cost` must be
/// positive.
EvenSplitOutcome EvenSplitFixedPoint(double cost,
                                     const std::vector<double>& bids,
                                     int num_pinned, int num_zero);

/// Raw outcome of the AddOn slot loop (Mechanism 2) over one optimization.
/// Carries the per-slot deltas of the cumulative serviced set instead of
/// materializing CS_j(t) per slot; adapters reconstruct whichever dense
/// view they need.
struct OnlineAdditiveOutcome {
  bool implemented = false;
  TimeSlot implemented_at = 0;
  /// Per-slot even share C / |CS_j(t)| (kInfiniteBid while CS is empty).
  std::vector<double> slot_share;
  /// Per-user payment, charged at the user's declared departure slot.
  std::vector<double> payments;
  /// newly_serviced[t-1]: users entering CS_j(t) at slot t, ascending.
  std::vector<std::vector<UserId>> newly_serviced;
};

/// Runs Mechanism 2 with residual-bid state reused across slots: per-user
/// residual suffix sums are computed once, arrival/departure buckets drive
/// the active set, and each slot's Shapley run is an EvenSplitFixedPoint
/// over the present users only. Precondition: game.Validate().ok().
///
/// Thin batch driver over AddOnSlotEngine: declares every user, then steps
/// every slot.
OnlineAdditiveOutcome RunAddOnEngine(const AdditiveOnlineGame& game);


/// Per-user suffix sums of declared value streams, laid out in one arena
/// and computed once so the online mechanisms (AddOn, SubstOn) can read
/// residual bids across slots without per-slot forward summation.
/// (Last-ulp rounding may differ from a per-slot forward sum; with the
/// absolute kMoneyEpsilon tolerance this cannot flip a serviced/evicted
/// decision except on measure-zero bid profiles.)
class ResidualSuffixArena {
 public:
  explicit ResidualSuffixArena(int num_users);

  /// Pre-reserves the value arena (sum of stream lengths across users) so
  /// AddUser never reallocates; optional, but on large games the realloc
  /// copies are measurable.
  void ReserveValues(size_t total_values) { suffix_.reserve(total_values); }

  /// Appends the next user's stream: `values[k]` is her declared value at
  /// slot start + k, with values.size() == end - start + 1. Users must be
  /// added in id order, one call per id.
  void AddUser(TimeSlot start, TimeSlot end, const std::vector<double>& values);

  /// Sum of user i's declared values from slot t through her departure:
  /// the full stream total before her start, 0 past her end.
  double ResidualFrom(UserId i, TimeSlot t) const {
    const size_t u = static_cast<size_t>(i);
    if (t <= start_[u]) return suffix_[offset_[u]];
    if (t > end_[u]) return 0.0;
    return suffix_[offset_[u] + static_cast<size_t>(t - start_[u])];
  }

  /// Hot-path form for callers that already know slot t lies inside user
  /// i's declared interval and pass k = t - start: one arena read, no
  /// interval re-checks (the per-slot loops have the user's own start/end
  /// in hand and branching on them again measurably slows the AddOn sweep).
  double ResidualWithin(UserId i, TimeSlot k) const {
    return suffix_[offset_[static_cast<size_t>(i)] + static_cast<size_t>(k)];
  }

 private:
  std::vector<size_t> offset_;     // offset_[i]: user i's span start.
  std::vector<double> suffix_;     // suffix_[offset_[i] + k] = sum from k.
  std::vector<TimeSlot> start_;
  std::vector<TimeSlot> end_;
};

/// The incremental (slot-stepping) form of the AddOn engine. The cross-slot
/// state Mechanism 2 needs anyway — residual suffix arenas, the alive
/// candidate list, the cumulative serviced set — lives behind an API that
/// ingests user declarations as they happen and prices one slot per call,
/// so an online service never recomputes a period from scratch.
/// RunAddOnEngine (batch) and the streaming OnlineMechanism surface
/// (core/online_mechanism.h) both drive this class, executing the same
/// per-slot code path.
///
/// Universe semantics: a user counts toward a slot's even-split denominator
/// from the moment she is *registered* (Arrive or Declare), exactly as the
/// batch engine counts the full user vector of the game. Batch drivers
/// register everyone before slot 1 and are bit-identical to the historical
/// results; streaming drivers that register users at their arrival slots
/// shrink the early-slot zero-bidder count, which can only change an
/// outcome when a share falls to <= kMoneyEpsilon (zero bidders are swept
/// in only then).
class AddOnSlotEngine {
 public:
  /// `cost` must be positive, `num_slots` >= 1.
  AddOnSlotEngine(double cost, int num_slots);

  /// Optional pre-sizing for batch drivers (avoids growth reallocations).
  void Reserve(int num_users, size_t total_values);

  /// Registers user `i` as a zero bidder over [start, end] (an arrival
  /// announcement without a value declaration yet).
  Status Arrive(UserId i, TimeSlot start, TimeSlot end);

  /// Declares user `i`'s value stream, registering her if Arrive was not
  /// called first (a prior zero-bid registration is superseded by the
  /// stream's interval). Declared values at slots that already elapsed are
  /// ignored by pricing; the declaration is otherwise binding.
  Status Declare(UserId i, const SlotValues& stream);

  /// Early departure: `i` stays present through the upcoming slot and is
  /// gone afterwards; if serviced, she pays that slot's share (her declared
  /// departure is moved up, Mechanism 2's payment rule unchanged).
  Status Depart(UserId i);

  /// Stops pricing permanently (the structure is retired): serviced users
  /// who have not reached their departure slot pay the last priced share
  /// now, and further slots are no-ops.
  void Retire();

  /// Prices slot next_slot(). Fails once the period is exhausted.
  Status StepSlot();

  /// The next slot StepSlot would price (1-based; num_slots()+1 when done).
  TimeSlot next_slot() const { return current_ + 1; }
  int num_slots() const { return num_slots_; }
  /// Count of registered users (the id space may have holes; holes do not
  /// count toward the denominator).
  int num_registered() const { return registered_count_; }
  /// Size of the id space (max registered id + 1).
  int id_space() const { return static_cast<int>(present_.size()); }
  bool registered(UserId i) const {
    return i >= 0 && i < id_space() && present_[static_cast<size_t>(i)] != 0;
  }
  bool retired() const { return retired_; }
  /// Last slot the structure was (potentially) active: the slot preceding
  /// the Retire call, or the full period when never retired.
  TimeSlot retired_at() const { return retired_ ? retired_at_ : num_slots_; }
  /// Effective end of user i: declared end, or earlier after Depart.
  TimeSlot end_of(UserId i) const {
    return eff_end_[static_cast<size_t>(i)];
  }
  /// Live outcome, filled through the last stepped slot (payments and
  /// newly_serviced are indexed by user id; slot vectors are sized to the
  /// full period).
  const OnlineAdditiveOutcome& outcome() const { return out_; }
  /// Moves the outcome out; the engine is spent afterwards.
  OnlineAdditiveOutcome TakeOutcome() { return std::move(out_); }

 private:
  Status Register(UserId i, TimeSlot start, TimeSlot end,
                  const std::vector<double>* values);

  double cost_;
  int num_slots_;
  TimeSlot current_ = 0;
  bool retired_ = false;
  TimeSlot retired_at_ = 0;
  int registered_count_ = 0;
  int cs_count_ = 0;
  double last_priced_share_ = 0.0;

  ResidualSuffixArena residuals_;
  int arena_users_ = 0;

  // Per-user state, indexed by UserId.
  std::vector<char> present_;
  std::vector<char> in_cs_;
  std::vector<char> joined_;          // already moved into alive_.
  std::vector<TimeSlot> start_;
  std::vector<TimeSlot> decl_end_;    // declared departure.
  std::vector<TimeSlot> eff_end_;     // effective departure (<= declared).
  std::vector<int> stream_idx_;       // arena index; -1 = zero bidder.

  std::vector<std::vector<UserId>> by_start_;
  std::vector<std::vector<UserId>> by_end_;
  std::vector<UserId> alive_;
  std::vector<double> cand_bids_;
  std::vector<UserId> cand_ids_;

  OnlineAdditiveOutcome out_;
};

}  // namespace engine

// ---------------------------------------------------------------------------
// Uniform game handle
// ---------------------------------------------------------------------------

/// The game classes a mechanism can declare support for.
enum class GameKind {
  kAdditiveOffline,
  kAdditiveOnline,
  kMultiAdditiveOnline,
  kSubstOffline,
  kSubstOnline,
};

std::string_view GameKindName(GameKind kind);

/// Non-owning tagged reference to any of the library's game types, so a
/// `Mechanism` can be handed "whatever game the caller has" and dispatch on
/// its kind. The referenced game must outlive the view.
class GameView {
 public:
  /*implicit*/ GameView(const AdditiveOfflineGame& g)
      : kind_(GameKind::kAdditiveOffline), ptr_(&g) {}
  /*implicit*/ GameView(const AdditiveOnlineGame& g)
      : kind_(GameKind::kAdditiveOnline), ptr_(&g) {}
  /*implicit*/ GameView(const MultiAdditiveOnlineGame& g)
      : kind_(GameKind::kMultiAdditiveOnline), ptr_(&g) {}
  /*implicit*/ GameView(const SubstOfflineGame& g)
      : kind_(GameKind::kSubstOffline), ptr_(&g) {}
  /*implicit*/ GameView(const SubstOnlineGame& g)
      : kind_(GameKind::kSubstOnline), ptr_(&g) {}

  GameKind kind() const { return kind_; }

  const AdditiveOfflineGame& additive_offline() const;
  const AdditiveOnlineGame& additive_online() const;
  const MultiAdditiveOnlineGame& multi_additive_online() const;
  const SubstOfflineGame& subst_offline() const;
  const SubstOnlineGame& subst_online() const;

  int num_users() const;
  int num_opts() const;
  /// 0 for offline games.
  int num_slots() const;

  /// Validates the underlying game.
  Status Validate() const;

 private:
  GameKind kind_;
  const void* ptr_;
};

// ---------------------------------------------------------------------------
// Uniform result
// ---------------------------------------------------------------------------

/// The shared outcome shape every mechanism (and baseline) reports, so
/// experiments and the service compare them uniformly. User sets are sparse
/// `Coalition`s; fields that do not apply to a mechanism's game class stay
/// empty and are documented per field.
struct MechanismResult {
  int num_users = 0;
  int num_opts = 0;
  /// 0 for offline mechanisms.
  int num_slots = 0;

  /// True iff any optimization was implemented.
  bool implemented = false;
  /// Per optimization: first slot whose run implemented it (offline
  /// mechanisms report 1; 0 = never implemented).
  std::vector<TimeSlot> implemented_at;
  /// Per optimization: the even share of the last run that serviced it.
  /// For online mechanisms this is the final slot's C / |CS(t)| — the
  /// *smallest* share, since the cumulative set only grows; members who
  /// departed earlier paid larger shares (see payments). 0 when never
  /// implemented or when the mechanism has no share notion (VCG, Regret).
  std::vector<double> cost_share;
  /// Per user: total payment across optimizations.
  std::vector<double> payments;
  /// Per optimization: users ever serviced by it.
  std::vector<Coalition> serviced;
  /// Online mechanisms: active[j][t-1] = users actively serviced by
  /// optimization j at slot t (value accrues at exactly these slots).
  /// Empty for offline mechanisms.
  std::vector<std::vector<Coalition>> active;
  /// Substitutable mechanisms: per-user granted optimization (kNoOpt when
  /// unserviced). Empty for additive mechanisms.
  std::vector<OptId> grant;
  /// Online substitutable mechanisms: per-user grant slot (0 = never).
  std::vector<TimeSlot> grant_slot;

  bool Implemented(OptId j) const;
  std::vector<OptId> ImplementedOpts() const;
  /// Membership via the Coalition's binary search.
  bool Serviced(UserId i, OptId j) const;
  double ImplementedCost(const std::vector<double>& costs) const;
  double TotalPayment() const;
};

/// Builds the uniform MechanismResult from an AddOn engine outcome:
/// reconstructs the per-slot active coalitions (serviced users within their
/// intervals, `ends` giving each user's effective end slot) and the final
/// cost share. Shared by the batch AddOn adapter and the streaming
/// mechanism (core/online_mechanism.h).
MechanismResult ResultFromOnlineAdditive(engine::OnlineAdditiveOutcome outcome,
                                         int num_users, int num_slots,
                                         const std::vector<TimeSlot>& ends);

/// Same for a SubstOn engine outcome (forward-declared in core/subst_on.h).
struct SubstOnEngineOutcome;
MechanismResult ResultFromSubstOn(const SubstOnEngineOutcome& outcome,
                                  int num_users, int num_opts, int num_slots);

// ---------------------------------------------------------------------------
// Mechanism interface and registry
// ---------------------------------------------------------------------------

/// A pricing mechanism: consumes a (validated) game of bids, produces a
/// MechanismResult. Implementations declare which game classes they accept.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Registry name, e.g. "addon".
  virtual std::string_view name() const = 0;

  virtual bool Supports(GameKind kind) const = 0;

  /// Runs the mechanism. Returns InvalidArgument for unsupported game
  /// kinds or games that fail validation.
  virtual Result<MechanismResult> Run(const GameView& game) const = 0;
};

using MechanismFactory = std::function<std::unique_ptr<Mechanism>()>;

/// Name -> factory registry making mechanism choice a runtime parameter.
/// The paper's mechanisms ("addoff"/"shapley", "addon", "substoff",
/// "subston") are registered on first access; the baselines add themselves
/// via RegisterBaselineMechanisms() (baseline/baseline_mechanisms.h).
///
/// Thread safety: every method is safe to call concurrently — the entry
/// list is mutex-guarded, and Create copies the factory out before invoking
/// it so no user code runs under the registry lock. The intended contract
/// is still registration-before-serving: register custom mechanisms during
/// startup, before concurrent pricing traffic resolves names (a name
/// registered mid-flight is simply not found by requests that raced ahead
/// of it; nothing crashes or corrupts).
class MechanismRegistry {
 public:
  static MechanismRegistry& Global();

  /// Registers a factory. AlreadyExists when the name is taken.
  Status Register(const std::string& name, MechanismFactory factory);

  bool Contains(const std::string& name) const;

  /// Instantiates a registered mechanism; NotFound for unknown names.
  Result<std::unique_ptr<Mechanism>> Create(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// The paper's default mechanism name for a game class.
  static std::string DefaultFor(GameKind kind);

 private:
  std::vector<std::string> NamesLocked() const;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, MechanismFactory>> entries_;
};

/// The canonical "mechanism X does not support Y games" error, shared by
/// every Mechanism::Run support check so the message never drifts between
/// entry points.
Status UnsupportedKind(std::string_view mechanism, GameKind kind);

/// Resolves `name` from the global registry and checks that it supports
/// `kind` — the shared resolve-and-check step for every caller that takes
/// a mechanism name (the CLI, the cloud service, the experiment harness).
/// NotFound for unknown names, InvalidArgument for unsupported kinds.
Result<std::unique_ptr<Mechanism>> ResolveMechanism(const std::string& name,
                                                    GameKind kind);

/// Convenience: look up `name`, check support, run.
Result<MechanismResult> RunMechanism(const std::string& name,
                                     const GameView& game);

}  // namespace optshare
