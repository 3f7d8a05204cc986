// The pieces both runs share: the per-workload plan, seeding and crashing
// a data directory, the timed set-up, the deep response checks, and the
// statistics helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/marketplace_server.h"
#include "service/net_server.h"
#include "streams.h"
#include "wire.h"

namespace perfbench {

/// Server worker threads: 1 generator + 1 event loop + 2 workers = 4.
inline constexpr int kServerWorkers = 2;
inline constexpr int kConnections = 4;
/// A phase that has not finished by then counts its unanswered lines as
/// failed.
inline constexpr int64_t kPhaseTimeoutNs = 40 * int64_t{1000000000};

/// How long each phase runs, fixed per workload and --seconds.
struct Plan {
  Workload workload = Workload::kBilling;
  double seconds = 0;
  /// Requests per tenancy per round; `sizes.rounds` rounds are run.
  PhaseSizes sizes;
  double rate_units_per_s = 0;  ///< Open-loop rate (lines per second).
  int peak_window = 0;        ///< Closed-loop lines in flight per connection.
  int setups = 0;             ///< Timed set-ups per run (median reported).
};
/// Steal share (of all CPU time) above which a round counts as disturbed.
inline constexpr double kMaxRoundSteal = 0.03;

/// The end-to-end run repeats serial → rate → peak in rounds and reports
/// the median over its quiet rounds (at least the half with the least
/// hypervisor steal); the traced run makes one round of the same total
/// size.
Plan MakePlan(Workload workload, double seconds, bool traced);
optshare::JsonValue PlanJson(const Plan& plan);

/// Runs every tenancy's seeding prefix through a server over a fresh
/// FileStateStore at `dir`, checks each acknowledged live report against
/// the PricingSession replay, then drops the server without Shutdown (the
/// crash model).
optshare::Status SeedDataDir(const Streams& streams, const std::string& dir);

/// A server recovered from a crashed data directory, serving over TCP,
/// with the generator's connections open.
struct LiveServer {
  std::unique_ptr<optshare::service::MarketplaceServer> server;
  std::unique_ptr<optshare::service::NetServer> net;
  std::optional<LoadGenerator> gen;
  std::vector<int> worker_tids;  ///< Shard worker threads.
  std::vector<int> loop_tids;    ///< The NetServer event loop.
  double setup_s = 0;            ///< Open to first answer on every conn.
  double recover_s = 0;          ///< The Recover() call alone.
  optshare::service::RecoveryStats recovery;

  ~LiveServer();
};

/// Opens `dir` (a crashed copy), recovers and starts serving; times it.
/// `store` overrides the FileStateStore (a wrapper around it).
optshare::Result<std::unique_ptr<LiveServer>> StartServer(
    const Streams& streams, const std::string& dir,
    std::shared_ptr<optshare::service::StateStore> store = nullptr);

/// Checks every recovered tenancy's live report against the one
/// acknowledged before the crash.
optshare::Status CheckRecovered(const Streams& streams, LiveServer& live);

/// Deep checks of one phase's kept responses: every member with an
/// expected document must match it byte for byte, and every served
/// period report and live report must show a ledger balance >= 0.
optshare::Status DeepCheck(const Streams& streams,
                           const std::vector<std::vector<Unit>>& units,
                           const PhaseResult& result);

/// What a run reports: the counts and metrics of the final result line,
/// plus the run record and the diagnostics printed before it.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  optshare::JsonValue metrics = optshare::JsonValue::MakeObject();
  optshare::JsonValue record = optshare::JsonValue::MakeObject();
  optshare::JsonValue diagnostics = optshare::JsonValue::MakeObject();

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts a phase's requests and failures; notes its first errors.
  void Account(const char* phase, const PhaseResult& result);
  void Violation(const std::string& what) { violations.push_back(what); }
};

/// Accounts one phase (or block) and runs the deep checks on it.
void SettlePhase(const Streams& streams, int phase,
                 const std::vector<std::vector<Unit>>& units,
                 const PhaseResult& result, Outcome* out);

/// Member requests of the answered lines of a phase.
uint64_t AnsweredRequests(const std::vector<std::vector<Unit>>& units,
                          const PhaseResult& result);

/// Share of open-loop latencies (us) at least one per-connection gap.
double HeldShare(const std::vector<double>& latencies_us, double gap_us);

/// Quantile with linear interpolation (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// The class a unit's latency is reported under, from its members: close
/// if any member closes a period, else read if any member reads, else
/// write. For single requests this is the request's own class.
int UnitClass(const Unit& unit);

/// Latencies (us) of a phase's answered units, optionally only those of
/// class `cls` (-1 = all). `from_due` times from the due time, otherwise
/// from the send.
std::vector<double> LatenciesUs(const std::vector<std::vector<Unit>>& units,
                                const PhaseResult& result, bool from_due,
                                int cls = -1);

/// Copies a directory tree; removes `dst` first.
optshare::Status CopyTree(const std::string& src, const std::string& dst);

}  // namespace perfbench
