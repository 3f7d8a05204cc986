// Workload streams: every request the benchmark will send, generated from
// the seed before any server starts, plus the responses a direct
// PricingSession replay of the same streams says the server must give.
//
// Each tenancy has its own RNG seeded from (seed, workload, tenancy index)
// and its own ordered request stream. A stream is cut into fixed ranges:
// the seeding prefix (run to a fixed mid-period point, then crashed), the
// warm-up, and the serial, rate and peak phases. Connections carry the
// ranges of their tenancies merged in a fixed round-robin order, so a
// stream's content never depends on timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "service/protocol.h"
#include "trace.h"

namespace perfbench {

enum class Workload { kBilling, kQuote, kBatch };
bool WorkloadFromName(std::string_view name, Workload* out);
const char* WorkloadName(Workload workload);

/// Request classes the per-class latencies are reported for.
enum OpClass : uint8_t { kWrite = 0, kClose = 1, kRead = 2 };
inline constexpr int kNumClasses = 3;
const char* ClassName(int cls);

/// The fixed shape of a workload.
struct Shape {
  int tenancies = 0;
  int slots_per_period = 96;
  int arrivals_per_slot = 4;
  int frame = 1;  ///< Requests per wire line: 1, or the batch frame size.
};
Shape ShapeOf(Workload workload);

/// Phases. A run is the seeding prefix, the warm-up, then `rounds` rounds
/// of serial → rate → peak; each (phase, round) is one segment of every
/// tenancy stream.
enum Phase { kSeed = 0, kWarmup, kSerial, kRate, kPeak };
const char* PhaseName(int phase);
/// Index of segment (phase, round) in TenancyStream::begin; seed and
/// warm-up have round 0 only.
int SegmentIndex(int phase, int round);

/// One request of a tenancy stream, rendered as its wire document without
/// an id (the id is spliced in when the line is assigned to a connection).
struct StreamRequest {
  std::string body;
  optshare::service::protocol::RequestOp op =
      optshare::service::protocol::RequestOp::kSubmit;
  OpClass cls = kWrite;
  /// Index into TenancyStream::expected: the exact result document the
  /// response must carry. -1 = only ok:true is checked.
  int expect = -1;
};

struct TenancyStream {
  std::string name;
  std::vector<StreamRequest> requests;
  /// Segment s covers requests [begin[s], begin[s + 1]).
  std::vector<size_t> begin;
  /// Expected result documents (compact JSON) referenced by `expect`.
  std::vector<std::string> expected;
  /// The live `report` result after the seeding prefix, i.e. what recovery
  /// must reproduce.
  std::string live_after_seed;
};

/// Requests per tenancy in the warm-up and in each round's serial, rate
/// and peak phase (rounded to whole frames).
struct PhaseSizes {
  size_t warmup = 0;
  size_t serial = 0;
  size_t rate = 0;
  size_t peak = 0;
  int rounds = 1;
};

struct Streams {
  Workload workload = Workload::kBilling;
  Shape shape;
  std::vector<TenancyStream> tenancies;
  /// Spans of the PricingSession replay over the serial phase (filled
  /// when traced).
  Tracer session_spans;
};

/// Generates every tenancy stream and replays it through PricingSession.
/// Fails if the replay rejects any request: a failure during a run is then
/// the server's. `traced` records a span per PricingSession call made for
/// a request of round 0's serial phase.
optshare::Result<Streams> GenerateStreams(Workload workload, uint64_t seed,
                                          const PhaseSizes& sizes, bool traced,
                                          int threads);

/// Order-sensitive digest of every generated line (self-tests, run record).
uint64_t StreamDigest(const Streams& streams);

/// One wire line: a request or a batch frame of consecutive requests of
/// one tenancy, with its id spliced in.
struct Unit {
  std::string line;  ///< Newline-terminated.
  std::string id;
  uint32_t tenancy = 0;
  uint32_t first = 0;    ///< Index of the first request in the stream.
  uint16_t members = 1;
  uint8_t classes = 0;   ///< Bitmask of the members' OpClass values.
  bool checked = false;  ///< Some member carries an expected document.
  /// Some member is a checked read: it must see every earlier write of its
  /// tenancy, so it is sent only once those are acknowledged (the server
  /// gives read-your-writes to clients that await their writes).
  bool ordered_read = false;
};

/// Cuts segment (phase, round) into per-connection unit lists: tenancy i
/// goes to connection i % connections, and each connection interleaves its
/// tenancies one unit at a time in index order.
std::vector<std::vector<Unit>> BuildPhase(const Streams& streams, int phase,
                                          int round, int connections);

}  // namespace perfbench
