// perfbench: the marketplace benchmark.
//
//   perfbench --workload billing|quote|batch --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// --trace 0 is the end-to-end run: generate every stream from the seed,
// seed and crash a data directory, time several recoveries (set-up), then
// drive the recovered server over loopback TCP through a warm-up and
// rounds of serial phase → open-loop rate phase → closed-loop peak phase,
// checking every response. --trace 1 is the separate traced run that prints the
// per-layer metrics (layers.cc). Both print a run-record line and a
// diagnostics line, then the result line:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// and exit non-zero on any failed request or correctness violation.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common/json.h"
#include "common/logging.h"
#include "harness.h"
#include "layers.h"
#include "streams.h"
#include "sysinfo.h"
#include "trace.h"

namespace perfbench {
namespace {

using optshare::JsonValue;
using optshare::Result;
using optshare::Status;

struct Args {
  Workload workload = Workload::kBilling;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--self-test") {
      args->self_test = true;
    } else if (arg == "--workload" && has_value) {
      if (!WorkloadFromName(argv[++a], &args->workload)) return false;
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++a]);
      if (args->seconds <= 0) return false;
    } else if (arg == "--trace" && has_value) {
      args->trace = std::string(argv[++a]) == "1";
    } else {
      return false;
    }
  }
  return args->self_test || have_workload;
}

/// Hypervisor steal and wall time per phase, sampled at phase boundaries
/// and summed over the rounds.
class StealLog {
 public:
  void Mark() {
    last_ = ReadCpuJiffies();
    last_ns_ = NowNs();
  }
  /// Charges everything since the last mark to `phase`.
  void Add(const std::string& phase) {
    const CpuJiffies now = ReadCpuJiffies();
    const int64_t now_ns = NowNs();
    Entry& e = phases_[phase];
    e.total += now.total - last_.total;
    e.steal += now.steal - last_.steal;
    e.wall_s += (now_ns - last_ns_) / 1e9;
    last_ = now;
    last_ns_ = now_ns;
  }
  JsonValue json() const {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [name, e] : phases_) {
      out.Set(name, JsonValue::Number(
                        e.total > 0 ? static_cast<double>(e.steal) /
                                          static_cast<double>(e.total)
                                    : 0.0));
    }
    return out;
  }
  JsonValue walls() const {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [name, e] : phases_) {
      out.Set(name, JsonValue::Number(e.wall_s));
    }
    return out;
  }

 private:
  struct Entry {
    uint64_t total = 0;
    uint64_t steal = 0;
    double wall_s = 0;
  };
  CpuJiffies last_;
  int64_t last_ns_ = 0;
  std::map<std::string, Entry> phases_;
};

/// Latencies of one phase over all rounds, per class (index kNumClasses =
/// all classes).
struct PhaseLatencies {
  std::vector<double> us[kNumClasses + 1];

  void Add(const std::vector<std::vector<Unit>>& units,
           const PhaseResult& result, bool from_due) {
    for (int cls = -1; cls < kNumClasses; ++cls) {
      const std::vector<double> v = LatenciesUs(units, result, from_due, cls);
      auto& into = us[cls < 0 ? kNumClasses : cls];
      into.insert(into.end(), v.begin(), v.end());
    }
  }

  /// p50/p90/p99/p99.9 (us) and the sample count, per class and overall.
  JsonValue Summary() const {
    JsonValue out = JsonValue::MakeObject();
    for (int i = 0; i <= kNumClasses; ++i) {
      JsonValue s = JsonValue::MakeObject();
      s.Set("count", JsonValue::Number(static_cast<double>(us[i].size())));
      s.Set("p50_us", JsonValue::Number(Quantile(us[i], 0.5)));
      s.Set("p90_us", JsonValue::Number(Quantile(us[i], 0.9)));
      s.Set("p99_us", JsonValue::Number(Quantile(us[i], 0.99)));
      s.Set("p999_us", JsonValue::Number(Quantile(us[i], 0.999)));
      out.Set(i == kNumClasses ? "all" : ClassName(i), std::move(s));
    }
    return out;
  }
};

void AddLateness(const PhaseResult& result, std::vector<double>* late) {
  for (const auto& list : result.timing) {
    for (const UnitTiming& t : list) {
      if (t.sent_ns != 0) {
        late->push_back(static_cast<double>(t.sent_ns - t.due_ns) / 1000.0);
      }
    }
  }
}

/// One round's end-to-end values and the hypervisor steal during it.
struct RoundValues {
  double serial_p50_us = 0;
  double serial_p90_us = 0;
  double cpu_us_per_op = 0;
  double peak_ops_per_s = 0;
  double steal_share = 0;
  bool quiet = false;  ///< Among the rounds the metrics are taken from.

  JsonValue ToJson() const {
    JsonValue out = JsonValue::MakeObject();
    out.Set("serial_p50_us", JsonValue::Number(serial_p50_us));
    out.Set("serial_p90_us", JsonValue::Number(serial_p90_us));
    out.Set("cpu_us_per_op", JsonValue::Number(cpu_us_per_op));
    out.Set("peak_ops_per_s", JsonValue::Number(peak_ops_per_s));
    out.Set("steal_share", JsonValue::Number(steal_share));
    out.Set("quiet", JsonValue::Bool(quiet));
    return out;
  }
};

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

void RunEndToEnd(const Plan& plan, uint64_t seed, const std::string& root,
                 Outcome* out) {
  StealLog steal;
  steal.Mark();
  Result<Streams> generated =
      GenerateStreams(plan.workload, seed, plan.sizes, false, OnlineCpus());
  if (!generated.ok()) {
    out->Violation(generated.status().ToString());
    return;
  }
  const Streams& streams = *generated;
  steal.Add("generate");
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(StreamDigest(streams)));
  out->record.Set("stream_digest", JsonValue::Str(digest));

  const std::string seed_dir = root + "/seeded";
  const Status seeded = SeedDataDir(streams, seed_dir);
  if (!seeded.ok()) {
    out->Violation(seeded.ToString());
    return;
  }
  out->record.Set("data_dir_fs", JsonValue::Str(FileSystemType(seed_dir)));
  steal.Add("seed");

  // Set-up, several times: each from its own copy of the crashed dir.
  std::vector<double> setups, recovers;
  std::unique_ptr<LiveServer> live;
  for (int k = 0; k < plan.setups; ++k) {
    live.reset();
    const std::string dir = root + "/setup-" + std::to_string(k);
    const Status copied = CopyTree(seed_dir, dir);
    if (!copied.ok()) {
      out->Violation(copied.ToString());
      return;
    }
    Result<std::unique_ptr<LiveServer>> started = StartServer(streams, dir);
    if (!started.ok()) {
      out->Violation("set-up: " + started.status().ToString());
      return;
    }
    live = std::move(*started);
    setups.push_back(live->setup_s);
    recovers.push_back(live->recover_s);
    const Status recovered = CheckRecovered(streams, *live);
    if (!recovered.ok()) {
      out->Violation(recovered.ToString());
      return;
    }
  }
  steal.Add("setup");
  LoadGenerator& gen = *live->gen;
  JsonValue setup_diag = JsonValue::MakeObject();
  setup_diag.Set("setup_s_min", JsonValue::Number(Quantile(setups, 0)));
  setup_diag.Set("setup_s_max", JsonValue::Number(Quantile(setups, 1)));
  setup_diag.Set("recover_s_median", JsonValue::Number(Median(recovers)));
  setup_diag.Set("journal_records_replayed",
                 JsonValue::Number(live->recovery.journal_records_replayed));
  out->diagnostics.Set("setup", setup_diag);

  {
    const std::vector<std::vector<Unit>> units =
        BuildPhase(streams, kWarmup, 0, kConnections);
    SettlePhase(streams, kWarmup, units,
                gen.RunClosed(units, plan.peak_window, kPhaseTimeoutNs), out);
  }
  steal.Add("warmup");

  // Rounds of serial → rate → peak; each metric is the median over the
  // quiet ones.
  std::vector<RoundValues> rounds;
  PhaseLatencies serial_all, rate_all, peak_all;
  std::vector<double> late;
  for (int round = 0; round < plan.sizes.rounds; ++round) {
    RoundValues values;
    const CpuJiffies round_start = ReadCpuJiffies();
    // Serial: one connection, one line in flight.
    std::vector<std::vector<Unit>> units = BuildPhase(streams, kSerial, round, 1);
    const PhaseResult serial = gen.RunClosed(units, 1, kPhaseTimeoutNs);
    steal.Add("serial");
    SettlePhase(streams, kSerial, units, serial, out);
    const std::vector<double> serial_us = LatenciesUs(units, serial, false);
    values.serial_p50_us = Quantile(serial_us, 0.5);
    values.serial_p90_us = Quantile(serial_us, 0.9);
    serial_all.Add(units, serial, false);

    // Rate: open loop at the workload's fixed rate, timed from due times.
    units = BuildPhase(streams, kRate, round, kConnections);
    steal.Mark();
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t self0 = CurrentThreadCpuNs();
    const PhaseResult rate =
        gen.RunOpen(units, plan.rate_units_per_s, kPhaseTimeoutNs);
    const int64_t server_cpu_ns =
        (ProcessCpuNs() - cpu0) - (CurrentThreadCpuNs() - self0);
    steal.Add("rate");
    SettlePhase(streams, kRate, units, rate, out);
    const uint64_t answered = AnsweredRequests(units, rate);
    values.cpu_us_per_op = answered > 0
                               ? static_cast<double>(server_cpu_ns) / 1000.0 /
                                     static_cast<double>(answered)
                               : 0.0;
    rate_all.Add(units, rate, true);
    AddLateness(rate, &late);

    // Peak: closed loop over fixed work, requests per second.
    units = BuildPhase(streams, kPeak, round, kConnections);
    steal.Mark();
    const PhaseResult peak =
        gen.RunClosed(units, plan.peak_window, kPhaseTimeoutNs);
    steal.Add("peak");
    SettlePhase(streams, kPeak, units, peak, out);
    const double peak_s =
        static_cast<double>(peak.end_ns - peak.start_ns) / 1e9;
    values.peak_ops_per_s =
        peak_s > 0 ? static_cast<double>(AnsweredRequests(units, peak)) / peak_s
                   : 0.0;
    peak_all.Add(units, peak, false);

    const CpuJiffies round_end = ReadCpuJiffies();
    values.steal_share =
        round_end.total > round_start.total
            ? static_cast<double>(round_end.steal - round_start.steal) /
                  static_cast<double>(round_end.total - round_start.total)
            : 0.0;
    rounds.push_back(values);
    steal.Mark();
  }

  out->diagnostics.Set("serial", serial_all.Summary());
  const double gap_us = 1e6 * kConnections / plan.rate_units_per_s;
  JsonValue rate_diag = rate_all.Summary();
  rate_diag.Set("held_share", JsonValue::Number(HeldShare(
                                  rate_all.us[kNumClasses], gap_us)));
  rate_diag.Set("gap_us", JsonValue::Number(gap_us));
  out->diagnostics.Set("rate", rate_diag);
  out->diagnostics.Set("peak", peak_all.Summary());
  // The median over the quiet rounds (hypervisor steal at most
  // kMaxRoundSteal); when fewer than half were quiet, over the half with
  // the least steal. Rounds are chosen by the steal counter alone.
  std::vector<size_t> by_steal(rounds.size());
  for (size_t i = 0; i < rounds.size(); ++i) by_steal[i] = i;
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [&rounds](size_t a, size_t b) {
                     return rounds[a].steal_share < rounds[b].steal_share;
                   });
  size_t keep = (rounds.size() + 1) / 2;
  while (keep < rounds.size() &&
         rounds[by_steal[keep]].steal_share <= kMaxRoundSteal) {
    ++keep;
  }
  by_steal.resize(keep);
  std::vector<RoundValues> counted;
  for (size_t i : by_steal) {
    rounds[i].quiet = true;
    counted.push_back(rounds[i]);
  }
  JsonValue round_list = JsonValue::MakeArray();
  for (const RoundValues& v : rounds) round_list.Append(v.ToJson());
  out->diagnostics.Set("rounds", std::move(round_list));
  out->record.Set("rounds_run",
                  JsonValue::Number(static_cast<double>(rounds.size())));
  out->record.Set("rounds_counted",
                  JsonValue::Number(static_cast<double>(counted.size())));
  const auto median_of = [&counted](double RoundValues::*field) {
    std::vector<double> values;
    for (const RoundValues& v : counted) values.push_back(v.*field);
    return Median(values);
  };

  out->record.Set("steal_share", steal.json());
  out->record.Set("phase_wall_s", steal.walls());
  JsonValue lateness = JsonValue::MakeObject();
  lateness.Set("rate", JsonValue::Number(Quantile(late, 0.99)));
  out->record.Set("lateness_p99_us", lateness);

  out->Metric("setup_s", Median(setups), "s");
  out->Metric("serial_p50_us", median_of(&RoundValues::serial_p50_us), "us");
  out->Metric("serial_p90_us", median_of(&RoundValues::serial_p90_us), "us");
  out->Metric("cpu_us_per_op", median_of(&RoundValues::cpu_us_per_op), "us");
  out->Metric("peak_ops_per_s", median_of(&RoundValues::peak_ops_per_s),
              "1/s");
}

/// Same seed, same bytes; another seed, other bytes; every line parses;
/// the PricingSession replay accepts every request (GenerateStreams fails
/// otherwise).
int SelfTest() {
  PhaseSizes sizes;
  sizes.warmup = 16;
  sizes.serial = 32;
  sizes.rate = 32;
  sizes.peak = 32;
  sizes.rounds = 2;
  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cerr << "self-test FAILED: " << what << "\n";
    ok = false;
  };
  for (Workload w : {Workload::kBilling, Workload::kQuote, Workload::kBatch}) {
    const std::string name = WorkloadName(w);
    Result<Streams> a = GenerateStreams(w, 7, sizes, false, OnlineCpus());
    Result<Streams> b = GenerateStreams(w, 7, sizes, false, 1);
    Result<Streams> c = GenerateStreams(w, 8, sizes, false, OnlineCpus());
    if (!a.ok() || !b.ok() || !c.ok()) {
      fail(name + ": generation: " +
           (!a.ok() ? a.status() : !b.ok() ? b.status() : c.status())
               .ToString());
      continue;
    }
    if (StreamDigest(*a) != StreamDigest(*b)) {
      fail(name + ": the same seed gave different streams");
    }
    if (StreamDigest(*a) == StreamDigest(*c)) {
      fail(name + ": different seeds gave identical streams");
    }
    size_t lines = 0;
    std::vector<std::pair<int, int>> segments = {{kSeed, 0}, {kWarmup, 0}};
    for (int round = 0; round < sizes.rounds; ++round) {
      for (int phase = kSerial; phase <= kPeak; ++phase) {
        segments.emplace_back(phase, round);
      }
    }
    for (const auto& [phase, round] : segments) {
      for (const auto& list : BuildPhase(*a, phase, round, kConnections)) {
        for (const Unit& unit : list) {
          ++lines;
          Result<optshare::service::protocol::Request> parsed =
              optshare::service::protocol::ParseRequestLine(
                  unit.line.substr(0, unit.line.size() - 1));
          if (!parsed.ok()) {
            fail(name + ": line " + unit.id + " does not parse: " +
                 parsed.status().ToString());
          }
        }
      }
    }
    std::cerr << "self-test " << name << ": " << lines
              << " lines parse, streams deterministic\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload billing|quote|batch --seed N "
                 "--seconds S --trace 0|1\n       perfbench --self-test\n";
    return 2;
  }
  optshare::SetLogLevel(optshare::LogLevel::kWarning);
  if (args.self_test) return SelfTest();

  const Plan plan = MakePlan(args.workload, args.seconds, args.trace);
  const std::string root = ".bench_data/" +
                           std::string(WorkloadName(args.workload)) + "-" +
                           std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(root, ec);

  Outcome out;
  const int64_t t0 = NowNs();
  if (args.trace) {
    RunTraced(plan, args.seed, root, &out);
  } else {
    RunEndToEnd(plan, args.seed, root, &out);
  }
  std::filesystem::remove_all(root, ec);

  out.record.Set("workload", JsonValue::Str(WorkloadName(args.workload)));
  out.record.Set("seed", JsonValue::Number(static_cast<double>(args.seed)));
  out.record.Set("seconds", JsonValue::Number(args.seconds));
  out.record.Set("traced", JsonValue::Bool(args.trace));
  out.record.Set("cpu_model", JsonValue::Str(CpuModel()));
  out.record.Set("nproc", JsonValue::Number(OnlineCpus()));
  out.record.Set("phases", PlanJson(plan));
  out.record.Set("wall_s", JsonValue::Number((NowNs() - t0) / 1e9));
  JsonValue violations = JsonValue::MakeArray();
  for (const std::string& v : out.violations) {
    violations.Append(JsonValue::Str(v));
  }
  out.record.Set("violations", std::move(violations));
  JsonValue record = JsonValue::MakeObject();
  record.Set("run_record", out.record);
  JsonValue diagnostics = JsonValue::MakeObject();
  diagnostics.Set("diagnostics", out.diagnostics);

  const bool correct = out.violations.empty() && out.failed == 0 &&
                       out.attempted > 0;
  JsonValue result = JsonValue::MakeObject();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted", JsonValue::Number(static_cast<double>(out.attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(out.failed)));
  result.Set("metrics", out.metrics);
  std::cout << record.Dump() << "\n"
            << diagnostics.Dump() << "\n"
            << result.Dump() << std::endl;
  for (const std::string& v : out.violations) std::cerr << "VIOLATION: " << v << "\n";
  return correct ? 0 : 1;
}
