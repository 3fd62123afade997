// raidsim replay benchmark: one workload, one seed, one run.
//
//   replaybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--out <dir>] [--emit-reference]
//
// Generates the workload's trace(s) into memory, builds the engine(s),
// replays through the public API (Simulator::run / ShardedSimulator::run),
// checks the outputs, prints every metric with its unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// prints the end-to-end metrics from untraced replays; --trace 1 prints
// the per-layer metrics from a separate traced run. See README.md.

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "core/simulator.hpp"
#include "probe.hpp"
#include "reference.hpp"
#include "runner/sharded_sim.hpp"

#ifndef REPLAYBENCH_BUILD_TYPE
#define REPLAYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef REPLAYBENCH_COMPILER
#define REPLAYBENCH_COMPILER "unknown"
#endif

namespace replaybench {
namespace {

using raidsim::Organization;

/// The seed the reference outputs were taken at, and a seed held out
/// from every choice made while building the benchmark.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2;

/// Timed setups per run after the first; setup_s is their median.
constexpr int kSetups = 9;
/// Timed units per run at the least, however short --seconds is.
constexpr int kMinIterations = 3;
/// Trace 1 at 10% (336K requests): the scale the sizing was done at.
constexpr double kTrace1Scale = 0.1;
/// Trace 2 windows per unit of the organization sweep, and the share of
/// the trace each replays.
constexpr int kTrace2Copies = 2;
constexpr double kTrace2Window = 0.9;
constexpr int kShards = 4;
/// CPUs the process runs on, and worker threads of the sharded engine, at
/// the most. Two, not four: on a shared 4-vCPU host, four workers tie
/// every replay to the slowest vCPU, and a probe on the main thread could
/// not see the vCPUs the workers ran on.
constexpr int kMaxThreads = 2;

// ------------------------------------------------------------ workloads

struct TraceSpec {
  std::string name;
  double scale = 1.0;
  double speed = 1.0;
  std::uint64_t seed = 0;    // generator seed; 0 = calibrated preset
  std::uint64_t offset = 0;  // first record of the replayed window
  double window = 1.0;       // share of the generated records replayed
};

struct Case {
  std::string label;
  std::size_t trace = 0;
  SimulationConfig config;
};

struct Workload {
  std::string name;
  std::vector<TraceSpec> traces;
  std::vector<Case> cases;  // one replay each, in order: one "unit"
  bool sharded = false;
};

/// Generator seed k of benchmark seed `seed` (splitmix64; never 0, which
/// make_workload reads as "use the preset seed").
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t x =
      seed * 0x9e3779b97f4a7c15ULL + (k + 1) * 0xd1b54a32d192ed03ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x ? x : 1;
}

/// CPUs the process may run on when it starts (taken once, before
/// pin_to_cpus narrows the set).
int host_cpus() {
  static const int cpus = [] {
#ifdef CPU_COUNT
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
  }();
  return cpus;
}

/// Keep the process on the first `n` CPUs it may run on. Threads started
/// later, the sharded engine's workers among them, inherit the set, so
/// the speed probe on the main thread runs on the CPUs the replays use.
void pin_to_cpus(int n) {
  cpu_set_t allowed, pinned;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  CPU_ZERO(&pinned);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    ++taken;
  }
  sched_setaffinity(0, sizeof pinned, &pinned);
}

/// Worker threads of the sharded engine; everything else runs on the
/// main thread.
int threads() { return std::min(kMaxThreads, host_cpus()); }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "t1_cached_raid5", "t2_uncached_orgs_2x", "t1_uncached_raid5_sharded"};
  return names;
}

Workload make_workload_spec(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  SimulationConfig raid5;
  raid5.organization = Organization::kRaid5;
  if (name == "t1_cached_raid5") {
    w.traces.push_back({"trace1", kTrace1Scale, 1.0, derive_seed(seed, 0)});
    Case c{"raid5_cached", 0, raid5};
    c.config.cached = true;
    w.cases.push_back(c);
  } else if (name == "t2_uncached_orgs_2x") {
    const Organization orgs[] = {Organization::kBase, Organization::kMirror,
                                 Organization::kRaid5,
                                 Organization::kParityStriping};
    // Trace 2's per-disk skew is drawn from its generator seed, and other
    // generator seeds are other installations: across them Fig 10's
    // ordering flips and mean response spreads by half. So the sweep
    // keeps the calibrated installation and takes the benchmark seed as
    // where each replayed window of it starts.
    for (int k = 0; k < kTrace2Copies; ++k) {
      w.traces.push_back({"trace2", 1.0, 2.0, 0,
                          derive_seed(seed, static_cast<std::uint64_t>(k)),
                          kTrace2Window});
      for (Organization org : orgs) {
        Case c{"w" + std::to_string(k) + "/" + raidsim::to_string(org),
               static_cast<std::size_t>(k), raid5};
        c.config.organization = org;
        w.cases.push_back(c);
      }
    }
  } else if (name == "t1_uncached_raid5_sharded") {
    w.traces.push_back({"trace1", kTrace1Scale, 1.0, derive_seed(seed, 0)});
    Case c{"raid5_sharded", 0, raid5};
    c.config.shards = kShards;
    c.config.shard_threads = threads();
    w.cases.push_back(c);
    w.sharded = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (const Case& c : w.cases) c.config.validate();
  return w;
}

// --------------------------------------------------------------- engines

/// A built, not yet run, engine for one case.
struct Engine {
  std::unique_ptr<raidsim::Simulator> classic;
  std::unique_ptr<raidsim::ShardedSimulator> sharded;
};

Engine build_engine(const SimulationConfig& config,
                    const GeneratedTrace& trace) {
  Engine e;
  if (config.shards > 0)
    e.sharded =
        std::make_unique<raidsim::ShardedSimulator>(config, trace.geometry);
  else
    e.classic = std::make_unique<raidsim::Simulator>(config, trace.geometry);
  return e;
}

Metrics run_engine(Engine& engine, const GeneratedTrace& trace) {
  MemoryTrace stream(trace);
  return engine.classic ? engine.classic->run(stream)
                        : engine.sharded->run(stream);
}

struct Setup {
  std::vector<GeneratedTrace> traces;
  std::vector<Engine> engines;
  double gen_s = 0.0;
  double build_s = 0.0;
};

std::vector<Engine> build_engines(const Workload& w,
                                  const std::vector<GeneratedTrace>& traces) {
  std::vector<Engine> engines;
  for (const Case& c : w.cases)
    engines.push_back(build_engine(c.config, traces[c.trace]));
  return engines;
}

Setup set_up(const Workload& w) {
  Setup s;
  const auto t0 = Clock::now();
  for (const TraceSpec& t : w.traces)
    s.traces.push_back(generate_trace(t.name, t.scale, t.speed, t.seed,
                                      t.offset, t.window));
  s.gen_s = seconds_since(t0);
  const auto t1 = Clock::now();
  s.engines = build_engines(w, s.traces);
  s.build_s = seconds_since(t1);
  return s;
}

struct Unit {
  std::vector<Metrics> metrics;          // per case; kept for the first unit
  std::vector<std::string> json;         // per case, metrics_json
  std::vector<std::uint64_t> completed;  // per case, Metrics::requests
  double replay_s = 0.0;                 // summed over cases
};

/// Replay every case of the unit on its pre-built engine. The clock runs
/// from the start of each replay to its metrics in hand.
Unit replay_unit(const Workload& w, const std::vector<GeneratedTrace>& traces,
                 std::vector<Engine>& engines) {
  Unit u;
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    const GeneratedTrace& trace = traces[w.cases[i].trace];
    const auto start = Clock::now();
    u.metrics.push_back(run_engine(engines[i], trace));
    u.replay_s += seconds_since(start);
    u.json.push_back(metrics_json(u.metrics.back()));
    u.completed.push_back(u.metrics.back().requests);
  }
  return u;
}

// ---------------------------------------------------------------- checks

/// Tallies attempted and failed requests and the reasons replays failed
/// (each distinct reason listed once). A replay that fails any check
/// counts all its requests failed.
class Ledger {
 public:
  void replay(const std::string& label, std::uint64_t given,
              const std::vector<std::string>& problems) {
    attempted_ += given;
    if (problems.empty()) return;
    failed_ += given;
    for (const auto& p : problems) {
      const std::string line = label + ": " + p;
      if (std::find(failures_.begin(), failures_.end(), line) ==
          failures_.end())
        failures_.push_back(line);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

std::vector<std::string> reference_problems(const std::string& workload,
                                            const std::string& label,
                                            const Metrics& m) {
  for (const ReferenceRow& row : kReference) {
    if (workload != row.workload || label != row.replay) continue;
    std::vector<std::string> problems;
    auto check = [&](const char* what, double got, double want) {
      if (!close(got, want, 1e-9)) {
        char msg[160];
        std::snprintf(msg, sizeof msg, "%s %.17g != reference %.17g", what,
                      got, want);
        problems.emplace_back(msg);
      }
    };
    check("requests", static_cast<double>(m.requests),
          static_cast<double>(row.requests));
    check("mean_response_ms", m.mean_response_ms(), row.mean_response_ms);
    check("p999_response_ms", m.response_all.p999(), row.p999_response_ms);
    check("read_hit_ratio", m.read_hit_ratio(), row.read_hit_ratio);
    check("write_hit_ratio", m.write_hit_ratio(), row.write_hit_ratio);
    check("disk_ops", static_cast<double>(m.disk_totals.ops()),
          static_cast<double>(row.disk_ops));
    return problems;
  }
  return {"no reference row at the default seed"};
}

void emit_reference(const Workload& w, const std::vector<Metrics>& metrics) {
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    const Metrics& m = metrics[i];
    std::printf("    {\"%s\", \"%s\",\n     %llu, %.17g, %.17g, %.17g, %.17g, "
                "%llu},\n",
                w.name.c_str(), w.cases[i].label.c_str(),
                static_cast<unsigned long long>(m.requests),
                m.mean_response_ms(), m.response_all.p999(),
                m.read_hit_ratio(), m.write_hit_ratio(),
                static_cast<unsigned long long>(m.disk_totals.ops()));
  }
}

// ------------------------------------------------------------ provenance

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void print_provenance(int threads) {
  struct utsname u {};
  uname(&u);
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGESIZE);
  const double mem_gb =
      pages > 0 && page > 0
          ? static_cast<double>(pages) * static_cast<double>(page) / 1e9
          : 0.0;
  const std::string brand = cpu_brand();
  char mem[32];
  std::snprintf(mem, sizeof mem, "%.0f", mem_gb);
  const std::string key = brand + "|" + std::to_string(host_cpus()) + "|" +
                          mem + "|" + u.machine;
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : key) h = (h ^ c) * 0x100000001b3ULL;
  std::printf(
      "provenance {\"nproc\":%d,\"threads\":%d,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"cpu\":\"%s\",\"mem_gb\":%s,\"kernel\":\"%s %s "
      "%s\",\"machine_fingerprint\":\"%016llx\"}\n",
      host_cpus(), threads, json_escape(REPLAYBENCH_COMPILER).c_str(),
      REPLAYBENCH_BUILD_TYPE, json_escape(brand).c_str(), mem, u.sysname,
      u.release, u.machine, static_cast<unsigned long long>(h));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Metric>& metrics, const Ledger& ledger) {
  for (const Metric& m : metrics)
    std::printf("%-34s %20.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& f : ledger.failures())
    std::printf("CHECK FAILED %s\n", f.c_str());
  std::printf("failed_ops_frac %.17g (%llu of %llu requests)\n",
              ledger.attempted()
                  ? static_cast<double>(ledger.failed()) /
                        static_cast<double>(ledger.attempted())
                  : 1.0,
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<unsigned long long>(ledger.attempted()));
  std::string line = "{\"correct\": ";
  line += ledger.failures().empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------- run

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  bool emit_reference = false;
};

std::uint64_t total_records(const Workload& w,
                            const std::vector<GeneratedTrace>& traces) {
  std::uint64_t n = 0;
  for (const Case& c : w.cases) n += traces[c.trace].records.size();
  return n;
}

/// Fig 10's severity ordering on every trace of the organization sweep:
/// Mirror < RAID5 and Base < Parity Striping in mean response. Returns
/// the problem, if any, for each case of the unit.
std::vector<std::string> fig10_problems(const Workload& w, const Unit& u) {
  std::vector<std::string> problems(w.cases.size());
  for (std::size_t t = 0; t < w.traces.size(); ++t) {
    std::map<Organization, double> mean;
    for (std::size_t i = 0; i < w.cases.size(); ++i)
      if (w.cases[i].trace == t)
        mean[w.cases[i].config.organization] = u.metrics[i].mean_response_ms();
    if (mean[Organization::kMirror] < mean[Organization::kRaid5] &&
        mean[Organization::kBase] < mean[Organization::kParityStriping])
      continue;
    char msg[200];
    std::snprintf(msg, sizeof msg,
                  "Fig 10 order broken on window w%zu: Mirror %.3f RAID5 %.3f "
                  "Base %.3f ParStrip %.3f ms",
                  t, mean[Organization::kMirror], mean[Organization::kRaid5],
                  mean[Organization::kBase],
                  mean[Organization::kParityStriping]);
    for (std::size_t i = 0; i < w.cases.size(); ++i)
      if (w.cases[i].trace == t) problems[i] = msg;
  }
  return problems;
}

/// Per-replay output checks. The run's first unit is checked in full:
/// completion, the stored reference (at the default seed) and, on the
/// organization sweep, Fig 10's ordering; its Metrics::to_json become the
/// run's fingerprints. Every later replay of a case must complete and
/// match its fingerprint, and fails with the first one: a replay whose
/// outputs repeat a failed replay's is equally wrong.
class Checks {
 public:
  Checks(const Workload& w, const Args& args, Ledger& ledger)
      : w_(w), args_(args), ledger_(ledger) {}

  void first(const Unit& u, const std::vector<GeneratedTrace>& traces) {
    std::vector<std::string> fig10(w_.cases.size());
    if (w_.name == "t2_uncached_orgs_2x") fig10 = fig10_problems(w_, u);
    for (std::size_t i = 0; i < w_.cases.size(); ++i) {
      const std::uint64_t given = traces[w_.cases[i].trace].records.size();
      std::vector<std::string> problems;
      if (u.completed[i] != given)
        problems.push_back("completed " + std::to_string(u.completed[i]) +
                           " of " + std::to_string(given) + " requests");
      if (args_.seed == kDefaultSeed) {
        auto ref = reference_problems(w_.name, w_.cases[i].label,
                                      u.metrics[i]);
        problems.insert(problems.end(), ref.begin(), ref.end());
      }
      if (!fig10[i].empty()) problems.push_back(fig10[i]);
      fingerprints_.push_back(u.json[i]);
      failed_first_.push_back(problems.empty() ? "" : problems.front());
      ledger_.replay(w_.cases[i].label, given, problems);
    }
  }

  void unit(const Unit& u, const std::vector<GeneratedTrace>& traces,
            const char* how) {
    for (std::size_t i = 0; i < w_.cases.size(); ++i) {
      const std::uint64_t given = traces[w_.cases[i].trace].records.size();
      std::vector<std::string> problems;
      if (u.completed[i] != given)
        problems.push_back("completed " + std::to_string(u.completed[i]) +
                           " of " + std::to_string(given) + " requests");
      if (u.json[i] != fingerprints_[i])
        problems.push_back(std::string(how) +
                           " Metrics::to_json differs from the first replay");
      record(i, w_.cases[i].label, given, std::move(problems));
    }
  }

  /// Account one more replay of case i with its own problems, failing it
  /// as well when the case's first replay failed.
  void record(std::size_t i, const std::string& label, std::uint64_t given,
              std::vector<std::string> problems) {
    if (!failed_first_[i].empty())
      problems.push_back("a replay of this case failed: " + failed_first_[i]);
    ledger_.replay(label, given, problems);
  }

  const std::string& fingerprint(std::size_t i) const {
    return fingerprints_[i];
  }

 private:
  const Workload& w_;
  const Args& args_;
  Ledger& ledger_;
  std::vector<std::string> fingerprints_;
  std::vector<std::string> failed_first_;  // first problem, per case
};

/// The sharded engine's cross-checks: byte-identical at 1 thread and at N
/// threads, and within 1e-9 relative of the classic engine on the same
/// trace. Returns the classic engine's Metrics JSON and the 1-thread
/// replay time.
struct ShardedCrossCheck {
  std::string classic_json;
  double one_thread_s = 0.0;
};

ShardedCrossCheck check_sharded(const Workload& w,
                                const std::vector<GeneratedTrace>& traces,
                                Checks& checks) {
  ShardedCrossCheck out;
  const Case& c = w.cases.front();
  const GeneratedTrace& trace = traces[c.trace];
  const std::uint64_t given = trace.records.size();

  SimulationConfig one = c.config;
  one.shard_threads = 1;
  Engine e1 = build_engine(one, trace);
  const auto start = Clock::now();
  const Metrics m1 = run_engine(e1, trace);
  out.one_thread_s = seconds_since(start);
  std::vector<std::string> problems;
  if (metrics_json(m1) != checks.fingerprint(0))
    problems.push_back("1-thread Metrics::to_json differs from " +
                       std::to_string(c.config.shard_threads) + " threads");
  checks.record(0, c.label + "@1thread", given, std::move(problems));

  SimulationConfig classic = c.config;
  classic.shards = 0;
  Engine ec = build_engine(classic, trace);
  const Metrics mc = run_engine(ec, trace);
  out.classic_json = metrics_json(mc);
  problems.clear();
  std::string why;
  if (mc.requests != given)
    problems.push_back("classic engine completed " +
                       std::to_string(mc.requests) + " of " +
                       std::to_string(given));
  if (!json_numbers_close(out.classic_json, checks.fingerprint(0), 1e-9,
                          &why))
    problems.push_back("classic vs sharded beyond 1e-9: " + why);
  checks.record(0, c.label + "@classic", given, std::move(problems));
  return out;
}

/// Pool response recorders over every replay of the unit.
raidsim::LatencyRecorder pooled_response(const Unit& u) {
  raidsim::LatencyRecorder all;
  for (const Metrics& m : u.metrics) all.merge(m.response_all);
  return all;
}

// ------------------------------------------------------ end-to-end run

struct SetupTimes {
  std::vector<double> gen_s, build_s;  // host seconds
  std::vector<double> setup_s;         // gen + build, at reference speed
  std::vector<double> probe_s;         // every probe run, in order
};

/// kSetups setups after the run's first, one after another, each dropped
/// once timed and each between two probe runs.
SetupTimes time_setups(const Workload& w, SpeedProbe& probe) {
  SetupTimes t;
  t.probe_s.push_back(probe.run());
  for (int k = 0; k < kSetups; ++k) {
    const Setup s = set_up(w);
    t.probe_s.push_back(probe.run());
    t.gen_s.push_back(s.gen_s);
    t.build_s.push_back(s.build_s);
    t.setup_s.push_back(at_reference_speed(s.gen_s + s.build_s,
                                           t.probe_s[t.probe_s.size() - 2],
                                           t.probe_s.back()));
  }
  return t;
}

int run_end_to_end(const Workload& w, const Args& args) {
  Ledger ledger;
  Checks checks(w, args, ledger);

  // The first setup and replay: its Metrics are the run's reference
  // outputs, and the process peak after it is the memory one replay needs
  // (read before the timed setups hold a second copy of the traces).
  Setup reference = set_up(w);
  const Unit first = replay_unit(w, reference.traces, reference.engines);
  const double rss_mb = peak_rss_mb();
  checks.first(first, reference.traces);

  SpeedProbe speed_probe;
  SetupTimes setups = time_setups(w, speed_probe);
  std::vector<double> raw_setup_s;
  for (std::size_t i = 0; i < setups.gen_s.size(); ++i)
    raw_setup_s.push_back(setups.gen_s[i] + setups.build_s[i]);
  const std::vector<GeneratedTrace>& traces = reference.traces;
  const std::uint64_t requests = total_records(w, traces);

  // Timed units until the window closes, each on freshly built engines
  // and each between two probe runs.
  std::vector<double> rate, raw_rate, probe_s;
  double before = speed_probe.run();
  probe_s.push_back(before);
  const auto window = Clock::now();
  for (int it = 0; it < kMinIterations || seconds_since(window) < args.seconds;
       ++it) {
    std::vector<Engine> engines = build_engines(w, traces);
    const Unit u = replay_unit(w, traces, engines);
    const double after = speed_probe.run();
    const double n = static_cast<double>(requests);
    rate.push_back(n / at_reference_speed(u.replay_s, before, after));
    raw_rate.push_back(n / u.replay_s);
    probe_s.push_back(after);
    before = after;
    checks.unit(u, traces, "repeated");
  }

  if (args.emit_reference) {
    emit_reference(w, first.metrics);
    return 0;
  }
  if (w.sharded) check_sharded(w, traces, checks);

  const raidsim::LatencyRecorder all = pooled_response(first);
  const double completed =
      1.0 - static_cast<double>(ledger.failed()) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, ledger.attempted()));
  const std::vector<Metric> metrics = {
      {"requests_per_s", median(rate), "1/s"},
      {"setup_s", median(setups.setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_mean_response_ms", all.mean(), "ms"},
      {"sim_p999_response_ms", all.p999(), "ms"},
      {"completed_ops_frac", completed, "ratio"},
  };
  auto spread = [](const char* what, const std::vector<double>& v) {
    const Quartiles q = quartiles(v);
    std::printf("%s over %zu samples: q1 %.6g median %.6g q3 %.6g\n", what,
                v.size(), q.q1, q.median, q.q3);
  };
  std::printf("units of %llu requests; host metrics at the probe's "
              "reference speed (probe %.3f s)\n",
              static_cast<unsigned long long>(requests), kProbeReferenceS);
  spread("requests_per_s", rate);
  spread("requests_per_s in raw host seconds", raw_rate);
  spread("setup_s", setups.setup_s);
  spread("setup_s in raw host seconds", raw_setup_s);
  spread("probe_s around replays", probe_s);
  spread("probe_s around setups", setups.probe_s);
  print_result(metrics, ledger);
  return ledger.failures().empty() ? 0 : 1;
}

// ------------------------------------------------------- per-layer run

struct LayerSamples {
  std::vector<double> overhead_pct;
  std::vector<double> untraced_s;
  std::vector<double> submit_ns, step_ns, finalize_s, unattributed_pct;
  double pending_sum = 0.0;
  std::uint64_t pending_steps = 0;
  std::size_t pending_peak = 0;
  std::vector<double> load_s, shards_s, merge_s;
};

/// Traced classic replay of every case, checked against the untraced
/// replay's JSON and accumulated into one sample of the span metrics.
double traced_unit(const std::vector<Case>& cases,
                   const std::vector<GeneratedTrace>& traces,
                   const std::vector<std::string>& expect_json,
                   Checks& checks, LayerSamples& s, std::vector<Span>& spans) {
  double wall = 0.0, submit = 0.0, step = 0.0, fin = 0.0, unattributed = 0.0;
  std::uint64_t submits = 0, steps = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GeneratedTrace& trace = traces[cases[i].trace];
    const TracedReplay r = traced_replay(cases[i].config, trace, spans);
    std::vector<std::string> problems;
    if (r.metrics.requests != trace.records.size())
      problems.push_back("traced replay completed " +
                         std::to_string(r.metrics.requests) + " requests");
    if (metrics_json(r.metrics) != expect_json[i])
      problems.push_back("traced Metrics::to_json differs from untraced");
    checks.record(i, cases[i].label + "@traced", trace.records.size(),
                  std::move(problems));
    wall += r.wall_s;
    submit += r.submit_s;
    submits += r.submits;
    step += r.step_self_s;
    steps += r.steps;
    fin += r.finalize_s;
    unattributed += r.unattributed_s;
    s.pending_sum += r.pending_sum;
    s.pending_steps += r.steps;
    s.pending_peak = std::max(s.pending_peak, r.pending_peak);
  }
  s.submit_ns.push_back(submit * 1e9 / static_cast<double>(submits));
  s.step_ns.push_back(step * 1e9 / static_cast<double>(steps));
  s.finalize_s.push_back(fin);
  s.unattributed_pct.push_back(100.0 * unattributed / wall);
  return wall;
}

struct HookTimes {
  double total_s = 0.0, load_s = 0.0, shards_s = 0.0, merge_s = 0.0;
  Metrics metrics;
};

/// ShardedSimulator::run with a progress hook whose frame timestamps
/// split the call into coordinator load, shards, and merge.
HookTimes hooked_sharded_run(const SimulationConfig& config,
                             const GeneratedTrace& trace) {
  raidsim::ShardedSimulator sim(config, trace.geometry);
  Clock::time_point first{}, last{};
  bool seen = false;
  // The engine serializes hook calls and joins its workers before the
  // final frame, so plain locals are safe here.
  sim.set_progress_hook([&](const raidsim::ProgressSnapshot& snap) {
    const auto now = Clock::now();
    if (!seen) {
      first = now;
      seen = true;
    }
    if (snap.final_frame) last = now;
  });
  MemoryTrace stream(trace);
  const auto start = Clock::now();
  HookTimes h;
  h.metrics = sim.run(stream);
  const auto end = Clock::now();
  auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  h.total_s = secs(end - start);
  h.load_s = secs(first - start);
  h.shards_s = secs(last - first);
  h.merge_s = secs(end - last);
  return h;
}

int run_per_layer(const Workload& w, const Args& args) {
  Ledger ledger;
  Checks checks(w, args, ledger);

  Setup setup = set_up(w);
  SpeedProbe speed_probe;
  const SetupTimes setups = time_setups(w, speed_probe);
  const std::vector<double>& gen_s = setups.gen_s;
  const std::vector<double>& build_s = setups.build_s;
  const std::vector<GeneratedTrace>& traces = setup.traces;
  std::uint64_t generated = 0;
  for (const auto& t : traces) generated += t.records.size();
  const std::uint64_t requests = total_records(w, traces);

  // Reference replay: untraced, on the engines of the first setup.
  Unit first = replay_unit(w, traces, setup.engines);
  checks.first(first, traces);

  std::vector<Case> traced_cases = w.cases;
  std::vector<std::string> expect_json;
  for (std::size_t i = 0; i < w.cases.size(); ++i)
    expect_json.push_back(checks.fingerprint(i));
  ShardedCrossCheck cross;
  if (w.sharded) {
    cross = check_sharded(w, traces, checks);
    // The classic engine on this workload's trace carries the core spans.
    traced_cases[0].config.shards = 0;
    traced_cases[0].label += "@classic";
    expect_json[0] = cross.classic_json;
  }

  // Interleaved pairs: untraced vs traced (classic) or unhooked vs hooked
  // (sharded), alternating which runs first.
  LayerSamples s;
  std::vector<Span> spans;
  const auto window = Clock::now();
  for (int pair = 0;
       pair < kMinIterations || seconds_since(window) < args.seconds; ++pair) {
    double untraced = 0.0, traced = 0.0;
    for (int side = 0; side < 2; ++side) {
      const bool traced_side = (side == 0) == (pair % 2 == 1);
      if (!traced_side) {
        std::vector<Engine> engines = build_engines(w, traces);
        Unit u = replay_unit(w, traces, engines);
        checks.unit(u, traces, "untraced");
        untraced = u.replay_s;
      } else if (w.sharded) {
        const HookTimes h =
            hooked_sharded_run(w.cases[0].config, traces[w.cases[0].trace]);
        std::vector<std::string> problems;
        if (metrics_json(h.metrics) != checks.fingerprint(0))
          problems.push_back("hooked Metrics::to_json differs from unhooked");
        checks.record(0, w.cases[0].label + "@hooked",
                      traces[w.cases[0].trace].records.size(),
                      std::move(problems));
        traced = h.total_s;
        s.load_s.push_back(h.load_s);
        s.shards_s.push_back(h.shards_s);
        s.merge_s.push_back(h.merge_s);
      } else {
        traced = traced_unit(traced_cases, traces, expect_json, checks, s,
                             spans);
      }
    }
    s.untraced_s.push_back(untraced);
    s.overhead_pct.push_back(100.0 * (traced - untraced) / untraced);
  }
  if (w.sharded)  // one traced classic replay for the core spans
    traced_unit(traced_cases, traces, expect_json, checks, s, spans);

  std::filesystem::create_directories(args.out + "/spans");
  const std::string span_path = args.out + "/spans/" + w.name + ".spans";
  if (!write_spans(span_path, spans))
    std::fprintf(stderr, "warning: could not write %s\n", span_path.c_str());

  // Runner: measured by the sharded workload's hooked runs above; the
  // classic workloads do not run it and print zeros.
  const double speedup =
      w.sharded ? cross.one_thread_s / median(s.untraced_s) : 0.0;
  const int runner_threads = w.sharded ? w.cases[0].config.shard_threads : 0;
  auto runner_median = [&](const std::vector<double>& v) {
    return w.sharded ? median(v) : 0.0;
  };

  // Layer drives on the workload's own inputs.
  double read_ns = 0.0, map_ns = 0.0, extents = 0.0, cache_ns = 0.0;
  for (const GeneratedTrace& t : traces)
    read_ns += drive_trace_read_ns(t) * static_cast<double>(t.records.size());
  read_ns /= static_cast<double>(generated);
  for (const Case& c : w.cases) {
    const GeneratedTrace& t = traces[c.trace];
    const double n = static_cast<double>(t.records.size());
    const LayoutDrive d = drive_layout(c.config, t);
    map_ns += d.ns_per_request * n;
    extents += d.extents_per_request * n;
    cache_ns += drive_cache_op_ns(c.config, t) * n;
  }
  map_ns /= static_cast<double>(requests);
  extents /= static_cast<double>(requests);
  cache_ns /= static_cast<double>(requests);
  const double pending_mean =
      s.pending_sum / static_cast<double>(s.pending_steps);
  const double churn_ns = drive_event_churn_ns(
      static_cast<std::size_t>(std::llround(pending_mean)), 1000000);

  // Simulated counters, pooled over the unit's replays.
  raidsim::DiskStats disk;
  raidsim::ControllerStats ctl;
  raidsim::NvCache::Stats cache;
  std::uint64_t events = 0;
  double util_sum = 0.0, util_max = 0.0, cv_sum = 0.0, channel_sum = 0.0;
  std::size_t disks = 0;
  for (const Metrics& m : first.metrics) {
    raidsim::accumulate(disk, m.disk_totals);
    raidsim::accumulate(ctl, m.controller);
    raidsim::accumulate(cache, m.cache);
    events += m.events_executed;
    for (double u : m.disk_utilization) util_sum += u;
    disks += m.disk_utilization.size();
    util_max = std::max(util_max, m.max_disk_utilization());
    cv_sum += m.disk_access_cv();
    channel_sum += m.channel_utilization;
  }
  const double cases = static_cast<double>(first.metrics.size());
  const double ops = static_cast<double>(disk.ops());
  const Quartiles oq = quartiles(s.overhead_pct);
  const double untraced_median = median(s.untraced_s);

  const std::vector<Metric> metrics = {
      {"trace.records", static_cast<double>(generated), "count"},
      {"trace.gen_s", median(gen_s), "s"},
      {"trace.gen_records_per_s",
       static_cast<double>(generated) / median(gen_s), "1/s"},
      {"trace.read_ns_per_record", read_ns, "ns"},
      {"core.build_s", median(build_s), "s"},
      {"core.submit_ns_per_request", median(s.submit_ns), "ns"},
      {"core.step_ns_per_event", median(s.step_ns), "ns"},
      {"core.finalize_s", median(s.finalize_s), "s"},
      {"core.unattributed_pct", median(s.unattributed_pct), "%"},
      {"core.trace_overhead_pct", oq.median, "%"},
      {"core.trace_overhead_pct_q1", oq.q1, "%"},
      {"core.trace_overhead_pct_q3", oq.q3, "%"},
      {"sim.events", static_cast<double>(events), "count"},
      {"sim.events_per_request",
       static_cast<double>(events) / static_cast<double>(requests), "count"},
      {"sim.host_ns_per_event",
       untraced_median * 1e9 / static_cast<double>(events), "ns"},
      {"sim.pending_mean", pending_mean, "count"},
      {"sim.pending_peak", static_cast<double>(s.pending_peak), "count"},
      {"sim.churn_ns_per_event", churn_ns, "ns"},
      {"array.read_hit_ratio", ctl.read_hit_ratio(), "ratio"},
      {"array.write_hit_ratio", ctl.write_hit_ratio(), "ratio"},
      {"array.destage_writes", static_cast<double>(ctl.destage_writes),
       "count"},
      {"array.write_stalls", static_cast<double>(ctl.write_stalls), "count"},
      {"array.sync_victim_writes",
       static_cast<double>(ctl.sync_victim_writes), "count"},
      {"layout.map_ns_per_request", map_ns, "ns"},
      {"layout.extents_per_request", extents, "count"},
      {"cache.read_hits", static_cast<double>(cache.read_hits), "count"},
      {"cache.read_misses", static_cast<double>(cache.read_misses), "count"},
      {"cache.write_hits", static_cast<double>(cache.write_hits), "count"},
      {"cache.evictions", static_cast<double>(cache.evictions), "count"},
      {"cache.stalls", static_cast<double>(cache.stalls), "count"},
      {"cache.op_ns", cache_ns, "ns"},
      {"disk.ops", static_cast<double>(disk.ops()), "count"},
      {"disk.rmws", static_cast<double>(disk.rmws), "count"},
      {"disk.held_rotations", static_cast<double>(disk.held_rotations),
       "count"},
      {"disk.mean_util", util_sum / static_cast<double>(disks), "ratio"},
      {"disk.max_util", util_max, "ratio"},
      {"disk.access_cv", cv_sum / cases, "ratio"},
      {"disk.queue_ms_per_op", disk.queue_ms / ops, "ms"},
      {"disk.seek_ms_per_op", disk.seek_ms / ops, "ms"},
      {"disk.rotation_ms_per_op", disk.latency_ms / ops, "ms"},
      {"disk.transfer_ms_per_op", disk.transfer_ms / ops, "ms"},
      {"disk.hold_ms_per_op", disk.hold_ms / ops, "ms"},
      {"channel.mean_util", channel_sum / cases, "ratio"},
      {"runner.load_s", runner_median(s.load_s), "s"},
      {"runner.shards_s", runner_median(s.shards_s), "s"},
      {"runner.merge_s", runner_median(s.merge_s), "s"},
      {"runner.speedup_vs_1thread", speedup, "x"},
      {"runner.threads", static_cast<double>(runner_threads), "count"},
      {"host.probe_s", median(setups.probe_s), "s"},
  };
  std::printf("core.trace_overhead_pct over %zu pairs: q1 %.4g median %.4g "
              "q3 %.4g; spans of the last traced replay in %s\n",
              s.overhead_pct.size(), oq.q1, oq.median, oq.q3,
              span_path.c_str());
  print_result(metrics, ledger);
  return ledger.failures().empty() ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "replaybench: %s\nusage: replaybench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
               "[--emit-reference]\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\ndefault seed %llu, held-out seed %llu\n",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  return 2;
}

}  // namespace
}  // namespace replaybench

int main(int argc, char** argv) {
  using namespace replaybench;
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--emit-reference") {
        args.emit_reference = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        used = value.size();
      } else if (flag == "--out") {
        args.out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
      if ((flag == "--seed" || flag == "--seconds") && used != value.size())
        return usage(("bad value for " + flag).c_str());
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (args.workload.empty()) return usage("--workload is required");
  if (!(args.seconds > 0.0) || args.seconds > 600.0)
    return usage("--seconds must be in (0, 600]");
  try {
    const Workload w = make_workload_spec(args.workload, args.seed);
    std::printf("workload %s seed %llu (default %llu, held-out %llu) "
                "seconds %g trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(kDefaultSeed),
                static_cast<unsigned long long>(kHeldOutSeed), args.seconds,
                args.trace ? 1 : 0);
    print_provenance(w.sharded ? threads() : 1);
    pin_to_cpus(threads());
    return args.trace ? run_per_layer(w, args) : run_end_to_end(w, args);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replaybench: %s\n", e.what());
    return 1;
  }
}
