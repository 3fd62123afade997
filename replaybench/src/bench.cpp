#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "cache/nv_cache.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

namespace replaybench {

using raidsim::Organization;
using raidsim::SimTime;

GeneratedTrace generate_trace(const std::string& name, double scale,
                              double speed, std::uint64_t seed,
                              std::uint64_t offset, double window) {
  raidsim::WorkloadOptions options;
  options.scale = scale;
  options.speed = speed;
  options.seed = seed;
  auto stream = raidsim::make_workload(name, options);
  GeneratedTrace trace;
  trace.geometry = stream->geometry();
  trace.records.reserve(stream->size_hint());
  while (auto record = stream->next()) trace.records.push_back(*record);
  auto& records = trace.records;
  if (records.empty()) return trace;
  std::rotate(records.begin(),
              records.begin() +
                  static_cast<std::ptrdiff_t>(offset % records.size()),
              records.end());
  records.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(window * static_cast<double>(records.size())))));
  return trace;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(values, n=4, method="exclusive").
  const auto ld = static_cast<std::int64_t>(n);
  const std::int64_t m = ld + 1;
  double cut[3];
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

std::string metrics_json(const Metrics& metrics) {
  std::ostringstream out;
  out.precision(17);
  metrics.to_json(out);
  return out.str();
}

namespace {

/// Split a JSON dump into alternating text and number tokens.
void tokenize(const std::string& s, std::vector<std::string>& text,
              std::vector<double>& numbers) {
  std::string pending;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    const bool starts_number =
        (c >= '0' && c <= '9') ||
        (c == '-' && i + 1 < s.size() && s[i + 1] >= '0' && s[i + 1] <= '9');
    if (starts_number && (i == 0 || s[i - 1] == ':' || s[i - 1] == ',' ||
                          s[i - 1] == '[')) {
      char* end = nullptr;
      numbers.push_back(std::strtod(s.c_str() + i, &end));
      text.push_back(pending);
      pending.clear();
      i = static_cast<std::size_t>(end - s.c_str());
    } else {
      pending.push_back(c);
      ++i;
    }
  }
  text.push_back(pending);
}

}  // namespace

bool json_numbers_close(const std::string& a, const std::string& b,
                        double rel_tol, std::string* why) {
  std::vector<std::string> text_a, text_b;
  std::vector<double> num_a, num_b;
  tokenize(a, text_a, num_a);
  tokenize(b, text_b, num_b);
  if (text_a != text_b || num_a.size() != num_b.size()) {
    if (why) *why = "different structure";
    return false;
  }
  for (std::size_t i = 0; i < num_a.size(); ++i) {
    const double scale = std::max(std::fabs(num_a[i]), std::fabs(num_b[i]));
    if (std::fabs(num_a[i] - num_b[i]) > rel_tol * scale) {
      if (why) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "value " << i << " after '" << text_a[i] << "': " << num_a[i]
            << " vs " << num_b[i];
        *why = msg.str();
      }
      return false;
    }
  }
  return true;
}

namespace {

/// External feeder of one classic Simulator. Arrivals are chained the way
/// Simulator::pump chains them: an arrival event submits its record and
/// then schedules the next arrival, so event sequence numbers -- and
/// therefore the whole simulation -- match run() exactly.
class TracedFeeder {
 public:
  TracedFeeder(raidsim::Simulator& sim, const GeneratedTrace& trace,
               std::vector<Span>& spans, Clock::time_point t0)
      : sim_(sim), records_(trace.records), spans_(spans), t0_(t0) {}

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }

  void schedule_next_arrival() {
    if (next_ == records_.size()) return;
    arrival_ += records_[next_].delta_ms;
    sim_.event_queue().schedule_at(arrival_, [this] { arrive(); });
  }

  void arrive() {
    const std::size_t index = next_++;
    const std::uint64_t start = now_ns();
    sim_.submit(records_[index], [this](SimTime) { ++completed_; });
    spans_.push_back({start, now_ns(), current_step_,
                      static_cast<std::uint32_t>(index), kSpanSubmit});
    schedule_next_arrival();
  }

  std::uint64_t completed() const { return completed_; }
  void set_current_step(std::uint32_t span) { current_step_ = span; }

 private:
  raidsim::Simulator& sim_;
  const std::vector<TraceRecord>& records_;
  std::vector<Span>& spans_;
  Clock::time_point t0_;
  std::size_t next_ = 0;
  double arrival_ = 0.0;
  std::uint64_t completed_ = 0;
  std::uint32_t current_step_ = 0;
};

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

TracedReplay traced_replay(const SimulationConfig& config,
                           const GeneratedTrace& trace,
                           std::vector<Span>& spans) {
  spans.clear();
  raidsim::Simulator sim(config, trace.geometry);
  auto& eq = sim.event_queue();
  TracedReplay out;

  const Clock::time_point t0 = Clock::now();
  TracedFeeder feeder(sim, trace, spans, t0);
  spans.push_back({0, 0, 0, 0, kSpanReplay});

  std::uint64_t start = feeder.now_ns();
  feeder.schedule_next_arrival();
  spans.push_back({start, feeder.now_ns(), 0, 0, kSpanSchedule});

  const std::uint64_t total = trace.records.size();
  while (feeder.completed() < total) {
    const auto step = static_cast<std::uint32_t>(spans.size());
    spans.push_back({feeder.now_ns(), 0, 0, 0, kSpanStep});
    feeder.set_current_step(step);
    const bool ran = eq.step();
    spans[step].end_ns = feeder.now_ns();
    ++out.steps;
    const std::size_t pending = eq.pending();
    out.pending_sum += static_cast<double>(pending);
    out.pending_peak = std::max(out.pending_peak, pending);
    // A drained queue with requests outstanding means stranded requests;
    // drain_and_finalize then reports fewer requests than were given.
    if (!ran) break;
  }

  start = feeder.now_ns();
  out.metrics = sim.drain_and_finalize();
  spans.push_back({start, feeder.now_ns(), 0, 0, kSpanFinalize});
  spans[0].end_ns = feeder.now_ns();

  // Self times: a span's duration minus what its children cover.
  std::uint64_t top_children = 0;
  std::uint64_t step_total = 0;
  std::uint64_t submit_total = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t d = s.end_ns - s.start_ns;
    if (s.parent == 0) top_children += d;
    switch (s.name) {
      case kSpanStep: step_total += d; break;
      case kSpanSubmit: submit_total += d; ++out.submits; break;
      case kSpanFinalize: out.finalize_s = ns_to_s(d); break;
      default: break;
    }
  }
  out.wall_s = ns_to_s(spans[0].end_ns);
  out.submit_s = ns_to_s(submit_total);
  out.step_self_s = ns_to_s(step_total - submit_total);
  out.unattributed_s = ns_to_s(spans[0].end_ns - top_children);
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::uint32_t version = 1;
  const std::uint64_t count = spans.size();
  out.write("RBSP", 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const Span& s : spans) {
    char packed[25];
    std::memcpy(packed, &s.start_ns, 8);
    std::memcpy(packed + 8, &s.end_ns, 8);
    std::memcpy(packed + 16, &s.parent, 4);
    std::memcpy(packed + 20, &s.request, 4);
    packed[24] = static_cast<char>(s.name);
    out.write(packed, sizeof packed);
  }
  return static_cast<bool>(out.flush());
}

// ---------------------------------------------------------- layer drives

namespace {

/// Each layer drive reports the median of this many passes.
constexpr int kDrivePasses = 3;

volatile std::int64_t g_sink = 0;

struct Routed {
  int array;
  std::int64_t local_block;
  int block_count;
  bool is_write;
  double arrival_ms;
};

/// Route every record with Simulator::route, outside any timed region.
/// The router is built uncached so it allocates no caches.
std::vector<Routed> route_all(const SimulationConfig& config,
                              const GeneratedTrace& trace, int* arrays) {
  SimulationConfig plain = config;
  plain.cached = false;
  plain.shards = 0;
  raidsim::Simulator router(plain, trace.geometry);
  *arrays = router.arrays();
  std::vector<Routed> routed;
  routed.reserve(trace.records.size());
  double arrival = 0.0;
  for (const TraceRecord& r : trace.records) {
    arrival += r.delta_ms;
    const auto [array, local] = router.route(r.block);
    routed.push_back({array, local, r.block_count, r.is_write, arrival});
  }
  return routed;
}

}  // namespace

double drive_trace_read_ns(const GeneratedTrace& trace) {
  // The workload's records as an in-memory binary trace image, so the
  // timed loop is the library reader alone (no file system).
  std::stringstream image;
  MemoryTrace source(trace);
  raidsim::BinaryTraceWriter::write(source, image);
  const std::string bytes = image.str();
  std::vector<double> samples;
  for (int pass = 0; pass < kDrivePasses; ++pass) {
    auto reader =
        raidsim::BinaryTraceReader::from_buffer(bytes.data(), bytes.size());
    std::int64_t sum = 0;
    const auto start = Clock::now();
    while (auto record = reader->next()) sum += record->block;
    const double s = seconds_since(start);
    g_sink = g_sink + sum;
    samples.push_back(s * 1e9 / static_cast<double>(trace.records.size()));
  }
  return median(samples);
}

LayoutDrive drive_layout(const SimulationConfig& config,
                         const GeneratedTrace& trace) {
  int arrays = 0;
  const std::vector<Routed> routed = route_all(config, trace, &arrays);
  std::vector<std::unique_ptr<raidsim::Layout>> layouts;
  for (int a = 0; a < arrays; ++a) {
    const int data_disks = std::min(
        config.array_data_disks,
        trace.geometry.data_disks - a * config.array_data_disks);
    layouts.push_back(raidsim::make_layout(
        config.array_config(data_disks, trace.geometry.blocks_per_disk)
            .layout));
  }
  LayoutDrive out;
  std::vector<double> samples;
  for (int pass = 0; pass < kDrivePasses; ++pass) {
    std::uint64_t extents = 0;
    const auto start = Clock::now();
    for (const Routed& r : routed) {
      const auto& layout = *layouts[static_cast<std::size_t>(r.array)];
      if (r.is_write) {
        for (const auto& update : layout.map_write(r.local_block,
                                                   r.block_count))
          extents += update.writes.size() + update.reconstruct_reads.size() +
                     (update.parity.valid() ? 1 : 0);
      } else {
        extents += layout.map_read(r.local_block, r.block_count).size();
      }
    }
    const double s = seconds_since(start);
    samples.push_back(s * 1e9 / static_cast<double>(routed.size()));
    out.extents_per_request =
        static_cast<double>(extents) / static_cast<double>(routed.size());
  }
  out.ns_per_request = median(samples);
  return out;
}

double drive_cache_op_ns(const SimulationConfig& config,
                         const GeneratedTrace& trace) {
  int arrays = 0;
  const std::vector<Routed> routed = route_all(config, trace, &arrays);
  const auto capacity = static_cast<std::size_t>(std::max<std::int64_t>(
      1, config.cache_bytes / config.disk_geometry.block_bytes()));
  const bool parity_org = config.organization == Organization::kRaid5 ||
                          config.organization == Organization::kRaid4 ||
                          config.organization == Organization::kParityStriping;
  std::vector<double> samples;
  for (int pass = 0; pass < kDrivePasses; ++pass) {
    std::vector<raidsim::NvCache> caches;
    caches.reserve(static_cast<std::size_t>(arrays));
    for (int a = 0; a < arrays; ++a)
      caches.emplace_back(capacity, config.retain_old_data && parity_org);
    std::uint64_t ops = 0;
    std::int64_t sum = 0;
    double next_destage = config.destage_period_ms;
    const auto start = Clock::now();
    for (const Routed& r : routed) {
      while (r.arrival_ms >= next_destage) {
        for (auto& cache : caches) {
          const auto dirty = cache.collect_dirty();
          for (auto b : dirty) cache.begin_destage(b);
          for (auto b : dirty) cache.end_destage(b);
          ops += 1 + 2 * dirty.size();
        }
        next_destage += config.destage_period_ms;
      }
      auto& cache = caches[static_cast<std::size_t>(r.array)];
      for (int i = 0; i < r.block_count; ++i) {
        const std::int64_t block = r.local_block + i;
        if (r.is_write) {
          sum += cache.write(block).accepted;
        } else if (!cache.read(block)) {
          sum += cache.insert_clean(block).inserted;
          ++ops;
        }
        ++ops;
      }
    }
    const double s = seconds_since(start);
    g_sink = g_sink + sum;
    samples.push_back(s * 1e9 / static_cast<double>(ops));
  }
  return median(samples);
}

namespace {

struct Churn {
  raidsim::EventQueue eq;
  raidsim::Rng rng{0x5eed};
  void fire() {
    eq.schedule_in(rng.exponential(10.0), [this] { fire(); });
  }
};

}  // namespace

double drive_event_churn_ns(std::size_t pending, std::uint64_t events) {
  std::vector<double> samples;
  for (int pass = 0; pass < kDrivePasses; ++pass) {
    Churn churn;
    for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i)
      churn.eq.schedule_in(churn.rng.exponential(10.0),
                           [c = &churn] { c->fire(); });
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < events; ++i) churn.eq.step();
    samples.push_back(seconds_since(start) * 1e9 /
                      static_cast<double>(events));
  }
  return median(samples);
}

}  // namespace replaybench
