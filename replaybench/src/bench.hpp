// Shared pieces of the replay benchmark: in-memory traces, host clocks,
// sample statistics, and the span log of a traced replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "trace/record.hpp"

namespace replaybench {

using raidsim::Metrics;
using raidsim::SimulationConfig;
using raidsim::TraceGeometry;
using raidsim::TraceRecord;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A workload trace generated into memory before any engine sees it, so
/// replay timing never includes synthetic generation.
struct GeneratedTrace {
  TraceGeometry geometry;
  std::vector<TraceRecord> records;
};

/// Generate `name` at `scale` and `speed` through raidsim::make_workload
/// with generator seed `seed` (0 = the preset's calibrated seed), then
/// keep the window of `window` of the records (a fraction in (0, 1])
/// that starts at record `offset` modulo their count, wrapping at the
/// end: a contiguous stretch of the same installation's requests.
GeneratedTrace generate_trace(const std::string& name, double scale,
                              double speed, std::uint64_t seed,
                              std::uint64_t offset, double window);

/// TraceStream over a GeneratedTrace; the engines receive only these
/// records. Not prevalidated, exactly like the synthetic stream it was
/// drained from, so the engines keep their per-record bounds check.
class MemoryTrace final : public raidsim::TraceStream {
 public:
  explicit MemoryTrace(const GeneratedTrace& trace) : trace_(trace) {}
  const TraceGeometry& geometry() const override { return trace_.geometry; }
  std::optional<TraceRecord> next() override {
    if (cursor_ == trace_.records.size()) return std::nullopt;
    return trace_.records[cursor_++];
  }
  std::uint64_t size_hint() const override {
    return trace_.records.size() - cursor_;
  }

 private:
  const GeneratedTrace& trace_;
  std::size_t cursor_ = 0;
};

/// Median and quartiles as Python's statistics.quantiles(n=4) computes
/// them (the "exclusive" method), so figures computed here and from the
/// result lines in Python agree.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);
inline double median(const std::vector<double>& values) {
  return quartiles(values).median;
}

/// Full-precision Metrics::to_json, the byte-identity fingerprint of a
/// replay.
std::string metrics_json(const Metrics& metrics);

/// Every number in a to_json dump, in order; non-numeric text must match
/// exactly. Returns false (and a reason) when the dumps differ beyond
/// `rel_tol` relative on any number.
bool json_numbers_close(const std::string& a, const std::string& b,
                        double rel_tol, std::string* why);

// ----------------------------------------------------------- span log

/// One host-time span recorded around a call into the library.
struct Span {
  std::uint64_t start_ns = 0;  // from the replay span's start
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;    // index of the enclosing span (0 = replay)
  std::uint32_t request = 0;   // record index for submit spans, else 0
  std::uint8_t name = 0;       // SpanName
};

enum SpanName : std::uint8_t {
  kSpanReplay = 0,
  kSpanSchedule = 1,  // EventQueue::schedule_at of the first arrival
  kSpanStep = 2,      // EventQueue::step
  kSpanSubmit = 3,    // Simulator::submit (inside an arrival's step)
  kSpanFinalize = 4,  // Simulator::drain_and_finalize
};

/// What one traced replay measured, derived from its spans.
struct TracedReplay {
  Metrics metrics;
  double wall_s = 0.0;             // replay span duration
  std::uint64_t submits = 0;
  double submit_s = 0.0;           // summed submit spans
  std::uint64_t steps = 0;         // step calls outside finalize
  double step_self_s = 0.0;        // step spans minus their submit children
  double finalize_s = 0.0;
  double unattributed_s = 0.0;     // replay span self time
  double pending_sum = 0.0;        // EventQueue::pending() after each step
  std::size_t pending_peak = 0;
};

/// Replay `trace` through a fresh classic Simulator driven from outside:
/// each arrival is scheduled on event_queue() the way run() pumps, its
/// event calls submit(), the loop calls EventQueue::step() until every
/// request has completed, then drain_and_finalize(). Spans are appended
/// to `spans` (cleared first); span 0 is the replay.
TracedReplay traced_replay(const SimulationConfig& config,
                           const GeneratedTrace& trace,
                           std::vector<Span>& spans);

/// Write spans as a binary log: "RBSP" magic, u32 version, u64 count,
/// then packed Span records. Returns false on an I/O error.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------- layer drives

/// Host cost per record of raidsim::BinaryTraceReader reading the trace
/// back from an in-memory binary image of it.
double drive_trace_read_ns(const GeneratedTrace& trace);

struct LayoutDrive {
  double ns_per_request = 0.0;
  double extents_per_request = 0.0;
};
/// Route each record to its array and call make_layout(...)->map_read or
/// map_write for it, as the controller does on the request path.
LayoutDrive drive_layout(const SimulationConfig& config,
                         const GeneratedTrace& trace);

/// NvCache read / insert_clean / write for every block of every record,
/// with a collect_dirty / begin_destage / end_destage pass per array each
/// destage period of trace time, at the configured capacity.
double drive_cache_op_ns(const SimulationConfig& config,
                         const GeneratedTrace& trace);

/// Hold `pending` events in an EventQueue and time step + reschedule of
/// `events` of them.
double drive_event_churn_ns(std::size_t pending, std::uint64_t events);

}  // namespace replaybench
