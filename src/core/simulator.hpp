#pragma once

#include <functional>

#include "core/engine_kernel.hpp"

namespace raidsim {

/// Top-level trace-driven simulator. Partitions the traced database's
/// original data disks into arrays of N (Section 3.2's equal-capacity
/// comparison), builds one controller + channel + disks per array, and
/// replays a trace through them on a single EngineKernel. The trace is
/// streamed, never materialized, and background machinery stops at
/// global quiescence (EngineKind::kClassic), which is what lets the run
/// also be driven from outside (submit + drain_and_finalize).
class Simulator final : public ReplayEngine {
 public:
  Simulator(const SimulationConfig& config, const TraceGeometry& geometry);
  ~Simulator() override;

  Metrics run(TraceStream& trace) override;

  /// External driving (closed-loop workloads, failure drills): submit one
  /// request at the current simulation time. The completion is recorded
  /// in the run metrics and `on_complete` (optional) fires with it.
  /// Drive the event queue via event_queue().step() and finish with
  /// drain_and_finalize() instead of run().
  void submit(const TraceRecord& record,
              std::function<void(SimTime)> on_complete = nullptr);

  /// End an externally driven run: stop periodic background processes,
  /// drain the remaining events, and build the metrics.
  Metrics drain_and_finalize();

  int total_disks() const { return kernel_.total_disks(); }
  const ArrayController& controller(int array) const {
    return *kernel_.arrays()[static_cast<std::size_t>(array)].controller;
  }
  /// Mutable access for failure injection and rebuild orchestration
  /// (fail_disk, RebuildProcess) before or during a run.
  ArrayController& mutable_controller(int array) {
    return *kernel_.arrays()[static_cast<std::size_t>(array)].controller;
  }
  /// The simulation clock/queue, for co-scheduling background processes
  /// (e.g. RebuildProcess) with the trace replay.
  EventQueue& event_queue() { return kernel_.eq(); }

  /// Request-lifecycle tracer, null unless config.obs.tracing.
  const Tracer* tracer() const { return kernel_.tracer(); }
  /// Periodic telemetry sampler, null unless config.obs.sample_interval_ms > 0.
  const TimeSeriesSampler* sampler() const { return kernel_.sampler(); }

 private:
  void pump(TraceStream& trace);
  template <typename... Then>
  void dispatch(const TraceRecord& record, Then... then) {
    auto [array, local_block] = route(record.block);
    kernel_.dispatch(kernel_.arrays()[static_cast<std::size_t>(array)],
                     local_block, record.block_count, record.is_write,
                     std::move(then)...);
  }

  EngineKernel kernel_;
  double arrival_time_ = 0.0;
  /// Cleared for streams whose records were bounds-checked at conversion
  /// time (TraceStream::prevalidated), removing the per-record check from
  /// the replay hot path. submit() always validates.
  bool validate_records_ = true;
};

/// Convenience: build a simulator for `config` and replay `trace`.
Metrics run_simulation(const SimulationConfig& config, TraceStream& trace);

}  // namespace raidsim
