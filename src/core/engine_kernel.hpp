#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "sim/cancellation.hpp"
#include "sim/event_queue.hpp"
#include "sim/progress.hpp"
#include "trace/record.hpp"

namespace raidsim {

/// Thrown out of run() when the event queue drains with host requests
/// still outstanding: the metrics would silently undercount.
class StrandedRequestsError : public std::runtime_error {
 public:
  explicit StrandedRequestsError(std::uint64_t outstanding)
      : std::runtime_error("simulation stranded " +
                           std::to_string(outstanding) +
                           " outstanding request(s): the event queue "
                           "drained before they completed"),
        outstanding_(outstanding) {}

  std::uint64_t outstanding() const { return outstanding_; }

 private:
  std::uint64_t outstanding_;
};

/// Which engine owns a kernel: selects its registry counters and the rule
/// that stops background machinery (destage timers, the sampler).
///  * kClassic: every array stops at global quiescence (input finished,
///    nothing outstanding) -- the only rule an external driver, which
///    cannot know an array's last request, can honour.
///  * kSharded: each array stops when ITS OWN last routed request
///    completes (ArrayState::remaining hits zero), so its trajectory
///    depends on its own request stream only, never on the partition.
enum class EngineKind { kClassic, kSharded };

/// One event kernel over a set of arrays that share nothing (Section
/// 3.2: each array has its own controller, channel and disks). Owns the
/// EventQueue, Tracer and TimeSeriesSampler its arrays run on, records
/// host responses per array, drives the queue in cancel/progress batches,
/// and merges kernels into run Metrics in global array order. The classic
/// Simulator is the one-kernel case; ShardedSimulator runs one per shard.
class EngineKernel {
 public:
  struct ArrayState {
    std::unique_ptr<ArrayController> controller;
    int global_index = 0;
    /// Responses in this array's completion order; merged into the run
    /// totals in global array order, whatever the packing into kernels.
    LatencyRecorder response_all;
    LatencyRecorder response_read;
    LatencyRecorder response_write;
    std::uint64_t remaining = 0;  // kSharded: routed, not yet completed
  };

  /// Events between cancellation checks and progress frames: a deadline
  /// lands within milliseconds, and the poll never shows in a profile.
  static constexpr std::uint64_t kCancelCheckBatch = 4096;

  /// Builds the controllers of global arrays first, first + stride, ...
  /// (the round-robin share of kernel `first` out of `stride`).
  EngineKernel(const SimulationConfig& config, const TraceGeometry& geometry,
               int first, int stride, EngineKind kind);
  // Pending callbacks hold `this` and ArrayState addresses.
  EngineKernel(const EngineKernel&) = delete;
  EngineKernel& operator=(const EngineKernel&) = delete;

  EventQueue& eq() { return eq_; }
  std::vector<ArrayState>& arrays() { return arrays_; }
  const std::vector<ArrayState>& arrays() const { return arrays_; }
  int total_disks() const;
  const Tracer* tracer() const { return tracer_.get(); }
  const TimeSeriesSampler* sampler() const { return sampler_.get(); }

  /// Arm the periodic telemetry tick (no-op without a sampler).
  void start_sampler();

  /// Submit one host request to `array` at the current time. Its
  /// response is recorded on completion, then `then(t)` runs (external
  /// drivers use it to chain work). The completion closure stays inside
  /// Completion's inline buffer: no per-request heap allocation.
  struct NoContinuation {
    void operator()(SimTime) const {}
  };
  template <typename Then = NoContinuation>
  void dispatch(ArrayState& array, std::int64_t local_block, int block_count,
                bool is_write, Then then = {}) {
    ArrayRequest request;
    request.logical_block = local_block;
    request.block_count = block_count;
    request.is_write = is_write;
    const SimTime arrival = eq_.now();
    request.obs_id = obs_begin(tracer_.get(), host_phase(is_write),
                               array.global_index, -1, arrival);
    ++outstanding_;
    auto done = [this, &array, arrival, obs_id = request.obs_id, is_write,
                 then = std::move(then)](SimTime t) {
      complete(array, arrival, obs_id, is_write, t);
      then(t);
    };
    static_assert(sizeof(done) <= Completion::kInlineBytes,
                  "host completion closure must not spill to the heap");
    array.controller->submit(request, std::move(done));
  }

  /// No further requests will be dispatched (stops idle machinery).
  void finish_input();

  /// Run the queue dry; with a token or callback, in kCancelCheckBatch
  /// batches that poll the token (CancelledError), publish progress and
  /// call `on_batch`. StrandedRequestsError if requests outlive the queue.
  void drive(const CancelToken* cancel, const std::function<void()>& on_batch);

  /// Owning thread: publish events/clock/done for readers on any thread
  /// and feed the registry the event delta.
  void publish_progress();
  ProgressSnapshot published_progress() const;

  /// Run metrics of kernels that together own arrays 0..n-1, kernel k
  /// owning arrays k, k + K, ... (K = kernels.size()). Every accumulation
  /// runs in global array order, so the result is partition-invariant.
  static Metrics merge(std::span<EngineKernel* const> kernels);

 private:
  static ObsPhase host_phase(bool is_write) {
    return is_write ? ObsPhase::kHostWrite : ObsPhase::kHostRead;
  }
  void complete(ArrayState& array, SimTime arrival, std::uint64_t obs_id,
                bool is_write, SimTime t);
  void quiesce_if_idle();
  void schedule_sample_tick();
  void take_sample();

  EventQueue eq_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  EventId sampler_event_ = 0;
  std::vector<ArrayState> arrays_;
  EngineKind kind_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t completed_ = 0;
  bool input_done_ = false;

  // Published progress (relaxed) and the events fed to the registry.
  std::atomic<std::uint64_t> pub_events_{0};
  std::atomic<std::uint64_t> pub_done_{0};
  std::atomic<double> pub_clock_{0.0};
  std::uint64_t metered_events_ = 0;
};

/// What both engines share: configuration, routing, the single-shot run
/// discipline, the observation hooks and the end of a run over the
/// engine's kernels. Callers that only replay a trace (the sweep runner,
/// the CLI) drive either engine through it (make_engine).
class ReplayEngine {
 public:
  virtual ~ReplayEngine() = default;
  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Replay the whole trace and return aggregate metrics. May be called
  /// once per instance.
  virtual Metrics run(TraceStream& trace) = 0;

  /// Attach a cooperative cancellation token, polled every
  /// EngineKernel::kCancelCheckBatch events; run() unwinds with
  /// CancelledError when it fires. Must be set before run() and outlive
  /// the run.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Attach a progress observer fired every kCancelCheckBatch events
  /// (plus one final snapshot after the run completes). Must be set
  /// before run(). Passive: hooked runs stay bit-identical to unhooked
  /// ones.
  void set_progress_hook(ProgressFn hook) { progress_ = std::move(hook); }

  /// Non-empty: after run(), export the trace artifacts under `prefix`
  /// (requires config.obs.tracing; sample_interval_ms > 0 adds the
  /// timeseries). A sharded engine writes `<prefix>_shard<k>` per shard.
  void set_artifact_prefix(std::string prefix) {
    artifact_prefix_ = std::move(prefix);
  }

  /// Flight-recorder dump: write the tracing ring(s) under `prefix`
  /// (named as for set_artifact_prefix) right now, best effort. Used
  /// when a recorded run unwinds, so the artifact exists even though
  /// run() threw.
  void dump_flight(const std::string& prefix) const;

  int arrays() const { return array_count_; }

  /// Map a database block to (array index, array-local logical block).
  std::pair<int, std::int64_t> route(std::int64_t db_block) const {
    // Arrays tile the database in blocks_per_array_-sized runs, and the
    // array-local block is simply the remainder: with disk = block / bpd,
    // local_disk = disk % N, offset = block % bpd,
    //   local_disk * bpd + offset == block - (block / (N * bpd)) * N * bpd.
    const std::int64_t array = db_block / blocks_per_array_;
    return {static_cast<int>(array), db_block - array * blocks_per_array_};
  }

 protected:
  /// `per_shard_artifacts`: suffix artifact paths with `_shard<k>`.
  ReplayEngine(const SimulationConfig& config, const TraceGeometry& geometry,
               bool per_shard_artifacts);

  /// Enforce the single-shot discipline (std::logic_error on reuse).
  void claim_run();
  /// claim_run() plus the trace geometry check (std::invalid_argument).
  void begin_run(const TraceStream& trace);
  /// Bounds check on one record (std::out_of_range).
  void validate_record(const TraceRecord& record) const;
  /// EngineKernel::drive with this engine's cancel token and progress
  /// hook. Safe to call from several shard threads at once.
  void drive(EngineKernel& kernel);
  /// End of a completed run: final progress frame, artifacts, merge.
  Metrics finish();

  SimulationConfig config_;
  TraceGeometry geometry_;
  /// The engine's kernels in shard order (EngineKernel::merge's order).
  std::vector<EngineKernel*> kernels_;
  std::uint64_t progress_total_ = 0;  // ProgressSnapshot::total

 private:
  std::string artifact_path(const std::string& prefix, std::size_t k) const;
  void emit_progress(bool final_frame);

  // Routing state precomputed from config + geometry so the per-request
  // path does a single divide instead of two divide/modulo pairs.
  std::int64_t blocks_per_array_ = 1;
  std::int64_t total_blocks_ = 0;
  int array_count_ = 0;
  bool per_shard_artifacts_;
  bool ran_ = false;
  const CancelToken* cancel_ = nullptr;
  ProgressFn progress_;
  std::mutex progress_mu_;
  std::string artifact_prefix_;
};

}  // namespace raidsim
