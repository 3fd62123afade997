#include "core/engine_kernel.hpp"

#include <algorithm>

#include "array/cached_controller.hpp"
#include "array/uncached_controller.hpp"
#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"

namespace raidsim {

namespace {

/// Live registry counters of one engine. Updates are gated inside the
/// registry (one relaxed load when it is disabled), lock-free across
/// threads, and only ever happen at batch boundaries or run end, never on
/// the per-event hot path.
struct EngineCounters {
  Counter& runs;
  Counter& events;
  Gauge& sim_ms;
};

EngineCounters register_counters(const std::string& engine) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  const std::string name = "raidsim_engine_" + engine;
  return {registry.counter(name + "_runs_total",
                           "Completed " + engine + "-engine simulation runs"),
          registry.counter(name + "_events_total",
                           "Kernel events executed by the " + engine +
                               " engine"),
          registry.gauge(name + "_sim_ms_total",
                         "Simulated milliseconds advanced by the " + engine +
                             " engine (accumulates)")};
}

EngineCounters& counters(EngineKind kind) {
  static EngineCounters classic = register_counters("classic");
  static EngineCounters sharded = register_counters("sharded");
  return kind == EngineKind::kClassic ? classic : sharded;
}

}  // namespace

EngineKernel::EngineKernel(const SimulationConfig& config,
                           const TraceGeometry& geometry, int first,
                           int stride, EngineKind kind)
    : kind_(kind) {
  if (kTracingCompiledIn && config.obs.tracing)
    tracer_ = std::make_unique<Tracer>(
        Tracer::Config{config.obs.max_trace_events});
  const int n = config.array_data_disks;
  const int array_count = (geometry.data_disks + n - 1) / n;
  arrays_.reserve(static_cast<std::size_t>(
      std::max(0, (array_count - first + stride - 1) / stride)));
  std::size_t disks = 0;
  for (int a = first; a < array_count; a += stride) {
    const int data_disks = std::min(n, geometry.data_disks - a * n);
    auto array_cfg = config.array_config(data_disks, geometry.blocks_per_disk);
    array_cfg.tracer = tracer_.get();
    array_cfg.array_index = a;
    ArrayState state;
    state.global_index = a;
    if (config.cached) {
      state.controller = std::make_unique<CachedController>(
          eq_, array_cfg, config.cache_config());
    } else {
      state.controller = std::make_unique<UncachedController>(eq_, array_cfg);
    }
    disks += state.controller->disks().size();
    arrays_.push_back(std::move(state));
  }
  // Warm the kernel: slot table sized to the steady-state event
  // population (a few in-flight events per disk), so the hot path never
  // reallocates mid-run.
  eq_.reserve(8 * disks + 64);
  if (config.obs.sample_interval_ms > 0.0) {
    sampler_ = std::make_unique<TimeSeriesSampler>(
        config.obs.sample_interval_ms, config.obs.sampler_capacity);
    std::vector<int> topology;
    topology.reserve(arrays_.size());
    for (const auto& array : arrays_)
      topology.push_back(array.controller->layout().total_disks());
    sampler_->set_topology(std::move(topology));
  }
}

int EngineKernel::total_disks() const {
  int total = 0;
  for (const auto& array : arrays_)
    total += array.controller->layout().total_disks();
  return total;
}

void EngineKernel::complete(ArrayState& array, SimTime arrival,
                            std::uint64_t obs_id, bool is_write, SimTime t) {
  obs_end(tracer_.get(), obs_id, host_phase(is_write), array.global_index,
          -1, t);
  const double response = t - arrival;
  const std::size_t bucket = array.response_all.bucket_of(response);
  array.response_all.add(response, bucket);
  (is_write ? array.response_write : array.response_read)
      .add(response, bucket);
  ++completed_;
  --outstanding_;
  if (kind_ == EngineKind::kSharded && --array.remaining == 0)
    array.controller->shutdown();
  quiesce_if_idle();
}

void EngineKernel::finish_input() {
  input_done_ = true;
  quiesce_if_idle();
}

void EngineKernel::quiesce_if_idle() {
  if (!input_done_ || outstanding_ > 0) return;
  if (kind_ == EngineKind::kClassic)
    for (auto& array : arrays_) array.controller->shutdown();
  if (sampler_event_ != 0) {
    eq_.cancel(sampler_event_);
    sampler_event_ = 0;
  }
}

void EngineKernel::start_sampler() {
  if (sampler_) schedule_sample_tick();
}

void EngineKernel::schedule_sample_tick() {
  sampler_event_ = eq_.schedule_in(sampler_->interval_ms(), [this] {
    sampler_event_ = 0;
    take_sample();
    schedule_sample_tick();
  });
}

void EngineKernel::take_sample() {
  TelemetrySample sample;
  sample.t = eq_.now();
  sample.outstanding = outstanding_;
  sample.events_executed = eq_.executed();
  const auto disks = static_cast<std::size_t>(total_disks());
  sample.queue_depth.reserve(disks);
  sample.busy_ms.reserve(disks);
  sample.cache_blocks.reserve(arrays_.size());
  sample.cache_dirty.reserve(arrays_.size());
  for (const auto& array : arrays_) {
    for (const auto& disk : array.controller->disks()) {
      sample.queue_depth.push_back(
          static_cast<std::uint32_t>(disk->queue_length()));
      sample.busy_ms.push_back(disk->stats().busy_ms);
    }
    const NvCache* cache = array.controller->nv_cache();
    sample.cache_blocks.push_back(cache ? cache->size() : 0);
    sample.cache_dirty.push_back(cache ? cache->dirty_count() : 0);
  }
  sampler_->record(std::move(sample));
}

void EngineKernel::drive(const CancelToken* cancel,
                         const std::function<void()>& on_batch) {
  if (cancel == nullptr && !on_batch) {
    while (eq_.step()) {
    }
  } else {
    // Cancellation and progress share one batch boundary, so neither
    // taxes the per-event hot path.
    for (;;) {
      if (cancel != nullptr && cancel->cancelled())
        throw CancelledError(cancel->reason());
      const std::uint64_t ran = eq_.run(kCancelCheckBatch);
      publish_progress();
      if (on_batch) on_batch();
      if (ran < kCancelCheckBatch) break;
    }
  }
  if (outstanding_ != 0) throw StrandedRequestsError(outstanding_);
}

void EngineKernel::publish_progress() {
  const std::uint64_t events = eq_.executed();
  counters(kind_).events.add(events - metered_events_);
  metered_events_ = events;
  pub_events_.store(events, std::memory_order_relaxed);
  pub_done_.store(completed_, std::memory_order_relaxed);
  pub_clock_.store(eq_.now(), std::memory_order_relaxed);
}

ProgressSnapshot EngineKernel::published_progress() const {
  ProgressSnapshot snap;
  snap.events = pub_events_.load(std::memory_order_relaxed);
  snap.done = pub_done_.load(std::memory_order_relaxed);
  snap.sim_ms = pub_clock_.load(std::memory_order_relaxed);
  return snap;
}

Metrics EngineKernel::merge(std::span<EngineKernel* const> kernels) {
  Metrics metrics;
  for (EngineKernel* kernel : kernels) {
    metrics.elapsed_ms = std::max(metrics.elapsed_ms, kernel->eq_.now());
    metrics.events_executed += kernel->eq_.executed();
    kernel->publish_progress();
    metrics.arrays += static_cast<int>(kernel->arrays_.size());
    metrics.total_disks += kernel->total_disks();
  }
  double channel_util = 0.0;
  for (std::size_t a = 0; a < static_cast<std::size_t>(metrics.arrays); ++a) {
    const ArrayState& array =
        kernels[a % kernels.size()]->arrays_[a / kernels.size()];
    metrics.response_all.merge(array.response_all);
    metrics.response_read.merge(array.response_read);
    metrics.response_write.merge(array.response_write);
    metrics.response_per_array.push_back(array.response_all);
    metrics.requests += array.response_all.count();
    accumulate(metrics.controller, array.controller->stats());
    for (const auto& disk : array.controller->disks()) {
      const auto& stats = disk->stats();
      accumulate(metrics.disk_totals, stats);
      metrics.disk_accesses.push_back(stats.ops());
      metrics.disk_utilization.push_back(
          stats.utilization(metrics.elapsed_ms));
      metrics.disk_op_latency.push_back(disk->op_latency());
    }
    const double util =
        array.controller->channel().utilization(metrics.elapsed_ms);
    metrics.channel_utilization_per_array.push_back(util);
    channel_util += util;
    if (const auto* cache_stats = array.controller->cache_stats())
      accumulate(metrics.cache, *cache_stats);
  }
  metrics.channel_utilization =
      channel_util / static_cast<double>(metrics.arrays);

  EngineCounters& engine = counters(kernels.front()->kind_);
  engine.runs.add(1);
  engine.sim_ms.add(metrics.elapsed_ms);
  return metrics;
}

ReplayEngine::ReplayEngine(const SimulationConfig& config,
                           const TraceGeometry& geometry,
                           bool per_shard_artifacts)
    : config_(config),
      geometry_(geometry),
      per_shard_artifacts_(per_shard_artifacts) {
  config_.validate();
  blocks_per_array_ = static_cast<std::int64_t>(config_.array_data_disks) *
                      geometry_.blocks_per_disk;
  total_blocks_ = geometry_.total_blocks();
  const int n = config_.array_data_disks;
  array_count_ = (geometry_.data_disks + n - 1) / n;
}

void ReplayEngine::claim_run() {
  if (ran_) throw std::logic_error("engine: run() may only be called once");
  ran_ = true;
}

void ReplayEngine::begin_run(const TraceStream& trace) {
  claim_run();
  if (trace.geometry().data_disks != geometry_.data_disks ||
      trace.geometry().blocks_per_disk != geometry_.blocks_per_disk)
    throw std::invalid_argument("engine: trace geometry mismatch");
}

void ReplayEngine::validate_record(const TraceRecord& record) const {
  if (record.block_count < 1 || record.block < 0 ||
      record.block + record.block_count > total_blocks_)
    throw std::out_of_range("engine: request outside the database");
}

std::string ReplayEngine::artifact_path(const std::string& prefix,
                                        std::size_t k) const {
  return per_shard_artifacts_ ? prefix + "_shard" + std::to_string(k)
                              : prefix;
}

void ReplayEngine::drive(EngineKernel& kernel) {
  std::function<void()> on_batch;
  if (progress_) on_batch = [this] { emit_progress(false); };
  kernel.drive(cancel_, on_batch);
}

void ReplayEngine::emit_progress(bool final_frame) {
  // Shard kernels call in from their worker threads. try_lock keeps them
  // from queueing behind a slow hook; the final frame must not be
  // dropped, so it takes the lock for real (no kernel is running by then).
  if (final_frame) {
    progress_mu_.lock();
  } else if (!progress_mu_.try_lock()) {
    return;
  }
  ProgressSnapshot snap;
  snap.total = progress_total_;
  snap.final_frame = final_frame;
  // Monotone across emissions: the emit lock orders them, and published
  // values only grow. Events and completions add up over kernels; the
  // clock is the furthest one.
  for (const EngineKernel* kernel : kernels_) {
    const ProgressSnapshot part = kernel->published_progress();
    snap.events += part.events;
    snap.done += part.done;
    snap.sim_ms = std::max(snap.sim_ms, part.sim_ms);
  }
  progress_(snap);
  progress_mu_.unlock();
}

Metrics ReplayEngine::finish() {
  if (progress_) {
    for (EngineKernel* kernel : kernels_) kernel->publish_progress();
    emit_progress(true);
  }
  if (!artifact_prefix_.empty()) {
    for (std::size_t k = 0; k < kernels_.size(); ++k)
      if (const Tracer* tracer = kernels_[k]->tracer())
        export_run_artifacts(artifact_path(artifact_prefix_, k), *tracer,
                             kernels_[k]->sampler());
  }
  return EngineKernel::merge(kernels_);
}

void ReplayEngine::dump_flight(const std::string& prefix) const {
  for (std::size_t k = 0; k < kernels_.size(); ++k) {
    const Tracer* tracer = kernels_[k]->tracer();
    if (!tracer) continue;
    try {
      export_run_artifacts(artifact_path(prefix, k), *tracer, nullptr);
    } catch (...) {
      // Best effort: a failed dump must not mask the original error.
    }
  }
}

}  // namespace raidsim
