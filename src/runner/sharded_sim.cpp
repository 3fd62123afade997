#include "runner/sharded_sim.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "core/simulator.hpp"
#include "runner/sweep_runner.hpp"

namespace raidsim {

/// One trace record routed to a shard, fully resolved by the coordinator:
/// absolute arrival time (summed in global record order) and array-local
/// addressing, so the shard kernel never touches global routing state.
struct ShardedSimulator::ShardRecord {
  SimTime arrival = 0.0;
  std::int64_t local_block = 0;
  int local_array = 0;  // index into the owning shard's arrays
  int block_count = 1;
  bool is_write = false;
};

struct ShardedSimulator::Shard {
  Shard(const SimulationConfig& config, const TraceGeometry& geometry,
        int index, int count)
      : kernel(config, geometry, index, count, EngineKind::kSharded) {}

  /// Schedule the next record's arrival; past the last one, tell the
  /// kernel its input is done.
  void pump() {
    if (cursor >= records.size()) {
      kernel.finish_input();
      return;
    }
    kernel.eq().schedule_at(records[cursor].arrival, [this] {
      const ShardRecord& record = records[cursor++];
      kernel.dispatch(
          kernel.arrays()[static_cast<std::size_t>(record.local_array)],
          record.local_block, record.block_count, record.is_write);
      pump();
    });
  }

  EngineKernel kernel;
  Rng rng;
  std::vector<ShardRecord> records;
  std::size_t cursor = 0;  // next record to dispatch
};

ShardedSimulator::ShardedSimulator(const SimulationConfig& config,
                                   const TraceGeometry& geometry,
                                   std::uint64_t seed)
    : ReplayEngine(config, geometry, /*per_shard_artifacts=*/true) {
  shard_count_ = std::clamp(config_.shards, 1, arrays());
  if (config_.shard_threads > 0) {
    thread_count_ = std::min(config_.shard_threads, shard_count_);
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    thread_count_ = std::min(shard_count_, hw ? static_cast<int>(hw) : 1);
  }

  // Round-robin assignment: shard s owns global arrays s, s+S, s+2S, ...
  Rng root(seed);
  shards_.reserve(static_cast<std::size_t>(shard_count_));
  for (int s = 0; s < shard_count_; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(config_, geometry_, s, shard_count_));
    shards_.back()->rng = root.split();
    kernels_.push_back(&shards_.back()->kernel);
  }
}

ShardedSimulator::~ShardedSimulator() = default;

Rng& ShardedSimulator::shard_rng(int shard) {
  return shards_.at(static_cast<std::size_t>(shard))->rng;
}

void ShardedSimulator::load_records(TraceStream& trace) {
  // The coordinator resolves every record sequentially: arrival times are
  // a prefix sum over the GLOBAL record order, so the floating-point
  // arrival of each request is independent of the partition.
  const bool validate = !trace.prevalidated();
  if (const std::uint64_t hint = trace.size_hint()) {
    const std::size_t per_shard = static_cast<std::size_t>(
        hint / static_cast<std::uint64_t>(shard_count_) + 1);
    for (auto& shard : shards_) shard->records.reserve(per_shard);
  }
  double arrival = 0.0;
  while (auto rec = trace.next()) {
    if (validate) validate_record(*rec);
    arrival += rec->delta_ms;
    const auto [array, local_block] = route(rec->block);
    Shard& shard = *shards_[static_cast<std::size_t>(array % shard_count_)];
    ShardRecord out;
    out.arrival = arrival;
    out.local_block = local_block;
    out.local_array = array / shard_count_;
    out.block_count = rec->block_count;
    out.is_write = rec->is_write;
    shard.records.push_back(out);
    ++shard.kernel.arrays()[static_cast<std::size_t>(out.local_array)]
          .remaining;
    ++progress_total_;
  }
}

void ShardedSimulator::run_shard(Shard& shard) {
  // Debug-mode ownership window for the shard's op arena: between bind
  // and release, only this worker thread may touch the shard's op state
  // (construction before and teardown after the run happen on the main
  // thread, after a join, and pass the check while unbound). The guard
  // releases on the CancelledError unwind path too.
  struct OwnerGuard {
    OpArena& arena;
    explicit OwnerGuard(OpArena& a) : arena(a) { arena.bind_owner(); }
    ~OwnerGuard() { arena.release_owner(); }
  } owner_guard(shard.kernel.eq().op_arena());
  shard.kernel.start_sampler();
  shard.pump();
  drive(shard.kernel);
}

Metrics ShardedSimulator::run(TraceStream& trace) {
  begin_run(trace);
  load_records(trace);

  // Arrays the trace never touches quiesce immediately: their destage
  // timers would otherwise tick forever (the per-array discipline has no
  // global drain to stop them).
  for (auto& shard : shards_)
    for (auto& array : shard->kernel.arrays())
      if (array.remaining == 0) array.controller->shutdown();

  // First failure by shard order, the SweepRunner discipline.
  const auto errors =
      run_indexed(shards_.size(), thread_count_,
                  [this](std::size_t s) { run_shard(*shards_[s]); });
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);

  return finish();
}

Metrics run_sharded_simulation(const SimulationConfig& config,
                               TraceStream& trace, std::uint64_t seed,
                               const std::string& artifact_prefix,
                               const CancelToken* cancel) {
  ShardedSimulator simulator(config, trace.geometry(), seed);
  simulator.set_artifact_prefix(artifact_prefix);
  simulator.set_cancel_token(cancel);
  return simulator.run(trace);
}

std::unique_ptr<ReplayEngine> make_engine(const SimulationConfig& config,
                                          const TraceGeometry& geometry,
                                          std::uint64_t seed) {
  if (config.shards >= 1)
    return std::make_unique<ShardedSimulator>(config, geometry, seed);
  return std::make_unique<Simulator>(config, geometry);
}

}  // namespace raidsim
