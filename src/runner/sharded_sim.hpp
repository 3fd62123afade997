#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_kernel.hpp"
#include "util/rng.hpp"

namespace raidsim {

/// Intra-run sharded execution engine: ONE simulation, partitioned by
/// array into independent event kernels run on a thread pool.
///
/// Arrays in this simulator share no state -- each owns its disks,
/// channel, buffer pool, and NV cache, and the host merely routes each
/// request to one array -- so the run can be split by array without
/// approximation. Shard s owns arrays {a : a % shards == s} (round-robin,
/// which balances load when the trace skews toward low-numbered arrays),
/// and each shard runs its own EngineKernel (EventQueue, Tracer,
/// TimeSeriesSampler) and Rng stream.
///
/// Determinism contract: merged metrics are bit-identical at ANY shard
/// count >= 1 and ANY thread count (asserted by
/// tests/runner/sharded_sim_test.cpp, the same discipline SweepRunner
/// holds across sweeps). The ingredients:
///
///  * The coordinator materializes the whole trace up front on one
///    thread, accumulating arrival times in global record order, so
///    floating-point arrival sums never depend on the partition.
///  * Per-array response recorders (EngineKernel::ArrayState), merged
///    into the run totals in global array order by EngineKernel::merge,
///    so summation order is fixed.
///  * Per-array shutdown (EngineKind::kSharded): an array's background
///    machinery (destage timer) stops when ITS OWN last response
///    completes, never when some other array finishes -- so an array's
///    full event trajectory is a function of its own request stream only.
///  * elapsed_ms is the max over shard clocks, and utilizations are
///    computed against that global elapsed time during the merge.
///
/// The classic Simulator is the one-kernel case of the same kernel and
/// merge, so on UNCACHED configurations (no background machinery to stop)
/// both engines produce byte-identical metrics. Cached runs differ only
/// through the shutdown rule: the classic engine stops every array's
/// destage timer at global quiescence, which couples arrays through the
/// shutdown time. docs/performance.md discusses the difference.
///
/// events_executed is the sum over shards, invariant to the partition
/// when the telemetry sampler is off (per-shard sampler timers tick
/// independently, so sampled runs trade that one invariance for
/// per-shard timeseries).
class ShardedSimulator final : public ReplayEngine {
 public:
  /// `seed` derives the per-shard Rng streams (split deterministically in
  /// shard order). The replay path itself consumes no randomness; the
  /// streams give stochastic co-processes (fault injection, background
  /// scrubs) a shard-stable generator to draw from.
  ShardedSimulator(const SimulationConfig& config,
                   const TraceGeometry& geometry, std::uint64_t seed = 0);
  ~ShardedSimulator() override;

  /// Replay the whole trace across the shard pool and return merged
  /// metrics. May be called once per instance. The cancel token is
  /// shared by every shard kernel; when it fires the whole run unwinds
  /// with CancelledError after all shard workers have stopped. Per-shard
  /// artifacts are byte-identical at any thread count. Progress frames
  /// come from whichever shard crosses a batch boundary while the emit
  /// lock is free (a congested hook is skipped, never queued).
  Metrics run(TraceStream& trace) override;

  int shards() const { return shard_count_; }
  /// Worker threads the pool will use (resolved from config).
  int threads() const { return thread_count_; }

  /// The shard's deterministic random stream (derived from the seed).
  Rng& shard_rng(int shard);

 private:
  struct Shard;
  struct ShardRecord;

  void load_records(TraceStream& trace);
  void run_shard(Shard& shard);

  int shard_count_ = 1;
  int thread_count_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Convenience: build a sharded simulator for `config` (config.shards
/// clamped to at least 1) and replay `trace`. A non-null `cancel` makes
/// the run cooperatively cancellable (CancelledError).
Metrics run_sharded_simulation(const SimulationConfig& config,
                               TraceStream& trace, std::uint64_t seed = 0,
                               const std::string& artifact_prefix = "",
                               const CancelToken* cancel = nullptr);

/// The engine `config` selects: ShardedSimulator when config.shards >= 1
/// (seeded with `seed`), the classic Simulator when it is 0.
std::unique_ptr<ReplayEngine> make_engine(const SimulationConfig& config,
                                          const TraceGeometry& geometry,
                                          std::uint64_t seed = 0);

}  // namespace raidsim
