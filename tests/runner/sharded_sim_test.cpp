// ShardedSimulator contract: one simulation partitioned by array must
// produce bit-identical merged metrics at ANY shard count >= 1 and ANY
// thread count -- the same determinism discipline SweepRunner holds
// across whole sweeps, applied inside a single run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "obs/tracer.hpp"
#include "runner/sharded_sim.hpp"
#include "runner/sweep_runner.hpp"
#include "trace/trace_io.hpp"

namespace raidsim {
namespace {

Metrics run_sharded(SimulationConfig config, const std::string& trace,
                    double scale, int shards, int threads) {
  config.shards = shards;
  config.shard_threads = threads;
  WorkloadOptions wo;
  wo.scale = scale;
  auto stream = make_workload(trace, wo);
  return run_sharded_simulation(config, *stream, wo.seed);
}

// Exact equality on every merged quantity, not near-equality: the engine
// promises the partition never perturbs a single bit.
void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.arrays, b.arrays);
  EXPECT_EQ(a.total_disks, b.total_disks);

  EXPECT_EQ(a.response_all.count(), b.response_all.count());
  EXPECT_EQ(a.response_all.mean(), b.response_all.mean());
  EXPECT_EQ(a.response_all.p50(), b.response_all.p50());
  EXPECT_EQ(a.response_all.p95(), b.response_all.p95());
  EXPECT_EQ(a.response_all.p99(), b.response_all.p99());
  EXPECT_EQ(a.response_all.max(), b.response_all.max());
  EXPECT_EQ(a.response_read.count(), b.response_read.count());
  EXPECT_EQ(a.response_read.mean(), b.response_read.mean());
  EXPECT_EQ(a.response_write.count(), b.response_write.count());
  EXPECT_EQ(a.response_write.mean(), b.response_write.mean());

  EXPECT_EQ(a.disk_accesses, b.disk_accesses);
  EXPECT_EQ(a.disk_utilization, b.disk_utilization);

  EXPECT_EQ(a.disk_totals.reads, b.disk_totals.reads);
  EXPECT_EQ(a.disk_totals.writes, b.disk_totals.writes);
  EXPECT_EQ(a.disk_totals.rmws, b.disk_totals.rmws);
  EXPECT_EQ(a.disk_totals.busy_ms, b.disk_totals.busy_ms);
  EXPECT_EQ(a.disk_totals.seek_ms, b.disk_totals.seek_ms);
  EXPECT_EQ(a.disk_totals.queue_ms, b.disk_totals.queue_ms);
  EXPECT_EQ(a.disk_totals.held_rotations, b.disk_totals.held_rotations);

  EXPECT_EQ(a.controller.read_requests, b.controller.read_requests);
  EXPECT_EQ(a.controller.write_requests, b.controller.write_requests);
  EXPECT_EQ(a.controller.read_request_hits, b.controller.read_request_hits);
  EXPECT_EQ(a.controller.write_request_hits, b.controller.write_request_hits);
  EXPECT_EQ(a.controller.destage_writes, b.controller.destage_writes);
  EXPECT_EQ(a.controller.destage_blocks, b.controller.destage_blocks);
  EXPECT_EQ(a.controller.sync_victim_writes, b.controller.sync_victim_writes);
  EXPECT_EQ(a.controller.write_stalls, b.controller.write_stalls);
  EXPECT_EQ(a.controller.parity_spools, b.controller.parity_spools);
  EXPECT_EQ(a.controller.parity_queue_peak, b.controller.parity_queue_peak);

  EXPECT_EQ(a.cache.read_hits, b.cache.read_hits);
  EXPECT_EQ(a.cache.read_misses, b.cache.read_misses);
  EXPECT_EQ(a.cache.write_hits, b.cache.write_hits);
  EXPECT_EQ(a.cache.write_misses, b.cache.write_misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.cache.old_captures, b.cache.old_captures);
  EXPECT_EQ(a.cache.stalls, b.cache.stalls);

  EXPECT_EQ(a.channel_utilization, b.channel_utilization);
  EXPECT_EQ(a.channel_utilization_per_array, b.channel_utilization_per_array);
}

// Cached RAID5 over trace1: 13 arrays at N=10, destage timers and cache
// state active -- the configuration most sensitive to any cross-array
// coupling the partition might introduce.
TEST(ShardedSim, CachedRaid5MetricsInvariantAcrossShardCounts) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.cached = true;
  config.cache_bytes = 4 << 20;

  const Metrics base = run_sharded(config, "trace1", 0.01, 1, 1);
  ASSERT_GT(base.requests, 0u);
  EXPECT_EQ(base.arrays, 13);

  for (int shards : {2, 4, 13}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_identical(base, run_sharded(config, "trace1", 0.01, shards, 1));
  }
}

TEST(ShardedSim, MetricsInvariantAcrossThreadCounts) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.cached = true;
  config.cache_bytes = 4 << 20;

  const Metrics one = run_sharded(config, "trace1", 0.01, 4, 1);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(one, run_sharded(config, "trace1", 0.01, 4, threads));
  }
}

// Uncached mirror over trace2 split into 5 small arrays: no cache, no
// destage timer -- exercises the pure replay/merge path.
TEST(ShardedSim, UncachedMirrorMetricsInvariant) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 2;

  const Metrics base = run_sharded(config, "trace2", 0.05, 1, 1);
  ASSERT_GT(base.requests, 0u);
  ASSERT_GT(base.arrays, 1);

  for (int shards : {2, base.arrays}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_identical(base, run_sharded(config, "trace2", 0.05, shards, 2));
  }
}

TEST(ShardedSim, ShardCountClampedToArrayCount) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.shards = 64;  // trace1 only has 13 arrays
  WorkloadOptions wo;
  wo.scale = 0.005;
  auto stream = make_workload("trace1", wo);

  ShardedSimulator sim(config, stream->geometry());
  EXPECT_EQ(sim.arrays(), 13);
  EXPECT_EQ(sim.shards(), 13);

  const Metrics m = sim.run(*stream);
  expect_identical(m, run_sharded(config, "trace1", 0.005, 13, 1));
}

TEST(ShardedSim, RouteMatchesArrayMajorBlockLayout) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.shards = 4;
  WorkloadOptions wo;
  wo.scale = 0.005;
  auto stream = make_workload("trace1", wo);
  ShardedSimulator sim(config, stream->geometry());

  const std::int64_t per_array =
      stream->geometry().blocks_per_disk * config.array_data_disks;
  EXPECT_EQ(sim.route(0), (std::pair<int, std::int64_t>{0, 0}));
  EXPECT_EQ(sim.route(per_array - 1),
            (std::pair<int, std::int64_t>{0, per_array - 1}));
  EXPECT_EQ(sim.route(per_array), (std::pair<int, std::int64_t>{1, 0}));
  EXPECT_EQ(sim.route(3 * per_array + 7),
            (std::pair<int, std::int64_t>{3, 7}));
}

TEST(ShardedSim, ShardRngStreamsAreSeedDeterministic) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.shards = 4;
  WorkloadOptions wo;
  wo.scale = 0.005;
  auto stream = make_workload("trace1", wo);

  ShardedSimulator a(config, stream->geometry(), 1234);
  ShardedSimulator b(config, stream->geometry(), 1234);
  ShardedSimulator c(config, stream->geometry(), 5678);
  bool any_differs = false;
  for (int s = 0; s < a.shards(); ++s) {
    const auto x = a.shard_rng(s).next_u64();
    EXPECT_EQ(x, b.shard_rng(s).next_u64());
    if (x != c.shard_rng(s).next_u64()) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ShardedSim, RunIsSingleShot) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 5;
  config.shards = 1;
  WorkloadOptions wo;
  wo.scale = 0.01;
  auto stream = make_workload("trace2", wo);
  ShardedSimulator sim(config, stream->geometry());
  sim.run(*stream);
  auto again = make_workload("trace2", wo);
  EXPECT_THROW(sim.run(*again), std::logic_error);
}

TEST(ShardedSim, GeometryMismatchRejected) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 5;
  config.shards = 2;
  WorkloadOptions wo;
  wo.scale = 0.01;
  auto trace2 = make_workload("trace2", wo);
  ShardedSimulator sim(config, trace2->geometry());
  auto trace1 = make_workload("trace1", wo);
  EXPECT_THROW(sim.run(*trace1), std::invalid_argument);
}

// A prevalidated binary trace must replay to the same merged metrics as
// the synthetic stream it was serialized from: skipping the per-record
// bounds check is a pure fast path, never a behaviour change.
TEST(ShardedSim, PrevalidatedBinaryTraceMatchesSyntheticStream) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.cached = true;
  config.cache_bytes = 4 << 20;
  config.shards = 2;
  WorkloadOptions wo;
  wo.scale = 0.005;

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  {
    auto stream = make_workload("trace1", wo);
    BinaryTraceWriter::write(*stream, buffer);
  }
  const std::string bytes = buffer.str();
  auto binary = BinaryTraceReader::from_buffer(bytes.data(), bytes.size());
  ASSERT_TRUE(binary->prevalidated());
  const Metrics from_binary =
      run_sharded_simulation(config, *binary, wo.seed);

  auto synthetic = make_workload("trace1", wo);
  const Metrics from_synthetic =
      run_sharded_simulation(config, *synthetic, wo.seed);
  expect_identical(from_binary, from_synthetic);
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream out;
  m.to_json(out);
  return out.str();
}

// run_sweep_job dispatches on config.shards: 0 keeps the classic engine,
// >= 1 selects the sharded engine. Uncached, the two engines are the same
// per-array kernel and merge, so they agree exactly.
TEST(ShardedSim, SweepJobDispatchesOnShardConfig) {
  SweepJob classic;
  classic.config.organization = Organization::kMirror;
  classic.config.array_data_disks = 5;
  classic.trace = "trace2";
  classic.workload.scale = 0.01;

  SweepJob sharded = classic;
  sharded.config.shards = 2;

  const Metrics a = run_sweep_job(classic);
  const Metrics b = run_sweep_job(sharded);
  ASSERT_GT(a.requests, 0u);
  EXPECT_EQ(metrics_json(a), metrics_json(b));
  expect_identical(a, b);
}

// Without a cache there is no background machinery for the shutdown rule
// to stop, so the classic engine (one kernel over every array) and the
// sharded engine at any shard count replay identical per-array event
// streams and merge them in the same global array order: every
// organization must agree bit for bit, not just to rounding.
TEST(ShardedSim, UncachedClassicAndShardedAreExact) {
  for (Organization org :
       {Organization::kBase, Organization::kMirror, Organization::kRaid5,
        Organization::kParityStriping, Organization::kRaid10}) {
    SCOPED_TRACE(to_string(org));
    SimulationConfig config;
    config.organization = org;
    config.array_data_disks = 4;  // trace1's 130 disks: 33 arrays, 1 ragged
    WorkloadOptions wo;
    wo.scale = 0.005;
    auto stream = make_workload("trace1", wo);
    const Metrics classic = run_simulation(config, *stream);
    ASSERT_GT(classic.requests, 0u);
    ASSERT_GT(classic.arrays, 4);
    for (int shards : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const Metrics sharded = run_sharded(config, "trace1", wo.scale, shards, 2);
      EXPECT_EQ(metrics_json(classic), metrics_json(sharded));
      expect_identical(classic, sharded);
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Per-shard trace/timeseries artifacts must also be byte-identical at a
// fixed shard count regardless of thread count.
TEST(ShardedSim, TraceExportsByteIdenticalAcrossThreadCounts) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";

  const std::string dir = ::testing::TempDir();
  auto run_with = [&](int threads, const std::string& prefix) {
    SweepJob job;
    job.config.organization = Organization::kRaid5;
    job.config.array_data_disks = 10;
    job.config.cached = true;
    job.config.cache_bytes = 4 << 20;
    job.config.shards = 4;
    job.config.shard_threads = threads;
    job.trace = "trace1";
    job.workload.scale = 0.005;
    job.trace_out = dir + prefix;
    job.sample_interval_ms = 50.0;
    return run_sweep_job(job);
  };

  const Metrics a = run_with(1, "sharded_t1");
  const Metrics b = run_with(4, "sharded_t4");
  EXPECT_EQ(a.requests, b.requests);

  for (int shard = 0; shard < 4; ++shard) {
    const std::string suffix = "_shard" + std::to_string(shard);
    for (const char* kind : {".trace.json", ".timeseries.csv"}) {
      SCOPED_TRACE(suffix + kind);
      const std::string one = slurp(dir + "sharded_t1" + suffix + kind);
      const std::string four = slurp(dir + "sharded_t4" + suffix + kind);
      EXPECT_FALSE(one.empty());
      EXPECT_EQ(one, four);
      std::remove((dir + "sharded_t1" + suffix + kind).c_str());
      std::remove((dir + "sharded_t4" + suffix + kind).c_str());
    }
  }
}

}  // namespace
}  // namespace raidsim
