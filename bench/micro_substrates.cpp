// Micro-benchmarks (google-benchmark) for the simulator substrates:
// event queue, disk service model and deep-queue dispatch, NV cache
// (mixed ops, index probes, eviction churn), Fenwick tree, LRU stack,
// trace generation, trace loading (text parse vs binary walk), the
// latency recorder (per-sample add, sharded merge + tail quantiles) and
// the op-state arena's allocate/copy/release churn.
#include <benchmark/benchmark.h>

#include <array>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/nv_cache.hpp"
#include "core/workloads.hpp"
#include "disk/disk.hpp"
#include "sim/event_queue.hpp"
#include "trace/lru_stack.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/arena.hpp"
#include "util/fenwick.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace raidsim;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < n; ++i)
      eq.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    eq.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_DiskRandomReads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DiskGeometry geo;
  const SeekModel seek = SeekModel::calibrate(SeekSpec{});
  Rng rng(1);
  for (auto _ : state) {
    EventQueue eq;
    Disk disk(eq, geo, &seek, 0);
    for (int i = 0; i < n; ++i) {
      DiskRequest req;
      req.kind = DiskOpKind::kRead;
      req.start_block =
          static_cast<std::int64_t>(rng.uniform_u64(
              static_cast<std::uint64_t>(geo.total_blocks())));
      disk.submit(std::move(req));
    }
    eq.run();
    benchmark::DoNotOptimize(disk.stats().busy_ms);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DiskRandomReads)->Arg(4096);

/// Closed loop at a fixed FIFO queue depth: every completion submits a
/// replacement, so the disk always holds `depth` queued requests spread
/// over the three priority classes. Per-op cost here is dispatch
/// (queue pick) plus the service model; the pick is O(1) at any depth.
void BM_DiskDeepQueue(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  constexpr int kOps = 8192;
  DiskGeometry geo;
  const SeekModel seek = SeekModel::calibrate(SeekSpec{});
  Rng rng(1);
  for (auto _ : state) {
    EventQueue eq;
    Disk disk(eq, geo, &seek, 0, DiskScheduling::kFifo);
    int submitted = 0;
    std::function<void()> submit = [&] {
      if (submitted == kOps) return;
      ++submitted;
      DiskRequest req;
      req.kind = DiskOpKind::kRead;
      req.priority = static_cast<DiskPriority>(rng.uniform_u64(3));
      req.start_block = static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(geo.total_blocks())));
      req.on_complete = [&submit](SimTime) { submit(); };
      disk.submit(std::move(req));
    };
    for (int i = 0; i < depth + 1; ++i) submit();
    eq.run();
    benchmark::DoNotOptimize(disk.stats().busy_ms);
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_DiskDeepQueue)->Arg(8)->Arg(64)->Arg(512);

void BM_NvCacheMixedOps(benchmark::State& state) {
  Rng rng(2);
  NvCache cache(4096, true);
  for (auto _ : state) {
    const std::int64_t block = rng.uniform_i64(0, 20000);
    if (rng.bernoulli(0.3)) {
      benchmark::DoNotOptimize(cache.write(block));
    } else if (!cache.read(block)) {
      benchmark::DoNotOptimize(cache.insert_clean(block));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvCacheMixedOps);

// Pure index probes on a full cache (every lookup hits): isolates the
// open-addressing find + LRU touch from eviction machinery.
void BM_NvCacheIndexProbe(benchmark::State& state) {
  const std::int64_t capacity = state.range(0);
  NvCache cache(static_cast<std::size_t>(capacity), false);
  for (std::int64_t b = 0; b < capacity; ++b) cache.insert_clean(b);
  Rng rng(5);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.read(rng.uniform_i64(0, capacity - 1)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvCacheIndexProbe)->Arg(1024)->Arg(65536);

// Insert into a full cache: every op evicts the LRU entry (index erase
// with backward-shift deletion + slab recycle + fresh insert).
void BM_NvCacheInsertEvict(benchmark::State& state) {
  const std::int64_t capacity = state.range(0);
  NvCache cache(static_cast<std::size_t>(capacity), false);
  std::int64_t next = 0;
  for (; next < capacity; ++next) cache.insert_clean(next);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.insert_clean(next++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvCacheInsertEvict)->Arg(1024)->Arg(65536);

// Destage sweep over a half-dirty cache: collect_dirty walks the
// intrusive LRU list, then each block takes the begin/end flag cycle.
void BM_NvCacheDestageSweep(benchmark::State& state) {
  const std::int64_t capacity = 16384;
  NvCache cache(static_cast<std::size_t>(capacity), false);
  for (std::int64_t b = 0; b < capacity; ++b) cache.insert_clean(b);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::int64_t b = 0; b < capacity; b += 2) cache.write(b);
    state.ResumeTiming();
    const auto dirty = cache.collect_dirty();
    for (const std::int64_t b : dirty) {
      cache.begin_destage(b);
      cache.end_destage(b);
    }
    benchmark::DoNotOptimize(dirty.size());
  }
  state.SetItemsProcessed(state.iterations() * (capacity / 2));
}
BENCHMARK(BM_NvCacheDestageSweep);

const std::string& trace_text_image() {
  static const std::string image = [] {
    TraceProfile profile = TraceProfile::trace2();
    profile.requests = 20000;
    SyntheticTrace trace(profile);
    std::ostringstream out;
    TraceWriter::write(trace, out);
    return out.str();
  }();
  return image;
}

const std::string& trace_binary_image() {
  static const std::string image = [] {
    TraceProfile profile = TraceProfile::trace2();
    profile.requests = 20000;
    SyntheticTrace trace(profile);
    std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
    BinaryTraceWriter::write(trace, out);
    return out.str();
  }();
  return image;
}

void BM_TraceLoadText(benchmark::State& state) {
  const std::string& image = trace_text_image();
  for (auto _ : state) {
    TraceReader reader(std::make_unique<std::istringstream>(image));
    std::int64_t sum = 0;
    while (auto rec = reader.next()) sum += rec->block;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TraceLoadText);

void BM_TraceLoadBinary(benchmark::State& state) {
  const std::string& image = trace_binary_image();
  for (auto _ : state) {
    auto reader =
        BinaryTraceReader::from_buffer(image.data(), image.size());
    std::int64_t sum = 0;
    while (auto rec = reader->next()) sum += rec->block;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TraceLoadBinary);

void BM_FenwickAddSelect(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  FenwickTree tree(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; i += 2) tree.add(i, 1);
  for (auto _ : state) {
    const auto i = static_cast<std::size_t>(rng.uniform_u64(n));
    tree.add(i, 1);
    benchmark::DoNotOptimize(
        tree.select(1 + static_cast<std::int64_t>(
                            rng.uniform_u64(
                                static_cast<std::uint64_t>(tree.total())))));
    tree.add(i, -1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FenwickAddSelect);

// Generator-shaped: a presized stack of ~300K live blocks (trace 1 at
// scale 0.1 holds about 317K), probed at trace 1's read-reuse depths.
void BM_LruStackTouchAtDepth(benchmark::State& state) {
  constexpr std::int64_t kLive = 300000;
  LruStack stack(4 * kLive, kLive);
  for (std::int64_t b = 0; b < kLive; ++b) stack.touch(b);
  const LognormalMixture depths = TraceProfile::trace1().read_depth;
  Rng rng(4);
  for (auto _ : state) {
    const auto depth =
        static_cast<std::size_t>(depths.sample(rng)) % stack.size();
    const auto block = stack.at_depth(depth);
    stack.touch(*block);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStackTouchAtDepth);

void BM_SyntheticTraceGeneration(benchmark::State& state,
                                 const TraceProfile& profile) {
  for (auto _ : state) {
    SyntheticTrace trace(profile);
    std::uint64_t sum = 0;
    while (auto rec = trace.next()) sum += static_cast<std::uint64_t>(rec->block);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(profile.requests));
}

TraceProfile trace2_20k() {
  TraceProfile profile = TraceProfile::trace2();
  profile.requests = 20000;
  return profile;
}
BENCHMARK_CAPTURE(BM_SyntheticTraceGeneration, trace2_20k, trace2_20k());
BENCHMARK_CAPTURE(BM_SyntheticTraceGeneration, trace1_scale0_1,
                  workload_profile("trace1", {.scale = 0.1}))
    ->Unit(benchmark::kMillisecond);

/// Every disk op and every host response feeds a log-bucketed
/// LatencyRecorder; the add is on the per-event path.
void BM_LatencyRecorderAdd(benchmark::State& state) {
  constexpr int kShards = 16;
  std::vector<LatencyRecorder> shards(kShards);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    // Log-uniform-ish latencies spanning sub-ms to tens of seconds: the
    // recorder's whole bucket range stays hot.
    const double ms =
        static_cast<double>((lcg >> 44) + 1) / 16.0;  // ~0.06..65536 ms
    shards[i++ & (kShards - 1)].add(ms);
  }
  benchmark::DoNotOptimize(shards.data());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyRecorderAdd);

/// The sharded engine's end of run: merge 16 per-shard recorders, then
/// the p50/p95/p99/p999 tail pass.
void BM_LatencyRecorderMergeQuantiles(benchmark::State& state) {
  constexpr int kShards = 16;
  std::vector<LatencyRecorder> shards(kShards);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < 200'000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const double ms = static_cast<double>((lcg >> 44) + 1) / 16.0;
    shards[i & (kShards - 1)].add(ms);
  }
  for (auto _ : state) {
    LatencyRecorder merged;
    for (const auto& s : shards) merged.merge(s);
    benchmark::DoNotOptimize(merged.p50() + merged.p95() + merged.p99() +
                             merged.p999());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyRecorderMergeQuantiles);

/// Op-state churn: keep a window of 256 live ops; each step allocates
/// one, fans its handle out the way an RMW chain copies its completion
/// into barrier/gate callbacks, then retires a pseudo-random window
/// slot. Sized for the 512-byte class (the in-flight disk op class).
void BM_OpArenaChurn(benchmark::State& state) {
  constexpr int kOpWindow = 256;
  OpArena arena;
  std::vector<OpRef<std::array<char, 480>>> window(kOpWindow);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto op = make_op<std::array<char, 480>>(arena);
    (*op)[0] = static_cast<char>(i++);
    // Four handle copies: the read barrier, the write gate, the parity
    // countdown, and the completion continuation of a typical RMW chain.
    auto a = op;
    auto b = a;
    auto c = b;
    auto d = c;
    benchmark::DoNotOptimize((*d)[0]);
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    window[(lcg >> 33) % kOpWindow] = std::move(op);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpArenaChurn);

}  // namespace

BENCHMARK_MAIN();
