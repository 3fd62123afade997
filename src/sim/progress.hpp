#pragma once

#include <cstdint>
#include <functional>

namespace raidsim {

/// One progress observation from a running engine. Emitted at the
/// existing cancel-poll batch boundary (EngineKernel::kCancelCheckBatch
/// events), so observing progress costs nothing on the per-event hot
/// path -- and, like tracing, never perturbs the simulation: hooked
/// runs are bit-identical to unhooked ones (asserted by
/// tests/runner/progress_test.cpp).
struct ProgressSnapshot {
  std::uint64_t events = 0;  // kernel events executed so far (cumulative)
  double sim_ms = 0.0;       // simulated time reached
  std::uint64_t done = 0;    // host requests completed
  std::uint64_t total = 0;   // host requests in the trace (0 = unknown)
  /// True exactly once, on the last snapshot after the run completes
  /// normally (a cancelled run ends with no final frame).
  bool final_frame = false;
};

/// Progress observer. The sharded engine invokes it from shard worker
/// threads (one call at a time, but the calling thread varies), so
/// implementations must be thread-safe. Successive snapshots are
/// monotone in `events` and `sim_ms`.
using ProgressFn = std::function<void(const ProgressSnapshot&)>;

}  // namespace raidsim
