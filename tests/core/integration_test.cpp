// End-to-end invariants across every organization, cached and uncached,
// replaying a slice of the trace2 workload. These tests assert the
// physical sanity of whole-system runs and the qualitative effects the
// paper builds its analysis on.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/simulator.hpp"
#include "core/workloads.hpp"

namespace raidsim {
namespace {

Metrics run(Organization org, bool cached, double scale = 0.03,
            SyncPolicy sync = SyncPolicy::kDiskFirst,
            bool parity_caching = false) {
  SimulationConfig config;
  config.organization = org;
  config.cached = cached;
  config.sync = sync;
  config.parity_caching = parity_caching;
  WorkloadOptions options;
  options.scale = scale;
  auto trace = make_workload("trace2", options);
  return run_simulation(config, *trace);
}

// GoogleTest names each instance with the raw bytes of its parameter, so
// the padding after `cached` is spelled out and zeroed: left implicit, it
// holds whatever the stack held and the test names change between builds.
struct Case {
  Organization org;
  bool cached;
  std::uint8_t padding[3] = {};
};
static_assert(sizeof(Case) == 8, "Case must have no implicit padding");

class EveryOrganization : public ::testing::TestWithParam<Case> {};

TEST_P(EveryOrganization, PhysicalSanity) {
  const Metrics m = run(GetParam().org, GetParam().cached);
  // Every request completed and took positive time.
  EXPECT_EQ(m.requests, m.response_all.count());
  EXPECT_GT(m.requests, 1000u);
  EXPECT_GT(m.response_all.stats().min(), 0.0);
  EXPECT_GT(m.mean_response_ms(), 0.0);
  EXPECT_LT(m.mean_response_ms(), 10000.0);
  // Utilizations are physical.
  for (double u : m.disk_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  EXPECT_GE(m.channel_utilization, 0.0);
  EXPECT_LE(m.channel_utilization, 1.0 + 1e-9);
  // Hit ratios are ratios.
  EXPECT_GE(m.read_hit_ratio(), 0.0);
  EXPECT_LE(m.read_hit_ratio(), 1.0);
  EXPECT_GE(m.write_hit_ratio(), 0.0);
  EXPECT_LE(m.write_hit_ratio(), 1.0);
  // Every disk in the array is accounted for.
  EXPECT_EQ(static_cast<int>(m.disk_accesses.size()), m.total_disks);
}

TEST_P(EveryOrganization, DisksActuallyUsed) {
  const Metrics m = run(GetParam().org, GetParam().cached);
  std::uint64_t total_ops = 0;
  for (auto c : m.disk_accesses) total_ops += c;
  EXPECT_GT(total_ops, 0u);
  EXPECT_GT(m.disk_totals.busy_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryOrganization,
    ::testing::Values(Case{Organization::kBase, false},
                      Case{Organization::kBase, true},
                      Case{Organization::kMirror, false},
                      Case{Organization::kMirror, true},
                      Case{Organization::kRaid5, false},
                      Case{Organization::kRaid5, true},
                      Case{Organization::kParityStriping, false},
                      Case{Organization::kParityStriping, true},
                      Case{Organization::kRaid4, true}),
    [](const auto& info) {
      return to_string(info.param.org) +
             (info.param.cached ? std::string("_cached")
                                : std::string("_uncached"));
    });

TEST(Integration, Raid5BalancesSkewedLoad) {
  // The Figure 6/7 effect: the Base organization inherits the workload's
  // disk skew; RAID5 with a 1-block striping unit smooths it out.
  const Metrics base = run(Organization::kBase, false);
  const Metrics raid5 = run(Organization::kRaid5, false);
  EXPECT_GT(base.disk_access_cv(), 0.4);
  EXPECT_LT(raid5.disk_access_cv(), 0.1);
}

TEST(Integration, MirrorBeatsBaseOnReads) {
  const Metrics base = run(Organization::kBase, false);
  const Metrics mirror = run(Organization::kMirror, false);
  EXPECT_LT(mirror.response_read.mean(), base.response_read.mean());
}

TEST(Integration, ParityWritePenaltyVisibleUncached) {
  const Metrics base = run(Organization::kBase, false);
  const Metrics raid5 = run(Organization::kRaid5, false);
  // Writes pay for the read-modify-write and parity synchronization.
  EXPECT_GT(raid5.response_write.mean(), base.response_write.mean() * 1.2);
}

TEST(Integration, CachingAbsorbsWrites) {
  const Metrics uncached = run(Organization::kRaid5, false);
  const Metrics cached = run(Organization::kRaid5, true);
  // Cached writes complete at channel speed -- orders of magnitude
  // faster than the uncached read-modify-write chain.
  EXPECT_LT(cached.response_write.mean(),
            uncached.response_write.mean() / 4.0);
  EXPECT_LT(cached.mean_response_ms(), uncached.mean_response_ms());
}

TEST(Integration, SimultaneousIssueWorstSyncPolicy) {
  // Figure 4's headline: SI wastes rotations holding the parity disk.
  const Metrics si =
      run(Organization::kRaid5, false, 0.03, SyncPolicy::kSimultaneousIssue);
  const Metrics dfpr =
      run(Organization::kRaid5, false, 0.03, SyncPolicy::kDiskFirstPriority);
  EXPECT_GT(si.disk_totals.held_rotations, dfpr.disk_totals.held_rotations);
  EXPECT_GE(si.response_write.mean(), dfpr.response_write.mean());
}

TEST(Integration, ParityCachingRelievesDataDisks) {
  const Metrics raid4 = run(Organization::kRaid4, true, 0.03,
                            SyncPolicy::kDiskFirst, true);
  EXPECT_GT(raid4.controller.parity_spools, 0u);
  // All parity work lands on the dedicated disk: the last disk of the
  // single array.
  EXPECT_GT(raid4.disk_accesses.back(), 0u);
}

TEST(Integration, CachedHitRatiosReasonable) {
  const Metrics m = run(Organization::kBase, true, 0.2);
  // Trace 2 at 16 MB: low read hit ratio, ~20-30% write hit ratio
  // (Figure 11).
  EXPECT_LT(m.read_hit_ratio(), 0.15);
  EXPECT_GT(m.write_hit_ratio(), 0.08);
  EXPECT_LT(m.write_hit_ratio(), 0.5);
}

TEST(Integration, EventAccountingConsistent) {
  const Metrics m = run(Organization::kRaid5, true);
  EXPECT_GT(m.events_executed, m.requests);
  // Disk ops: at least one per read miss and destage write.
  EXPECT_GE(m.disk_totals.ops(),
            m.cache.read_misses > 0 ? 1u : 0u);
}

}  // namespace
}  // namespace raidsim
