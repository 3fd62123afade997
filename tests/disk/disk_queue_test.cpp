// Differential test of the disk queue against a reference of its
// selection rule: the highest priority class present wins; within it
// FIFO takes the lowest seq, SSTF the nearest cylinder, SCAN the nearest
// cylinder in the sweep direction (reversing when none is left), with
// seq breaking every tie. Seeded random submit/complete/power-fail mixes
// drive every DiskPriority under FIFO, SSTF and SCAN; each service start,
// each queue_length() and each power_fail() kill order is checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "disk/disk.hpp"
#include "util/rng.hpp"

namespace raidsim {
namespace {

struct RefEntry {
  int id;
  std::uint64_t seq;
  int cylinder;
  DiskPriority priority;
};

/// Test-only reference: a plain vector scanned in full at every pick.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(DiskScheduling scheduling) : scheduling_(scheduling) {}

  void push(const RefEntry& e) { q_.push_back(e); }
  std::size_t size() const { return q_.size(); }

  int pop(int head) {
    DiskPriority top = DiskPriority::kDestage;
    for (const RefEntry& e : q_) top = std::max(top, e.priority);
    std::vector<std::size_t> cls;
    for (std::size_t i = 0; i < q_.size(); ++i)
      if (q_[i].priority == top) cls.push_back(i);
    auto by = [this](auto key) {
      return [this, key](std::size_t a, std::size_t b) {
        const auto ka = key(q_[a]), kb = key(q_[b]);
        return ka != kb ? ka < kb : q_[a].seq < q_[b].seq;
      };
    };
    std::size_t pick = cls.front();
    switch (scheduling_) {
      case DiskScheduling::kFifo:
        pick = *std::min_element(cls.begin(), cls.end(), [this](auto a, auto b) {
          return q_[a].seq < q_[b].seq;
        });
        break;
      case DiskScheduling::kSstf:
        pick = *std::min_element(
            cls.begin(), cls.end(),
            by([head](const RefEntry& e) { return std::abs(e.cylinder - head); }));
        break;
      case DiskScheduling::kScan: {
        auto ahead = [&](std::size_t i) {
          const int d = q_[i].cylinder - head;
          return up_ ? d >= 0 : d <= 0;
        };
        if (std::none_of(cls.begin(), cls.end(), ahead)) up_ = !up_;
        std::vector<std::size_t> sweep;
        std::copy_if(cls.begin(), cls.end(), std::back_inserter(sweep), ahead);
        pick = *std::min_element(
            sweep.begin(), sweep.end(),
            by([head](const RefEntry& e) { return std::abs(e.cylinder - head); }));
        break;
      }
    }
    const int id = q_[pick].id;
    q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(pick));
    return id;
  }

  /// Ids in global seq order, then emptied (power failure).
  std::vector<int> drain_in_seq_order() {
    std::sort(q_.begin(), q_.end(),
              [](const RefEntry& a, const RefEntry& b) { return a.seq < b.seq; });
    std::vector<int> ids;
    for (const RefEntry& e : q_) ids.push_back(e.id);
    q_.clear();
    return ids;
  }

 private:
  DiskScheduling scheduling_;
  std::vector<RefEntry> q_;
  bool up_ = true;
};

/// One seeded run: bursts (queue builds) alternate with lulls (queue
/// drains, so submits also hit an idle disk), with occasional power
/// failures. Reads, writes and RMWs at every priority.
class QueueDifferential {
 public:
  QueueDifferential(DiskScheduling scheduling, std::uint64_t seed)
      : seek_(SeekModel::calibrate(SeekSpec{})),
        disk_(eq_, geo_, &seek_, 0, scheduling),
        ref_(scheduling),
        rng_(seed) {}

  void run(int ops) {
    SimTime t = 0.0;
    for (int i = 0; i < ops; ++i) {
      const bool burst = (i / 250) % 2 == 0;
      t += rng_.exponential(burst ? 3.0 : 45.0);
      eq_.schedule_at(t, [this, i] { submit(i); });
      if (rng_.bernoulli(0.004)) {
        const SimTime down = t + rng_.uniform(0.0, 10.0);
        eq_.schedule_at(down, [this] { power_fail(); });
        eq_.schedule_at(down + rng_.uniform(0.0, 30.0), [this] {
          disk_.power_on();
          powered_ = true;
          check_length("power_on");
        });
      }
    }
    eq_.run();
    EXPECT_EQ(disk_.queue_length(), 0u);
    EXPECT_EQ(ref_.size(), 0u);
    EXPECT_GT(max_depth_, 100u) << "mix never built a deep queue";
    EXPECT_GT(served_, static_cast<std::size_t>(ops) / 2);
    EXPECT_GT(queued_kills_, 1u) << "no power failure hit a queue";
  }

 private:
  void submit(int id) {
    DiskRequest req;
    const int kind = static_cast<int>(rng_.uniform_u64(3));
    req.kind = kind == 0   ? DiskOpKind::kRead
               : kind == 1 ? DiskOpKind::kWrite
                           : DiskOpKind::kReadModifyWrite;
    req.priority = static_cast<DiskPriority>(rng_.uniform_u64(3));
    const std::int64_t bpc = geo_.blocks_per_cylinder();
    // A few hot cylinders make SSTF/SCAN distance ties common.
    const std::int64_t cyl =
        rng_.bernoulli(0.3) ? static_cast<std::int64_t>(rng_.uniform_u64(4)) * 300
                            : static_cast<std::int64_t>(rng_.uniform_u64(
                                  static_cast<std::uint64_t>(geo_.cylinders)));
    req.block_count = 1 + static_cast<int>(rng_.uniform_u64(4));
    req.start_block =
        cyl * bpc + static_cast<std::int64_t>(rng_.uniform_u64(
                        static_cast<std::uint64_t>(bpc - req.block_count)));
    req.on_start = [this, id](SimTime) { started(id); };
    req.on_complete = [this](SimTime) { in_service_ = -1; };
    req.on_power_fail = [this, id](SimTime, int) { killed_.push_back(id); };
    if (powered_) {
      ref_.push({id, next_seq_++,
                 geo_.locate_block(req.start_block).cylinder, req.priority});
    }
    disk_.submit(std::move(req));
    max_depth_ = std::max(max_depth_, disk_.queue_length());
    check_length("submit");
  }

  void started(int id) {
    if (::testing::Test::HasFatalFailure()) return;  // report the first split only
    ASSERT_GT(ref_.size(), 0u) << "disk started an op the reference never queued";
    const int expect = ref_.pop(disk_.current_cylinder());
    ASSERT_EQ(id, expect) << "service order diverged at pick " << served_;
    in_service_ = id;
    ++served_;
    check_length("start");
  }

  void power_fail() {
    std::vector<int> expect = ref_.drain_in_seq_order();
    if (in_service_ >= 0) expect.push_back(in_service_);
    killed_.clear();
    const Disk::PowerFailReport report = disk_.power_fail();
    powered_ = false;
    in_service_ = -1;
    EXPECT_EQ(killed_, expect) << "power_fail kill order";
    queued_kills_ += report.queued_ops;
    EXPECT_EQ(report.queued_ops + report.inflight_ops, expect.size());
    check_length("power_fail");
  }

  void check_length(const char* where) {
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(disk_.queue_length(), ref_.size()) << "queue_length after " << where;
  }

  EventQueue eq_;
  DiskGeometry geo_;
  SeekModel seek_;
  Disk disk_;
  ReferenceQueue ref_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
  int in_service_ = -1;
  bool powered_ = true;
  std::size_t served_ = 0;
  std::size_t max_depth_ = 0;
  std::uint64_t queued_kills_ = 0;
  std::vector<int> killed_;
};

class DiskQueueDifferential
    : public ::testing::TestWithParam<DiskScheduling> {};

TEST_P(DiskQueueDifferential, MatchesReferenceOnRandomMixes) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueueDifferential(GetParam(), seed).run(2000);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DiskQueueDifferential,
    ::testing::Values(DiskScheduling::kFifo, DiskScheduling::kSstf,
                      DiskScheduling::kScan),
    [](const ::testing::TestParamInfo<DiskScheduling>& info) {
      return to_string(info.param);
    });

}  // namespace
}  // namespace raidsim
