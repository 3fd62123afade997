#include "disk/disk.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

namespace raidsim {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() : seek_(SeekModel::calibrate(SeekSpec{})), disk_(eq_, geo_, &seek_, 0) {}

  double sector_ms() const { return geo_.sector_time_ms(); }
  double rotation_ms() const { return geo_.rotation_ms(); }
  double block_xfer_ms() const { return 8.0 * sector_ms(); }

  EventQueue eq_;
  DiskGeometry geo_;
  SeekModel seek_;
  Disk disk_;
};

TEST_F(DiskTest, ReadAtHeadPositionIsLatencyFree) {
  // Block 0 at time 0: no seek, head is angularly at sector 0, so the
  // access is pure transfer.
  double completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kRead;
  req.start_block = 0;
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  eq_.run();
  EXPECT_NEAR(completed, block_xfer_ms(), 1e-9);
  EXPECT_EQ(disk_.stats().reads, 1u);
  EXPECT_NEAR(disk_.stats().busy_ms, block_xfer_ms(), 1e-9);
  EXPECT_NEAR(disk_.stats().seek_ms, 0.0, 1e-12);
  EXPECT_NEAR(disk_.stats().latency_ms, 0.0, 1e-12);
}

TEST_F(DiskTest, SeekAndRotationalLatencyAccounted) {
  // First block of cylinder 5: seek(5), then wait for sector 0 to come
  // around again.
  const std::int64_t block = 5ll * geo_.blocks_per_cylinder();
  double completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kRead;
  req.start_block = block;
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  eq_.run();

  const double seek = seek_.seek_time(5);
  double latency = -std::fmod(seek, rotation_ms());
  if (latency < 0.0) latency += rotation_ms();
  EXPECT_NEAR(completed, seek + latency + block_xfer_ms(), 1e-9);
  EXPECT_EQ(disk_.current_cylinder(), 5);
}

TEST_F(DiskTest, WriteTimingEqualsReadTiming) {
  double completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kWrite;
  req.start_block = 0;
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  eq_.run();
  EXPECT_NEAR(completed, block_xfer_ms(), 1e-9);
  EXPECT_EQ(disk_.stats().writes, 1u);
}

TEST_F(DiskTest, RmwWritesExactlyOneRevolutionAfterRead) {
  // Paper, Section 3.3: read the old block, wait a full rotation, write
  // the new block in place.
  double read_done = -1.0, completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kReadModifyWrite;
  req.start_block = 0;
  req.gate = WriteGate::already_open(eq_.op_arena());
  req.on_read_done = [&](SimTime t) { read_done = t; };
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  eq_.run();
  EXPECT_NEAR(read_done, block_xfer_ms(), 1e-9);
  // Write begins when the head returns to the block start: t = rotation.
  EXPECT_NEAR(completed, rotation_ms() + block_xfer_ms(), 1e-9);
  EXPECT_EQ(disk_.stats().rmws, 1u);
  EXPECT_EQ(disk_.stats().held_rotations, 0u);
}

TEST_F(DiskTest, RmwHeldByClosedGateSpinsWholeRotations) {
  auto gate = make_op<WriteGate>(eq_.op_arena());
  double completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kReadModifyWrite;
  req.start_block = 0;
  req.gate = gate;
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  // Open the gate 30 ms in: the write must start at the next whole
  // revolution boundary after that, i.e. 3 * rotation.
  eq_.schedule_at(30.0, [&] { gate->open(eq_.now()); });
  eq_.run();
  EXPECT_NEAR(completed, 3.0 * rotation_ms() + block_xfer_ms(), 1e-9);
  EXPECT_EQ(disk_.stats().held_rotations, 2u);
  EXPECT_NEAR(disk_.stats().hold_ms, 2.0 * rotation_ms(), 1e-9);
}

TEST_F(DiskTest, GateOpenedBeforeReadEndDoesNotHold) {
  auto gate = make_op<WriteGate>(eq_.op_arena());
  double completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kReadModifyWrite;
  req.start_block = 0;
  req.gate = gate;
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  eq_.schedule_at(0.5, [&] { gate->open(eq_.now()); });
  eq_.run();
  EXPECT_NEAR(completed, rotation_ms() + block_xfer_ms(), 1e-9);
  EXPECT_EQ(disk_.stats().held_rotations, 0u);
}

// A held RMW is referenced by its gate's waiter and holds the gate: when
// the gate never opens (the run was cancelled, or the disk lost power),
// destroying or powering off the disk must still release the op.
TEST(DiskTeardown, OpHeldOnClosedGateIsReleased) {
  const SeekModel seek = SeekModel::calibrate(SeekSpec{});
  for (const bool power_fail : {false, true}) {
    SCOPED_TRACE(power_fail ? "power_fail" : "~Disk");
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = token;
    {
      Disk disk(eq, DiskGeometry{}, &seek, 0);
      DiskRequest req;
      req.kind = DiskOpKind::kReadModifyWrite;
      req.gate = make_op<WriteGate>(eq.op_arena());
      req.on_complete = [token = std::move(token)](SimTime) {};
      disk.submit(std::move(req));
      eq.run();  // read pass done: the disk now holds on the closed gate
      EXPECT_FALSE(watch.expired());
      if (power_fail) {
        disk.power_fail();
        EXPECT_TRUE(watch.expired());
      }
    }
    EXPECT_TRUE(watch.expired());
  }
}

TEST_F(DiskTest, LargeRmwNeedsMultipleRevolutionsBeforeRewrite) {
  // A 60-sector extent takes more than one revolution to read, so the
  // in-place write can start no earlier than 2 revolutions in.
  double completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kReadModifyWrite;
  req.start_block = 0;
  req.block_count = 10;  // 80 sectors > 48 per revolution
  req.gate = WriteGate::already_open(eq_.op_arena());
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  eq_.run();
  EXPECT_NEAR(completed, 2.0 * rotation_ms() + 80.0 * sector_ms(), 1e-9);
}

TEST_F(DiskTest, RmwAcrossCylinderBoundaryIsRejected) {
  DiskRequest req;
  req.kind = DiskOpKind::kReadModifyWrite;
  req.start_block = geo_.blocks_per_cylinder() - 1;
  req.block_count = 2;
  req.gate = WriteGate::already_open(eq_.op_arena());
  // The disk is idle, so service planning happens inside submit().
  EXPECT_THROW(disk_.submit(std::move(req)), std::logic_error);
}

TEST_F(DiskTest, PriorityOrderBeatsFifo) {
  std::vector<int> order;
  auto make = [&](DiskPriority prio, int tag) {
    DiskRequest req;
    req.kind = DiskOpKind::kRead;
    req.start_block = 0;
    req.priority = prio;
    req.on_complete = [&order, tag](SimTime) { order.push_back(tag); };
    return req;
  };
  // First request occupies the disk; the rest queue and are reordered.
  disk_.submit(make(DiskPriority::kNormal, 0));
  disk_.submit(make(DiskPriority::kDestage, 1));
  disk_.submit(make(DiskPriority::kNormal, 2));
  disk_.submit(make(DiskPriority::kParity, 3));
  eq_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
}

TEST_F(DiskTest, FifoWithinPriorityClass) {
  std::vector<int> order;
  for (int tag = 0; tag < 4; ++tag) {
    DiskRequest req;
    req.kind = DiskOpKind::kRead;
    req.start_block = 0;
    req.on_complete = [&order, tag](SimTime) { order.push_back(tag); };
    disk_.submit(std::move(req));
  }
  eq_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(DiskTest, OnStartFiresWhenServiceBegins) {
  double first_start = -1.0, second_start = -1.0;
  DiskRequest a;
  a.kind = DiskOpKind::kRead;
  a.start_block = 0;
  a.on_start = [&](SimTime t) { first_start = t; };
  disk_.submit(std::move(a));
  DiskRequest b;
  b.kind = DiskOpKind::kRead;
  b.start_block = 0;
  b.on_start = [&](SimTime t) { second_start = t; };
  disk_.submit(std::move(b));
  eq_.run();
  EXPECT_NEAR(first_start, 0.0, 1e-12);
  // Second starts exactly when the first completes.
  EXPECT_NEAR(second_start, block_xfer_ms(), 1e-9);
}

TEST_F(DiskTest, QueueingDelayAccounted) {
  for (int i = 0; i < 3; ++i) {
    DiskRequest req;
    req.kind = DiskOpKind::kRead;
    req.start_block = 0;
    disk_.submit(std::move(req));
  }
  EXPECT_EQ(disk_.queue_length(), 2u);  // one in service
  eq_.run();
  EXPECT_GT(disk_.stats().queue_ms, 0.0);
  EXPECT_EQ(disk_.stats().reads, 3u);
}

TEST_F(DiskTest, ReadSpanningCylindersEndsAtLastCylinder) {
  double completed = -1.0;
  DiskRequest req;
  req.kind = DiskOpKind::kRead;
  req.start_block = geo_.blocks_per_cylinder() - 1;
  req.block_count = 3;  // crosses into cylinder 1
  req.on_complete = [&](SimTime t) { completed = t; };
  disk_.submit(std::move(req));
  eq_.run();
  EXPECT_GT(completed, 0.0);
  EXPECT_EQ(disk_.current_cylinder(), 1);
  // Crossing adds a single-cylinder seek plus realignment.
  EXPECT_GE(disk_.stats().seek_ms, seek_.seek_time(1));
}

TEST_F(DiskTest, UtilizationIsBusyFraction) {
  DiskRequest req;
  req.kind = DiskOpKind::kRead;
  req.start_block = 0;
  disk_.submit(std::move(req));
  eq_.run();
  const double elapsed = eq_.now();
  EXPECT_NEAR(disk_.stats().utilization(elapsed), 1.0, 1e-9);
  EXPECT_NEAR(disk_.stats().utilization(2.0 * elapsed), 0.5, 1e-9);
}

TEST_F(DiskTest, BusyFlagTracksService) {
  EXPECT_FALSE(disk_.busy());
  DiskRequest req;
  req.kind = DiskOpKind::kRead;
  req.start_block = 0;
  disk_.submit(std::move(req));
  EXPECT_TRUE(disk_.busy());
  eq_.run();
  EXPECT_FALSE(disk_.busy());
}

}  // namespace
}  // namespace raidsim
