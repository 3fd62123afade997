#include "util/ring_queue.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "util/arena.hpp"
#include "util/rng.hpp"

namespace raidsim {
namespace {

TEST(RingQueue, MatchesDequeThroughWrapAndGrowth) {
  RingQueue<int> ring;
  std::deque<int> ref;
  Rng rng(11);
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    // Drifting push bias: the ring fills past several doublings, then
    // drains, wrapping its head around each capacity.
    const double push_p = (step / 2500) % 2 == 0 ? 0.6 : 0.4;
    if (ref.empty() || rng.bernoulli(push_p)) {
      ring.push_back(next);
      ref.push_back(next++);
    } else {
      ASSERT_EQ(ring.pop_front(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(ring[0], ref.front());
      ASSERT_EQ(ring[ring.size() - 1], ref.back());
    }
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

TEST(RingQueue, PopAndClearReleaseHandles) {
  OpArena arena;
  RingQueue<OpRef<int>> ring;
  OpRef<int> a = make_op<int>(arena, 1);
  OpRef<int> b = make_op<int>(arena, 2);
  ring.push_back(a);
  ring.push_back(b);
  EXPECT_EQ(a.use_count(), 2u);
  OpRef<int> front = ring.pop_front();
  front.reset();
  EXPECT_EQ(a.use_count(), 1u);  // the vacated slot holds no reference
  ring.clear();
  EXPECT_EQ(b.use_count(), 1u);
}

}  // namespace
}  // namespace raidsim
