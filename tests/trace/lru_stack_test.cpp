#include "trace/lru_stack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace raidsim {
namespace {

/// Straightforward reference implementation.
class NaiveStack {
 public:
  void touch(std::int64_t block) {
    auto it = std::find(stack_.begin(), stack_.end(), block);
    if (it != stack_.end()) stack_.erase(it);
    stack_.insert(stack_.begin(), block);
  }
  std::optional<std::int64_t> at_depth(std::size_t d) const {
    if (d >= stack_.size()) return std::nullopt;
    return stack_[d];
  }
  std::optional<std::size_t> depth_of(std::int64_t block) const {
    auto it = std::find(stack_.begin(), stack_.end(), block);
    if (it == stack_.end()) return std::nullopt;
    return static_cast<std::size_t>(it - stack_.begin());
  }
  std::size_t size() const { return stack_.size(); }

 private:
  std::vector<std::int64_t> stack_;
};

TEST(LruStack, BasicSemantics) {
  LruStack stack;
  EXPECT_EQ(stack.size(), 0u);
  EXPECT_FALSE(stack.at_depth(0).has_value());

  stack.touch(10);
  stack.touch(20);
  stack.touch(30);
  EXPECT_EQ(stack.size(), 3u);
  EXPECT_EQ(stack.at_depth(0), 30);
  EXPECT_EQ(stack.at_depth(1), 20);
  EXPECT_EQ(stack.at_depth(2), 10);
  EXPECT_FALSE(stack.at_depth(3).has_value());
}

TEST(LruStack, TouchMovesToTop) {
  LruStack stack;
  stack.touch(1);
  stack.touch(2);
  stack.touch(3);
  stack.touch(1);  // re-reference
  EXPECT_EQ(stack.size(), 3u);
  EXPECT_EQ(stack.at_depth(0), 1);
  EXPECT_EQ(stack.at_depth(1), 3);
  EXPECT_EQ(stack.at_depth(2), 2);
}

TEST(LruStack, DepthOf) {
  LruStack stack;
  stack.touch(5);
  stack.touch(6);
  EXPECT_EQ(stack.depth_of(6), 0u);
  EXPECT_EQ(stack.depth_of(5), 1u);
  EXPECT_FALSE(stack.depth_of(7).has_value());
  EXPECT_TRUE(stack.contains(5));
  EXPECT_FALSE(stack.contains(7));
}

TEST(LruStack, MatchesNaiveUnderRandomWorkload) {
  LruStack stack(16);  // small initial capacity to force compactions
  NaiveStack naive;
  Rng rng(77);
  for (int op = 0; op < 20000; ++op) {
    const std::int64_t block = rng.uniform_i64(0, 299);
    stack.touch(block);
    naive.touch(block);
    ASSERT_EQ(stack.size(), naive.size());
    const auto d = static_cast<std::size_t>(rng.uniform_u64(naive.size() + 1));
    ASSERT_EQ(stack.at_depth(d), naive.at_depth(d)) << "op " << op;
    const std::int64_t probe = rng.uniform_i64(0, 299);
    ASSERT_EQ(stack.depth_of(probe), naive.depth_of(probe));
  }
}

TEST(LruStack, CompactionPreservesOrder) {
  LruStack stack(16);
  for (std::int64_t i = 0; i < 1000; ++i) stack.touch(i % 8);
  // After many re-touches the stack still holds exactly 8 blocks, most
  // recent last-touched order: 7 % 8 touched last at i=999.
  EXPECT_EQ(stack.size(), 8u);
  EXPECT_EQ(stack.at_depth(0), 999 % 8);
  EXPECT_EQ(stack.at_depth(7), (999 - 7) % 8);
}

/// Generator-shaped workload against the reference: sequential
/// multi-block runs, re-touches at sampled depths, and at_depth/depth_of
/// probes after every request. Returns the number of touches made.
std::size_t run_differential(LruStack& stack, int requests) {
  NaiveStack naive;
  Rng rng(2024);
  std::size_t touches = 0;
  auto touch = [&](std::int64_t block) {
    stack.touch(block);
    naive.touch(block);
    ++touches;
  };
  for (int req = 0; req < requests; ++req) {
    const double kind = rng.uniform();
    if (kind < 0.1) {
      // Sequential scan, partly overlapping earlier scans.
      const std::int64_t start = rng.uniform_i64(0, 4000);
      const int count = static_cast<int>(rng.uniform_i64(2, 40));
      for (int i = 0; i < count; ++i) touch(start + i);
    } else if (kind < 0.7 && naive.size() > 0) {
      // Re-touch at a sampled depth, as the generator's reuse path does.
      const auto d = static_cast<std::size_t>(rng.uniform_u64(naive.size()));
      const auto block = stack.at_depth(d);
      EXPECT_EQ(block, naive.at_depth(d)) << "request " << req;
      if (!block) return touches;
      touch(*block);
    } else {
      touch(rng.uniform_i64(0, 4100));
    }
    EXPECT_EQ(stack.size(), naive.size());
    for (const std::size_t d :
         {std::size_t{0}, naive.size() - 1, naive.size(), naive.size() / 2,
          static_cast<std::size_t>(rng.uniform_u64(naive.size()))}) {
      EXPECT_EQ(stack.at_depth(d), naive.at_depth(d))
          << "request " << req << " depth " << d;
    }
    const std::int64_t probe = rng.uniform_i64(0, 4100);
    EXPECT_EQ(stack.depth_of(probe), naive.depth_of(probe))
        << "request " << req << " block " << probe;
    if (::testing::Test::HasFailure()) return touches;
  }
  return touches;
}

constexpr int kDifferentialRequests = 8000;

TEST(LruStack, DifferentialTinyHintCompactsOften) {
  LruStack stack(16);
  run_differential(stack, kDifferentialRequests);
}

TEST(LruStack, DifferentialExactHint) {
  LruStack sizing(16);
  const std::size_t touches = run_differential(sizing, kDifferentialRequests);
  LruStack stack(touches, sizing.size());
  EXPECT_EQ(run_differential(stack, kDifferentialRequests), touches);
}

TEST(LruStack, DifferentialOversizedHint) {
  LruStack stack(1 << 20, 1 << 16);
  run_differential(stack, kDifferentialRequests);
}

TEST(LruStack, SelectsAtWordAndChunkBoundaries) {
  // 1100 blocks touched once: block b sits in slot b, so words and chunks
  // (64 and 512 slots) are split exactly at the blocks named below.
  LruStack stack(4096);
  NaiveStack naive;
  for (std::int64_t b = 0; b < 1100; ++b) {
    stack.touch(b);
    naive.touch(b);
  }
  auto check_all = [&] {
    ASSERT_EQ(stack.size(), naive.size());
    for (std::size_t d = 0; d <= naive.size(); ++d)
      ASSERT_EQ(stack.at_depth(d), naive.at_depth(d)) << "depth " << d;
    for (std::int64_t b = 0; b < 1100; ++b)
      ASSERT_EQ(stack.depth_of(b), naive.depth_of(b)) << "block " << b;
  };
  const std::size_t n = stack.size();
  EXPECT_EQ(stack.at_depth(0), 1099);
  EXPECT_EQ(stack.at_depth(n - 1), 0);
  for (const std::int64_t slot : {63, 64, 511, 512, 1023, 1024}) {
    const std::size_t depth = n - 1 - static_cast<std::size_t>(slot);
    EXPECT_EQ(stack.at_depth(depth), slot);
    EXPECT_EQ(stack.depth_of(slot), depth);
  }
  check_all();

  // Move every block of the first chunk except those in slots 63, 64 and
  // 511 to the top: the bottom of the stack is then a lone bit at the
  // end of word 0, one at the start of word 1, one at the end of chunk
  // 0, and the full run from slot 512 (the start of chunk 1).
  for (std::int64_t b = 0; b < 512; ++b) {
    if (b == 63 || b == 64 || b == 511) continue;
    stack.touch(b);
    naive.touch(b);
  }
  EXPECT_EQ(stack.at_depth(n - 1), 63);
  EXPECT_EQ(stack.at_depth(n - 2), 64);
  EXPECT_EQ(stack.at_depth(n - 3), 511);
  EXPECT_EQ(stack.at_depth(n - 4), 512);
  EXPECT_EQ(stack.depth_of(511), n - 3);
  check_all();
}

TEST(LruStack, StackDistanceInclusionProperty) {
  // An access at stack distance d hits an LRU cache of size > d: verify
  // the hit counts derived from depth_of are monotone in cache size.
  LruStack stack;
  Rng rng(101);
  std::vector<std::uint64_t> hits_at_size{0, 0, 0};  // sizes 8, 32, 128
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t block = rng.uniform_i64(0, 199);
    const auto depth = stack.depth_of(block);
    if (depth) {
      if (*depth < 8) ++hits_at_size[0];
      if (*depth < 32) ++hits_at_size[1];
      if (*depth < 128) ++hits_at_size[2];
    }
    stack.touch(block);
  }
  EXPECT_LE(hits_at_size[0], hits_at_size[1]);
  EXPECT_LE(hits_at_size[1], hits_at_size[2]);
  EXPECT_GT(hits_at_size[2], 0u);
}

}  // namespace
}  // namespace raidsim
