#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

namespace raidsim {
namespace {

TEST(OpArena, ClassForSelectsSmallestFit) {
  using op_detail::class_for;
  using op_detail::kClassBytes;
  using op_detail::kClasses;
  EXPECT_EQ(class_for(1), 0u);
  EXPECT_EQ(class_for(kClassBytes[0]), 0u);
  EXPECT_EQ(class_for(kClassBytes[0] + 1), 1u);
  for (std::size_t i = 0; i < kClasses; ++i)
    EXPECT_EQ(class_for(kClassBytes[i]), i);
  EXPECT_EQ(class_for(kClassBytes[kClasses - 1] + 1), kClasses);  // oversize
}

struct Counted {
  explicit Counted(int* live) : live_(live) { ++*live_; }
  ~Counted() { --*live_; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  int* live_;
  int value = 0;
};

TEST(OpRef, RefcountCopyMoveResetSelfAssign) {
  OpArena arena;
  int live = 0;
  auto a = make_op<Counted>(arena, &live);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(a.use_count(), 1u);

  OpRef<Counted> b = a;  // copy
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b.get(), a.get());

  OpRef<Counted> c = std::move(b);  // move: no refcount change
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b.get(), nullptr);
  EXPECT_TRUE(c == a);

  c = c;  // self-assign must be a no-op
  EXPECT_EQ(a.use_count(), 2u);
  c = std::move(c);  // self-move must not lose the object
  EXPECT_TRUE(c != nullptr);
  EXPECT_EQ(live, 1);

  c.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(live, 1);
  a.reset();
  EXPECT_EQ(live, 0);  // destroyed exactly once
  EXPECT_EQ(a.use_count(), 0u);

  // Null handles compare and copy sanely.
  OpRef<Counted> n;
  OpRef<Counted> m = n;
  EXPECT_TRUE(n == nullptr);
  EXPECT_TRUE(m == n);
}

TEST(OpRef, FreedBlockIsRecycledLifo) {
  OpArena arena;
  int live = 0;
  void* first;
  {
    auto a = make_op<Counted>(arena, &live);
    first = a.get();
  }
  EXPECT_EQ(live, 0);
  auto b = make_op<Counted>(arena, &live);
  EXPECT_EQ(b.get(), first);  // intrusive free list hands the block back
}

TEST(OpArena, ResetReuseKeepsHeapFlat) {
  OpArena arena;
  std::uint64_t after_warmup = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<OpRef<std::array<char, 200>>> held;
    for (int i = 0; i < 500; ++i)
      held.push_back(make_op<std::array<char, 200>>(arena));
    held.clear();
    arena.reset();
    if (round == 0) {
      after_warmup = arena.heap_allocations();
      EXPECT_GT(after_warmup, 0u);  // the warmup round grabbed slabs
    }
  }
  // Every later round bumped through the retained slabs: zero new heap.
  EXPECT_EQ(arena.heap_allocations(), after_warmup);
  EXPECT_GT(arena.slab_count(), 0u);
}

// The per-request op-state pattern, with no reset() in between: keep a
// window of live ops; each step allocates one (the 512-byte in-flight
// disk op class), fans its handle out the way an RMW chain copies its
// completion into barrier/gate callbacks, then retires a pseudo-random
// window slot. Once warm, the free lists serve every allocation.
TEST(OpArena, SteadyStateChurnKeepsHeapFlat) {
  constexpr int kOpWindow = 256;
  constexpr std::uint64_t kSteps = 200'000;
  OpArena arena;
  std::vector<OpRef<std::array<char, 480>>> window(kOpWindow);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  auto step = [&] {
    auto op = make_op<std::array<char, 480>>(arena);
    // Four handle copies: the read barrier, the write gate, the parity
    // countdown, and the completion continuation of a typical RMW chain.
    auto a = op;
    auto b = a;
    auto c = b;
    auto d = c;
    EXPECT_EQ(d.use_count(), 5u);
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    window[(lcg >> 33) % kOpWindow] = std::move(op);
  };
  for (std::uint64_t i = 0; i < kSteps / 10; ++i) step();  // warmup
  const std::uint64_t warm = arena.heap_allocations();
  EXPECT_GT(warm, 0u);  // the warmup grabbed the class's slabs
  for (std::uint64_t i = 0; i < kSteps; ++i) step();
  EXPECT_EQ(arena.heap_allocations(), warm);
}

TEST(OpArena, OversizeFallsBackToHeap) {
  OpArena arena;
  using Big = std::array<unsigned char, 2048>;  // > largest class
  const auto before = arena.heap_allocations();
  auto big = make_op<Big>(arena);
  EXPECT_EQ(arena.heap_allocations(), before + 1);
  big->fill(0xAB);
  for (unsigned char v : *big) EXPECT_EQ(v, 0xAB);
  big.reset();
  // Oversize blocks are not recycled: each allocation is a heap trip.
  auto again = make_op<Big>(arena);
  EXPECT_EQ(arena.heap_allocations(), before + 2);
}

// Randomized differential fuzz: drive the arena with an arbitrary
// alloc/free interleaving across every size class and check each
// payload's fill pattern at release, against unique_ptr as the reference
// allocator (same sequence, same seeds). Any cross-class aliasing,
// premature recycle, or header stomp shows up as a pattern mismatch.
template <std::size_t N>
struct Blob {
  std::array<unsigned char, N> bytes;
};

class FuzzHarness {
 public:
  explicit FuzzHarness(OpArena& arena) : arena_(arena) {}

  template <std::size_t N>
  void allocate(unsigned char seed) {
    auto op = make_op<Blob<N>>(arena_);
    op->bytes.fill(seed);
    auto ref = std::make_shared<Blob<N>>();
    ref->bytes.fill(seed);
    live_.push_back([op = std::move(op), ref = std::move(ref)] {
      return std::memcmp(op->bytes.data(), ref->bytes.data(), N) == 0;
    });
  }

  void allocate_random(std::mt19937& rng) {
    const auto seed = static_cast<unsigned char>(rng());
    switch (rng() % 8) {
      case 0: allocate<8>(seed); break;
      case 1: allocate<40>(seed); break;
      case 2: allocate<100>(seed); break;
      case 3: allocate<200>(seed); break;
      case 4: allocate<400>(seed); break;
      case 5: allocate<700>(seed); break;
      case 6: allocate<1000>(seed); break;
      default: allocate<2000>(seed); break;  // oversize class
    }
  }

  bool release_random(std::mt19937& rng) {
    if (live_.empty()) return true;
    const std::size_t i = rng() % live_.size();
    const bool ok = live_[i]();
    live_[i] = std::move(live_.back());
    live_.pop_back();
    return ok;
  }

  bool drain() {
    bool ok = true;
    for (auto& check : live_) ok = ok && check();
    live_.clear();
    return ok;
  }

 private:
  OpArena& arena_;
  std::vector<std::function<bool()>> live_;
};

TEST(OpArena, DifferentialAllocFreeFuzz) {
  OpArena arena;
  std::mt19937 rng(20260809);
  FuzzHarness fuzz(arena);
  for (int step = 0; step < 20000; ++step) {
    if (rng() % 3 != 0) {
      fuzz.allocate_random(rng);
    } else {
      ASSERT_TRUE(fuzz.release_random(rng)) << "pattern mismatch at " << step;
    }
  }
  EXPECT_TRUE(fuzz.drain());
}

}  // namespace
}  // namespace raidsim
