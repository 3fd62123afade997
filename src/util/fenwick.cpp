#include "util/fenwick.hpp"

#include <cassert>

namespace raidsim {

FenwickTree::FenwickTree(std::size_t size) { reset(size); }

void FenwickTree::reset(std::size_t size) {
  size_ = size;
  tree_.assign(size + 1, 0);
}

void FenwickTree::add(std::size_t i, std::int64_t delta) {
  assert(i < size_);
  for (std::size_t j = i + 1; j <= size_; j += j & (~j + 1)) tree_[j] += delta;
}

std::int64_t FenwickTree::prefix_sum(std::size_t i) const {
  assert(i < size_);
  std::int64_t sum = 0;
  for (std::size_t j = i + 1; j > 0; j -= j & (~j + 1)) sum += tree_[j];
  return sum;
}

std::int64_t FenwickTree::prefix_sum_exclusive(std::size_t i) const {
  return i == 0 ? 0 : prefix_sum(i - 1);
}

std::int64_t FenwickTree::range_sum(std::size_t lo, std::size_t hi) const {
  assert(lo <= hi);
  return prefix_sum(hi) - prefix_sum_exclusive(lo);
}

std::int64_t FenwickTree::total() const {
  return size_ == 0 ? 0 : prefix_sum(size_ - 1);
}

std::size_t FenwickTree::select(std::int64_t target) const {
  std::int64_t rank_in_slot = 0;
  return select(target, rank_in_slot);
}

std::size_t FenwickTree::select(std::int64_t target,
                                std::int64_t& rank_in_slot) const {
  assert(target >= 1 && target <= total());
  std::size_t pos = 0;
  // Highest power of two <= size_.
  std::size_t mask = 1;
  while ((mask << 1) <= size_) mask <<= 1;
  std::int64_t remaining = target;
  for (; mask > 0; mask >>= 1) {
    const std::size_t next = pos + mask;
    if (next <= size_ && tree_[next] < remaining) {
      pos = next;
      remaining -= tree_[next];
    }
  }
  rank_in_slot = remaining;
  return pos;  // 0-based slot index
}

}  // namespace raidsim
