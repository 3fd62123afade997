#include "trace/lru_stack.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace raidsim {

namespace {

std::size_t index_size_for(std::size_t keys) {
  // Power of two holding `keys` at no more than 3/4 load.
  std::size_t size = 16;
  while (4 * keys > 3 * size) size *= 2;
  return size;
}

/// Bit position of the k-th (1-based) set bit of `word`; k <= popcount.
unsigned select_in_word(std::uint64_t word, unsigned k) {
  unsigned pos = 0;
  for (unsigned half = 32; half > 0; half >>= 1) {
    const std::uint64_t low = word & ((std::uint64_t{1} << half) - 1);
    const auto below = static_cast<unsigned>(std::popcount(low));
    if (k > below) {
      k -= below;
      word >>= half;
      pos += half;
    } else {
      word = low;
    }
  }
  return pos;
}

}  // namespace

LruStack::LruStack(std::size_t expected_touches, std::size_t expected_blocks)
    : capacity_(std::max<std::size_t>(
          kChunkSlots,
          (expected_touches + kChunkSlots - 1) / kChunkSlots * kChunkSlots)),
      block_at_slot_(std::make_unique_for_overwrite<std::int64_t[]>(capacity_)),
      live_words_(capacity_ / kWordSlots, 0),
      chunk_live_(capacity_ / kChunkSlots),
      index_(index_size_for(expected_blocks ? expected_blocks
                                            : expected_touches),
             Entry{kEmptyKey, 0}),
      index_mask_(index_.size() - 1) {}

const std::size_t* LruStack::find_slot(std::int64_t block) const {
  std::size_t i = hash_block(block) & index_mask_;
  while (index_[i].key != kEmptyKey) {
    if (index_[i].key == block) return &index_[i].slot;
    i = (i + 1) & index_mask_;
  }
  return nullptr;
}

LruStack::Entry& LruStack::empty_entry_for(std::int64_t block) {
  std::size_t i = hash_block(block) & index_mask_;
  while (index_[i].key != kEmptyKey) i = (i + 1) & index_mask_;
  return index_[i];
}

void LruStack::grow_index() {
  std::vector<Entry> old = std::move(index_);
  index_.assign(old.size() * 2, Entry{kEmptyKey, 0});
  index_mask_ = index_.size() - 1;
  for (const Entry& e : old)
    if (e.key != kEmptyKey) empty_entry_for(e.key) = e;
}

void LruStack::kill(std::size_t slot) {
  live_words_[slot / kWordSlots] &= ~(std::uint64_t{1} << (slot % kWordSlots));
  chunk_live_.add(slot / kChunkSlots, -1);
}

void LruStack::touch(std::int64_t block) {
  assert(block >= 0);
  if (next_slot_ == capacity_) compact();
  // One probe finds the block or the empty entry it goes into.
  std::size_t i = hash_block(block) & index_mask_;
  for (;; i = (i + 1) & index_mask_) {
    Entry& e = index_[i];
    if (e.key == block) {
      kill(e.slot);
      e.slot = next_slot_;
      break;
    }
    if (e.key == kEmptyKey) {
      if (4 * (count_ + 1) > 3 * index_.size()) {
        grow_index();
        empty_entry_for(block) = Entry{block, next_slot_};
      } else {
        e = Entry{block, next_slot_};
      }
      ++count_;
      break;
    }
  }
  block_at_slot_[next_slot_] = block;
  live_words_[next_slot_ / kWordSlots] |= std::uint64_t{1}
                                          << (next_slot_ % kWordSlots);
  chunk_live_.add(next_slot_ / kChunkSlots, +1);
  ++next_slot_;
}

std::optional<std::int64_t> LruStack::at_depth(std::size_t d) const {
  if (d >= count_) return std::nullopt;
  // Depth d from the top == rank (n - d) from the bottom.
  std::int64_t rank = 0;
  const std::size_t chunk =
      chunk_live_.select(static_cast<std::int64_t>(count_ - d), rank);
  std::size_t word = chunk * kChunkWords;
  for (;; ++word) {
    const auto live = std::popcount(live_words_[word]);
    if (rank <= live) break;
    rank -= live;
  }
  const unsigned bit =
      select_in_word(live_words_[word], static_cast<unsigned>(rank));
  return block_at_slot_[word * kWordSlots + bit];
}

std::size_t LruStack::rank_of(std::size_t slot) const {
  const std::size_t word = slot / kWordSlots;
  auto rank = static_cast<std::size_t>(
      chunk_live_.prefix_sum_exclusive(slot / kChunkSlots));
  for (std::size_t w = word / kChunkWords * kChunkWords; w < word; ++w)
    rank += static_cast<std::size_t>(std::popcount(live_words_[w]));
  const std::uint64_t at_or_below = ~std::uint64_t{0} >>
                                    (kWordSlots - 1 - slot % kWordSlots);
  return rank + static_cast<std::size_t>(
                    std::popcount(live_words_[word] & at_or_below));
}

std::optional<std::size_t> LruStack::depth_of(std::int64_t block) const {
  const std::size_t* slot = find_slot(block);
  if (!slot) return std::nullopt;
  // Number of live slots strictly above (newer than) this one.
  return count_ - rank_of(*slot);
}

void LruStack::compact() {
  // Pack the live slots, in stack order, to the bottom of the slot array,
  // doubling it first while it would stay more than half live.
  const std::size_t n = count_;
  std::size_t new_capacity = capacity_;
  while (new_capacity < 2 * n + 16) new_capacity *= 2;
  std::unique_ptr<std::int64_t[]> grown;
  if (new_capacity != capacity_)
    grown = std::make_unique_for_overwrite<std::int64_t[]>(new_capacity);
  std::int64_t* dst = grown ? grown.get() : block_at_slot_.get();

  std::size_t packed = 0;
  for (std::size_t w = 0; w < live_words_.size(); ++w) {
    for (std::uint64_t bits = live_words_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t slot =
          w * kWordSlots + static_cast<std::size_t>(std::countr_zero(bits));
      const std::int64_t block = block_at_slot_[slot];
      dst[packed] = block;
      std::size_t i = hash_block(block) & index_mask_;
      while (index_[i].key != block) i = (i + 1) & index_mask_;
      index_[i].slot = packed++;
    }
  }
  assert(packed == n);
  if (grown) block_at_slot_ = std::move(grown);
  capacity_ = new_capacity;

  live_words_.assign(capacity_ / kWordSlots, 0);
  std::fill_n(live_words_.begin(), n / kWordSlots, ~std::uint64_t{0});
  if (n % kWordSlots != 0)
    live_words_[n / kWordSlots] = (std::uint64_t{1} << (n % kWordSlots)) - 1;
  chunk_live_.reset(capacity_ / kChunkSlots);
  for (std::size_t c = 0; c * kChunkSlots < n; ++c)
    chunk_live_.add(c, static_cast<std::int64_t>(
                           std::min(kChunkSlots, n - c * kChunkSlots)));
  next_slot_ = n;
}

}  // namespace raidsim
