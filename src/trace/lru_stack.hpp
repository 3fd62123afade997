#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "util/fenwick.hpp"

namespace raidsim {

/// LRU stack with O(log n) depth queries, used by the synthetic trace
/// generator to realise a target stack-distance distribution (the
/// standard model of temporal locality: an access at stack distance d
/// hits in any LRU cache of size > d).
///
/// Implementation: each touch appends the block to the next timestamp
/// slot and kills its previous slot, so the live slots, read bottom to
/// top, are the stack from least to most recent. Liveness is a bitmap;
/// the slots are grouped into chunks of kChunkSlots whose live counts sit
/// in a Fenwick tree small enough to stay in L1/L2. "The block at depth
/// d" is then a chunk select, a popcount scan over the chunk's words and
/// a select-in-word. The slot array is presized from the caller's
/// expected touch count; when that runs out, compact() packs the live
/// slots to the bottom (growing the array when it is over half live),
/// giving amortised O(log n) per operation either way.
///
/// The block -> slot index is an open-addressed flat table of
/// interleaved {key, slot} entries (splitmix64 finalizer hash, linear
/// probing, grown at 3/4 load) rather than std::unordered_map: the stack
/// sits on the trace generator's per-access path, and a node-per-key map
/// makes every cold block a heap allocation. Keys are never erased (touch
/// only inserts or moves), so the table needs no tombstones.
class LruStack {
 public:
  /// Presizes for `expected_touches` touches (the slot array) and
  /// `expected_blocks` distinct blocks (the index; 0 = one per touch).
  /// Both are hints: exceeding them costs a compaction or an index
  /// regrow, never a wrong answer.
  explicit LruStack(std::size_t expected_touches = 4096,
                    std::size_t expected_blocks = 0);

  /// Insert `block` at the top (most recently used), moving it if present.
  void touch(std::int64_t block);

  /// Block at depth d (0 = most recent). nullopt when d >= size().
  std::optional<std::int64_t> at_depth(std::size_t d) const;

  /// Depth of `block`, or nullopt when absent.
  std::optional<std::size_t> depth_of(std::int64_t block) const;

  bool contains(std::int64_t block) const {
    return find_slot(block) != nullptr;
  }

  std::size_t size() const { return count_; }

 private:
  static constexpr std::int64_t kEmptyKey = -1;
  static constexpr std::size_t kWordSlots = 64;
  static constexpr std::size_t kChunkWords = 8;
  static constexpr std::size_t kChunkSlots = kWordSlots * kChunkWords;

  struct Entry {
    std::int64_t key;
    std::size_t slot;
  };

  static std::uint64_t hash_block(std::int64_t block) {
    // splitmix64 finalizer: full-avalanche mix of the block number.
    auto x = static_cast<std::uint64_t>(block);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Pointer to the slot value of `block`, or nullptr when absent.
  const std::size_t* find_slot(std::int64_t block) const;
  /// Empty entry where `block` would be inserted (the block is absent).
  Entry& empty_entry_for(std::int64_t block);
  void grow_index();

  /// Number of live slots at or below `slot`.
  std::size_t rank_of(std::size_t slot) const;
  void kill(std::size_t slot);
  void compact();

  std::size_t capacity_ = 0;  // slots, a multiple of kChunkSlots
  std::size_t next_slot_ = 0;
  std::unique_ptr<std::int64_t[]> block_at_slot_;  // valid where live
  std::vector<std::uint64_t> live_words_;          // slot liveness bitmap
  FenwickTree chunk_live_;                         // live slots per chunk

  std::vector<Entry> index_;  // power-of-two size
  std::size_t index_mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace raidsim
