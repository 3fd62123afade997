#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace raidsim {

/// FIFO of movable values in a power-of-two ring. Unlike std::deque it
/// allocates nothing until the first push, so an idle queue costs three
/// words. Growth doubles the ring and keeps the element order. A popped
/// slot is left moved-from, so a handle type (OpRef) releases its
/// reference the moment it leaves the queue.
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// i-th element from the front (0 = next to pop).
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  T pop_front() {
    assert(size_ > 0);
    T value = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return value;
  }

  /// Drop every element; the ring keeps its capacity.
  void clear() {
    while (size_ > 0) pop_front();
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace raidsim
