// Fixed-capacity FIFO used to model hardware queues (SSR data FIFOs, the FPU
// offload queue and pipeline, DMA request queues). Capacity is a runtime
// constant so unit tests can sweep depths. Storage is a ring over a
// capacity-sized vector, so push and pop never move elements.
#pragma once

#include <cstddef>
#include <vector>

#include "common/log.hpp"

namespace saris {

template <typename T>
class FixedQueue {
 public:
  explicit FixedQueue(std::size_t capacity) : buf_(capacity) {
    SARIS_CHECK(capacity > 0, "queue capacity must be positive");
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == buf_.size(); }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t space() const { return buf_.size() - size_; }

  void push(const T& v) {
    SARIS_CHECK(!full(), "push to full queue (cap=" << buf_.size() << ")");
    buf_[wrap(head_ + size_)] = v;
    ++size_;
  }

  const T& front() const {
    SARIS_CHECK(!empty(), "front of empty queue");
    return buf_[head_];
  }

  const T& back() const {
    SARIS_CHECK(!empty(), "back of empty queue");
    return buf_[wrap(head_ + size_ - 1)];
  }

  T pop() {
    SARIS_CHECK(!empty(), "pop from empty queue");
    const T v = buf_[head_];
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Ring index of logical position `i` < 2 * capacity.
  std::size_t wrap(std::size_t i) const {
    return i >= buf_.size() ? i - buf_.size() : i;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace saris
