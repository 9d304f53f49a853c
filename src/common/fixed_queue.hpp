// Fixed-capacity FIFO used to model hardware queues (SSR data FIFOs, the FPU
// offload queue and pipeline, DMA request queues). Every hardware depth is a
// compile-time constant, so the capacity is a template argument and a zero
// capacity does not compile. Storage is a ring over an inline array: a queue
// allocates nothing, and push and pop never move elements.
#pragma once

#include <array>
#include <cstddef>

#include "common/log.hpp"

namespace saris {

template <typename T, std::size_t N>
class FixedQueue {
  static_assert(N > 0, "queue capacity must be positive");

 public:
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == N; }
  std::size_t size() const { return size_; }
  static constexpr std::size_t capacity() { return N; }
  std::size_t space() const { return N - size_; }

  void push(const T& v) { push_slot() = v; }

  /// Append an element and return it, for the caller to fill in place. The
  /// slot still holds what it last held, so the caller sets every field.
  /// Building a record elsewhere and copying it in can stall the host on
  /// store forwarding at every push.
  T& push_slot() {
    SARIS_CHECK(!full(), "push to full queue (cap=" << N << ")");
    T& slot = buf_[wrap(head_ + size_)];
    ++size_;
    return slot;
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
  /// Ring index of logical position `i` < 2 * N.
  static std::size_t wrap(std::size_t i) { return i >= N ? i - N : i; }

  std::array<T, N> buf_{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace saris
