#pragma once

// Lock-free single-producer/single-consumer ring for the rare cross-shard
// wire (DESIGN.md §12). One shard pushes frames bound for a port another
// shard owns; the owning shard drains them at the top of its loop. The
// sharded route server keeps an N×N matrix of these rings, so every ring
// has exactly one producer thread and one consumer thread by construction.
//
// Protocol (Vyukov bounded queue, specialised to SPSC): each slot carries a
// sequence word. A slot is free for ticket t when seq == t; the producer
// writes the value and publishes seq = t + 1 (release). The consumer takes
// the value when seq == t + 1 and recycles the slot with seq = t + capacity
// (release). The acquire load on seq is the only synchronisation the
// payload needs — a reader can never observe a torn value, because it only
// touches the slot after the producer's release store, and the producer
// only reuses it after the consumer's. A full ring rejects the push (the
// caller counts the drop); the data plane never blocks.
//
// The ring is parameterized over concurrency traits (util/concurrency.h):
// the default StdConcurrency instantiation is exactly the plain
// std::atomic code, while the model checker instantiates
// SpscRing<T, modelcheck::ModelConcurrency> to exhaustively explore the
// very same push/pop code under every bounded interleaving (DESIGN.md §13).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/concurrency.h"

namespace rnl::util {

template <typename T, typename Concurrency = StdConcurrency>
class SpscRing {
 public:
  /// Ceiling for the rounded-up capacity. Rounding up a pathological
  /// request (say SIZE_MAX) would otherwise shift past the top power of
  /// two and spin forever without ever reaching it.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

  /// Capacity is rounded up to a power of two in [2, kMaxCapacity].
  explicit SpscRing(std::size_t capacity = 1024) {
    std::size_t size = 2;
    while (size < capacity && size < kMaxCapacity) size <<= 1;
    slots_ = std::vector<Slot>(size);
    mask_ = size - 1;
    for (std::size_t i = 0; i < size; ++i) {
      // Relaxed: pre-publication init; the ring is handed to the producer/
      // consumer threads by whatever mechanism shares `this` (happens-before).
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer thread only. False (and a counted drop) when the ring is full.
  bool push(T value) {
    Slot& slot = slots_[head_ & mask_];
    if (slot.seq.load(std::memory_order_acquire) != head_) {
      bump(dropped_);
      return false;
    }
    slot.value = std::move(value);
    slot.seq.store(head_ + 1, std::memory_order_release);
    ++head_;
    bump(pushed_);
    return true;
  }

  /// Consumer thread only. False when the ring is empty.
  bool pop(T& out) {
    Slot& slot = slots_[tail_ & mask_];
    if (slot.seq.load(std::memory_order_acquire) != tail_ + 1) return false;
    out = std::move(slot.value);
    slot.seq.store(tail_ + slots_.size(), std::memory_order_release);
    ++tail_;
    bump(popped_);
    return true;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Monitoring counters; safe to read from any thread (relaxed).
  [[nodiscard]] std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);  // Relaxed: monitoring
  }
  [[nodiscard]] std::uint64_t popped() const {
    return popped_.load(std::memory_order_relaxed);  // Relaxed: monitoring
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);  // Relaxed: monitoring
  }
  /// Approximate (racy between the two counters); exact when quiescent.
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t pushed = this->pushed();
    const std::uint64_t popped = this->popped();
    return pushed >= popped ? static_cast<std::size_t>(pushed - popped) : 0;
  }

 private:
  template <typename U>
  using Atomic = typename Concurrency::template Atomic<U>;

  /// Increments a monitoring counter that only the calling side writes
  /// (pushed_ and dropped_ the producer, popped_ the consumer). With one
  /// writer a load and a store suffice; fetch_add would be a locked
  /// read-modify-write on x86 on every push and pop.
  static void bump(std::atomic<std::uint64_t>& counter) {
    // Relaxed: single writer, and the counters have no protocol role.
    const std::uint64_t next = counter.load(std::memory_order_relaxed) + 1;
    counter.store(next, std::memory_order_relaxed);  // Relaxed: as above
  }

  struct Slot {
    // seq is the protocol word; value's cross-thread safety is entirely
    // carried by seq's release/acquire pair, which is exactly what the
    // Shared<T> model wrapper verifies.
    Atomic<std::uint64_t> seq{0};
    typename Concurrency::template Shared<T> value{};
  };

  // slots_/mask_ are immutable after construction (the vector itself is
  // never resized; only the Slot cells inside it mutate, per the protocol).
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;  // immutable after construction
  // head_/tail_ are private to the producer/consumer thread respectively;
  // cross-thread visibility flows through the per-slot seq words. Separate
  // cache lines so the two sides do not false-share.
  alignas(64) std::uint64_t head_ = 0;
  alignas(64) std::uint64_t tail_ = 0;
  // Monitoring counters stay real std::atomic even in a model build: they
  // are observability-only (relaxed, no protocol role), and modeling them
  // would triple the scheduling points without covering any new protocol
  // behaviour.
  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  alignas(64) std::atomic<std::uint64_t> popped_{0};
};

}  // namespace rnl::util
