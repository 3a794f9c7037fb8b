#pragma once

// Discrete-event scheduler: the single source of time for the whole RNL
// simulation. Events at equal timestamps run in insertion order, so a given
// seed always replays identically.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.h"
#include "util/time.h"

namespace rnl::simnet {

using util::Duration;
using util::SimTime;

class Scheduler {
 public:
  using Action = std::function<void()>;

  explicit Scheduler(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  [[nodiscard]] SimTime now() const { return now_; }
  util::Rng& rng() { return rng_; }
  /// The seed this world was constructed with. Components that need their
  /// own deterministic stream (RIS reconnect jitter, per DESIGN.md §12)
  /// derive one with util::derive_seed(scheduler.seed(), entity_name)
  /// instead of drawing from the shared rng(), so replays stay byte-stable
  /// no matter how shard threads interleave.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Schedules `action` at absolute time `when` (clamped to now).
  void schedule_at(SimTime when, Action action);
  void schedule_after(Duration delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Runs events until the queue is empty or virtual time passes `deadline`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime deadline);
  std::size_t run_for(Duration duration) { return run_until(now_ + duration); }
  /// Runs until the queue drains (bounded by `max_events` as a runaway
  /// stop). CAUTION: self-rescheduling periodic timers (device hellos, the
  /// lab service's expiry sweep) never drain — with such timers armed,
  /// prefer run_for/run_until.
  std::size_t run_all(std::size_t max_events = 10'000'000);

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Removes the earliest event from the heap and returns it, moving the
  /// action out (a copy would clone the closure and everything it holds).
  Event pop_earliest();

  std::uint64_t seed_ = 1;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  /// Binary heap under Later (std::push_heap/pop_heap): the earliest
  /// (when, seq) sits at the front.
  std::vector<Event> queue_;
  util::Rng rng_;
};

}  // namespace rnl::simnet
