#include "simnet/scheduler.h"

#include <algorithm>

namespace rnl::simnet {

void Scheduler::schedule_at(SimTime when, Action action) {
  if (when < now_) when = now_;
  queue_.push_back(Event{when, next_seq_++, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Scheduler::Event Scheduler::pop_earliest() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  return event;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.front().when <= deadline) {
    // Pop before running: the action may schedule new events.
    Event event = pop_earliest();
    now_ = event.when;
    event.action();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

std::size_t Scheduler::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (!queue_.empty() && executed < max_events) {
    Event event = pop_earliest();
    now_ = event.when;
    event.action();
    ++executed;
  }
  return executed;
}

}  // namespace rnl::simnet
