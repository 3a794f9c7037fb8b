#pragma once

// WAN impairment injection (§3.5): "RNL can inject delay and jitter to
// simulate any wide area links. ... The capabilities to inject arbitrary
// delay and jitter are under active development." We implement them.
//
// A Netem instance impairs one direction of one virtual wire: every frame
// handed to send() is delivered to the sink after base delay plus jitter,
// with optional loss, never reordered (the tunnel rides a TCP stream, which
// cannot reorder).

#include <cstdint>
#include <functional>
#include <memory>

#include "simnet/scheduler.h"
#include "util/bytes.h"
#include "util/metrics.h"

namespace rnl::wire {

struct NetemProfile {
  util::Duration delay{};   // base one-way delay
  util::Duration jitter{};  // uniform in [-jitter, +jitter]
  double loss_probability = 0.0;
  /// Approximate a bell curve by averaging `jitter_smoothing` uniform draws
  /// (1 = uniform; 4 ≈ gaussian-ish). Matches how operators describe WAN
  /// jitter distributions.
  int jitter_smoothing = 1;

  /// A couple of canonical WAN profiles used by examples and benches.
  static NetemProfile lan() { return {}; }
  static NetemProfile metro() {
    return {.delay = util::Duration::milliseconds(2),
            .jitter = util::Duration::microseconds(200)};
  }
  static NetemProfile transcontinental() {
    return {.delay = util::Duration::milliseconds(40),
            .jitter = util::Duration::milliseconds(3),
            .loss_probability = 0.0005,
            .jitter_smoothing = 4};
  }
  static NetemProfile intercontinental() {
    return {.delay = util::Duration::milliseconds(120),
            .jitter = util::Duration::milliseconds(8),
            .loss_probability = 0.002,
            .jitter_smoothing = 4};
  }
};

class Netem {
 public:
  using Sink = std::function<void(util::Bytes)>;

  Netem(simnet::Scheduler& scheduler, NetemProfile profile, Sink sink)
      : scheduler_(scheduler),
        profile_(profile),
        sink_(std::move(sink)),
        alive_(std::make_shared<int>(0)) {}

  [[nodiscard]] const NetemProfile& profile() const { return profile_; }

  /// Every non-lost frame records the delay actually applied (base + drawn
  /// jitter + FIFO hold) into `histogram`, in nanoseconds of simulated
  /// time — the measured distribution to compare against the configured
  /// profile. Non-owning; nullptr disables.
  void set_applied_delay_histogram(util::Histogram* histogram) {
    applied_delay_ = histogram;
  }

  /// Schedules delivery of `frame` through the impairment model.
  void send(util::BytesView frame);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }

 private:
  simnet::Scheduler& scheduler_;
  NetemProfile profile_;
  Sink sink_;
  util::Histogram* applied_delay_ = nullptr;
  util::SimTime fifo_floor_{};
  // Scheduled deliveries hold a weak reference: destroying the Netem (wire
  // torn down mid-flight) silently drops frames still "in the fiber".
  std::shared_ptr<int> alive_;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace rnl::wire
