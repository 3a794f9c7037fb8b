#pragma once

// Simulated physical ports and cables.
//
// A Port is one RJ45 socket: a router/switch/host interface, or one of the
// many NICs on a RIS PC (§2.2: "Each PC has a large number of network
// interfaces ... one for each router port it connects to"). A Cable joins two
// ports with configurable delay/jitter/loss/bandwidth. Frames delivered to a
// port invoke its receive handler; a promiscuous tap additionally observes
// both directions — this is the libpcap-equivalent RIS uses for capture.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "util/bytes.h"
#include "util/time.h"

namespace rnl::simnet {

class Scheduler;
class Cable;

struct PortStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t drops = 0;  // loss, down port, or unplugged cable
};

class Port {
 public:
  using FrameHandler = std::function<void(util::BytesView)>;
  /// Tap sees (direction_is_tx, frame) for both directions.
  using TapHandler = std::function<void(bool, util::BytesView)>;

  Port(Scheduler& scheduler, std::string name);
  ~Port();
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const PortStats& stats() const { return stats_; }

  /// Administrative state ("shutdown" on a router interface). A down port
  /// neither transmits nor receives.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool is_up() const { return up_; }
  /// Carrier: true when a cable is plugged in and the far end is up.
  [[nodiscard]] bool has_carrier() const;

  /// Transmits a frame out of this port onto the attached cable (if any).
  void transmit(util::BytesView frame);

  void set_receive_handler(FrameHandler handler) {
    receive_handler_ = std::move(handler);
  }
  void set_tap(TapHandler tap) { tap_ = std::move(tap); }

  [[nodiscard]] Cable* cable() const { return cable_; }

 private:
  friend class Cable;
  /// Called by the cable when a frame arrives from the far end.
  void deliver(util::BytesView frame);

  Scheduler& scheduler_;
  std::string name_;
  bool up_ = true;
  Cable* cable_ = nullptr;
  FrameHandler receive_handler_;
  TapHandler tap_;
  PortStats stats_;
};

struct CableProperties {
  util::Duration delay;                 // one-way propagation delay
  util::Duration jitter;                // uniform in [-jitter, +jitter]
  double loss_probability = 0.0;        // per-frame independent loss
  std::uint64_t bandwidth_bps = 0;      // 0 = infinite (no serialization delay)
};

/// A point-to-point cable between two ports. Frames are delivered in order
/// per direction even under jitter (an Ethernet cable never reorders).
class Cable {
 public:
  Cable(Scheduler& scheduler, Port& a, Port& b, CableProperties props = {});
  ~Cable();
  Cable(const Cable&) = delete;
  Cable& operator=(const Cable&) = delete;

  [[nodiscard]] Port& end_a() const { return a_; }
  [[nodiscard]] Port& end_b() const { return b_; }

 private:
  friend class Port;
  void carry(Port& from, util::BytesView frame);
  void drain(bool from_a);
  Port& other(const Port& port) const { return &port == &a_ ? b_ : a_; }

  /// A lane that drains empty keeps its buffer for the next frames unless
  /// a burst grew it past this many bytes.
  static constexpr std::size_t kMaxIdleLaneBytes = 256 * 1024;

  // In-flight frames of one direction, packed back to back into one
  // reusable byte buffer as [due][length][frame] records, due times
  // monotonic (the fifo floor guarantees it). Steady traffic reuses the
  // buffer instead of allocating per frame, and frames landing at the same
  // instant share one scheduled drain event — a line-rate burst is one
  // wakeup, not one heap-allocated closure per frame.
  struct Lane {
    util::Bytes records;  // [head, size) is in flight
    std::size_t head = 0;
    std::size_t frames = 0;  // in flight, including those a drain holds
    util::SimTime last_due;  // due time of the newest record
    // Earliest permissible delivery time: enforces FIFO ordering and
    // models transmit serialization back-pressure.
    util::SimTime floor;
  };

  Scheduler& scheduler_;
  Port& a_;
  Port& b_;
  CableProperties props_;
  Lane a_to_b_;
  Lane b_to_a_;
};

}  // namespace rnl::simnet
