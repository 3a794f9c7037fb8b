#include "simnet/port.h"

#include <cstring>

#include "simnet/scheduler.h"
#include "util/logging.h"

namespace rnl::simnet {

namespace {
struct RecordHeader {
  std::int64_t due_ns;
  std::size_t length;
};
}  // namespace

Port::Port(Scheduler& scheduler, std::string name)
    : scheduler_(scheduler), name_(std::move(name)) {}

Port::~Port() {
  // Unplug: the cable outlives neither endpoint in normal use, but guard
  // against teardown order by detaching explicitly.
  if (cable_ != nullptr) {
    Cable* cable = cable_;
    cable->a_.cable_ = nullptr;
    cable->b_.cable_ = nullptr;
  }
}

bool Port::has_carrier() const {
  return cable_ != nullptr && cable_->other(*this).is_up();
}

void Port::transmit(util::BytesView frame) {
  if (!up_ || cable_ == nullptr) {
    ++stats_.drops;
    return;
  }
  ++stats_.tx_frames;
  stats_.tx_bytes += frame.size();
  if (tap_) tap_(true, frame);
  cable_->carry(*this, frame);
}

void Port::deliver(util::BytesView frame) {
  if (!up_) {
    ++stats_.drops;
    return;
  }
  ++stats_.rx_frames;
  stats_.rx_bytes += frame.size();
  if (tap_) tap_(false, frame);
  if (receive_handler_) receive_handler_(frame);
}

Cable::Cable(Scheduler& scheduler, Port& a, Port& b, CableProperties props)
    : scheduler_(scheduler), a_(a), b_(b), props_(props) {
  if (a_.cable_ != nullptr || b_.cable_ != nullptr) {
    throw std::logic_error("Cable: port already wired: " + a.name() + " / " +
                           b.name());
  }
  a_.cable_ = this;
  b_.cable_ = this;
  a_to_b_.floor = scheduler.now();
  b_to_a_.floor = scheduler.now();
}

Cable::~Cable() {
  if (a_.cable_ == this) a_.cable_ = nullptr;
  if (b_.cable_ == this) b_.cable_ = nullptr;
}

void Cable::carry(Port& from, util::BytesView frame) {
  Port& to = other(from);
  if (props_.loss_probability > 0 &&
      scheduler_.rng().chance(props_.loss_probability)) {
    ++from.stats_.drops;
    return;
  }
  util::Duration latency = props_.delay;
  if (props_.jitter.nanos > 0) {
    latency += util::Duration{scheduler_.rng().range(-props_.jitter.nanos,
                                                     props_.jitter.nanos)};
  }
  if (latency.nanos < 0) latency = {};
  util::Duration serialization{};
  if (props_.bandwidth_bps > 0) {
    serialization = util::Duration{static_cast<std::int64_t>(
        static_cast<double>(frame.size()) * 8.0 * 1e9 /
        static_cast<double>(props_.bandwidth_bps))};
  }
  const bool from_a = &from == &a_;
  Lane& lane = from_a ? a_to_b_ : b_to_a_;
  util::SimTime arrival = scheduler_.now() + serialization + latency;
  if (arrival < lane.floor) arrival = lane.floor;  // a cable never reorders
  lane.floor = arrival;

  // The scheduled delivery must survive neither endpoint being torn down
  // mid-flight (reservation expiry can unwire a live lab): the cable pointer
  // is re-validated at delivery time via the destination port's cable link.
  //
  // Frames with the same arrival instant coalesce onto the event already
  // scheduled for that instant: the due times are monotonic per direction,
  // so a new event is needed only when the arrival time advances.
  const bool need_event = lane.frames == 0 || lane.last_due != arrival;
  const RecordHeader header{arrival.nanos, frame.size()};
  const auto* header_bytes = reinterpret_cast<const std::uint8_t*>(&header);
  lane.records.insert(lane.records.end(), header_bytes,
                      header_bytes + sizeof header);
  lane.records.insert(lane.records.end(), frame.begin(), frame.end());
  ++lane.frames;
  lane.last_due = arrival;
  if (!need_event) return;
  Cable* self = this;
  Port* dest = &to;
  // Two pointers fit std::function's inline buffer, so scheduling the drain
  // allocates nothing; the direction is derived from `dest` once the
  // wiring check has shown `self` is alive.
  scheduler_.schedule_at(arrival, [self, dest] {
    // If the cable was unplugged (or re-plugged elsewhere) while the frame
    // was in flight, the photon dies in the fiber. The check also keeps the
    // lambda from touching a freed Cable: `dest->cable_` only equals `self`
    // while `self` is alive and still wired to `dest`.
    if (dest->cable_ != self) return;
    self->drain(/*from_a=*/dest == &self->b_);
  });
}

void Cable::drain(bool from_a) {
  Lane& lane = from_a ? a_to_b_ : b_to_a_;
  Port& dest = from_a ? b_ : a_;
  const util::SimTime now = scheduler_.now();
  // Deliver everything due by now. The drain holds the lane's records while
  // it hands frames over as views into them. A receive handler may transmit
  // onto this lane reentrantly (its records land in the emptied lane buffer
  // and join the held ones once the handler returns) or unplug the cable
  // outright (the held bytes then die with this call, not under the
  // handler). The wiring check runs first after each delivery: once it
  // fails, no member of a possibly-destroyed Cable is touched.
  util::Bytes held = std::move(lane.records);
  std::size_t head = lane.head;
  lane.head = 0;
  while (head < held.size()) {
    RecordHeader header{};
    std::memcpy(&header, held.data() + head, sizeof header);
    if (header.due_ns > now.nanos) break;
    const util::BytesView frame(held.data() + head + sizeof header,
                                header.length);
    head += sizeof header + header.length;
    --lane.frames;
    dest.deliver(frame);
    if (dest.cable_ != this) return;
    if (!lane.records.empty()) {
      held.insert(held.end(), lane.records.begin(), lane.records.end());
      lane.records.clear();
    }
  }
  // Reclaim the delivered prefix: all of it once the lane is empty, else
  // when it outweighs the frames still in flight (one memmove per byte at
  // most, amortized).
  if (head == held.size()) {
    held.clear();
    head = 0;
    if (held.capacity() > kMaxIdleLaneBytes) util::Bytes().swap(held);
  } else if (head >= held.size() - head) {
    held.erase(held.begin(), held.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  lane.records = std::move(held);
  lane.head = head;
}

}  // namespace rnl::simnet
