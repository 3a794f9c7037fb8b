#pragma once

// FWSM-style transparent firewall module with active/standby failover
// (Fig 5).
//
// Data plane: a layer-2 transparent firewall bridging its `inside` port to
// its `outside` port. Inside-initiated connections are tracked; outside-
// initiated traffic needs an explicit permit. BPDUs cross only when
// configured ("the manual states ... the user must configure the FWSM to
// allow BPDUs" — missing this is the pitfall the paper highlights).
//
// Control plane: hellos on the dedicated failover port. A standby unit that
// misses `holdtime` of hellos promotes itself to active; the experiment
// measures that convergence window.

#include <cstdint>
#include <map>
#include <string>

#include "devices/cli.h"
#include "devices/device.h"
#include "packet/ethernet.h"
#include "packet/failover.h"
#include "packet/ipv4.h"

namespace rnl::devices {

class FirewallModule : public Device {
 public:
  static constexpr std::size_t kInside = 0;
  static constexpr std::size_t kOutside = 1;
  static constexpr std::size_t kFailover = 2;

  struct Counters {
    std::uint64_t inside_out = 0;
    std::uint64_t outside_in = 0;
    std::uint64_t denied = 0;
    std::uint64_t bpdus_forwarded = 0;
    std::uint64_t bpdus_dropped = 0;
    std::uint64_t dropped_standby = 0;
  };

  FirewallModule(simnet::Network& net, std::string name,
                 Firmware firmware = FirmwareCatalog::instance().default_image());

  std::string exec(const std::string& line) override;
  [[nodiscard]] std::string prompt() const override;
  [[nodiscard]] std::string running_config() const override;

  // -- Configuration --
  void set_unit(std::uint8_t unit_id, std::uint8_t priority = 100);
  void set_failover_enabled(bool enabled);
  void set_failover_timers(util::Duration polltime, util::Duration holdtime);
  void set_bpdu_forward(bool enabled) { bpdu_forward_ = enabled; }
  /// Permits outside-initiated traffic to `dst_port` for tcp/udp.
  void permit_inbound(std::uint8_t protocol, std::uint16_t dst_port);

  // -- Introspection --
  [[nodiscard]] packet::FailoverState state() const { return state_; }
  [[nodiscard]] bool is_active() const {
    return state_ == packet::FailoverState::kActive || !failover_enabled_;
  }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] util::SimTime last_became_active() const {
    return last_became_active_;
  }
  [[nodiscard]] bool bpdu_forward() const { return bpdu_forward_; }
  [[nodiscard]] std::size_t connection_count() const {
    return connections_.size();
  }

 protected:
  void on_reset() override;

 private:
  struct FlowKey {
    std::uint8_t protocol = 0;
    std::uint32_t inside_ip = 0;
    std::uint16_t inside_port = 0;
    std::uint32_t outside_ip = 0;
    std::uint16_t outside_port = 0;
    auto operator<=>(const FlowKey&) const = default;
  };

  void register_cli();
  void handle_data(std::size_t ingress, util::BytesView bytes);
  void handle_failover_frame(util::BytesView bytes);
  void failover_tick();
  void become(packet::FailoverState next);
  /// Extracts a flow key from an IPv4 frame; `from_inside` fixes direction.
  [[nodiscard]] static bool extract_flow(const packet::Ipv4Packet& ip,
                                         bool from_inside, FlowKey& key);

  CliEngine cli_;
  packet::MacAddress mac_;

  bool bpdu_forward_ = false;
  std::map<std::pair<std::uint8_t, std::uint16_t>, bool> inbound_permits_;
  std::map<FlowKey, util::SimTime> connections_;
  util::Duration connection_idle_timeout_{util::Duration::seconds(300)};

  bool failover_enabled_ = false;
  std::uint8_t unit_id_ = 0;
  std::uint8_t priority_ = 100;
  std::uint16_t failover_vlan_ = 10;
  util::Duration polltime_{util::Duration::milliseconds(500)};
  util::Duration holdtime_{util::Duration::milliseconds(1500)};
  packet::FailoverState state_ = packet::FailoverState::kInit;
  packet::FailoverState peer_state_ = packet::FailoverState::kInit;
  util::SimTime last_peer_hello_{};
  bool peer_seen_ = false;
  std::uint32_t hello_sequence_ = 0;
  util::SimTime last_hello_sent_{};
  util::SimTime boot_time_{};
  util::SimTime last_became_active_{};
  std::uint32_t failover_transitions_ = 0;

  Counters counters_;
};

}  // namespace rnl::devices
