#pragma once

// Catalyst-style Ethernet switch: MAC learning, 802.1Q VLANs, and a real
// 802.1D spanning-tree implementation exchanging BPDUs on the wire.
//
// This is the device Fig 5's failover lab is built from. STP runs as one
// instance spanning all VLANs (classic 802.1D). Disabling STP — or running a
// firmware image that cannot pass BPDUs to service modules — lets users
// reproduce the forwarding-loop transient the paper describes (§3.1).

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "devices/cli.h"
#include "devices/device.h"
#include "packet/ethernet.h"
#include "packet/stp.h"

namespace rnl::devices {

enum class StpPortState { kDisabled, kBlocking, kListening, kLearning, kForwarding };
enum class StpPortRole { kDisabled, kRoot, kDesignated, kNonDesignated };

std::string to_string(StpPortState state);
std::string to_string(StpPortRole role);

class EthernetSwitch : public Device {
 public:
  struct PortConfig {
    bool shutdown = false;
    bool trunk = false;                     // false = access mode
    std::uint16_t access_vlan = 1;
    std::set<std::uint16_t> allowed_vlans;  // trunk; empty = all
    std::uint16_t native_vlan = 1;          // trunk untagged traffic
    std::uint32_t stp_cost = 19;            // classic 100 Mb/s default
    std::uint8_t stp_port_priority = 128;
    /// Port faces a service module (FWSM). BPDU passthrough on such ports
    /// requires firmware support — the Fig 5 pitfall.
    bool service_module = false;
  };

  /// Per-frame store-and-forward latency of the switching fabric.
  static constexpr util::Duration kForwardingLatency =
      util::Duration::microseconds(2);

  EthernetSwitch(simnet::Network& net, std::string name,
                 std::size_t num_ports,
                 Firmware firmware = FirmwareCatalog::instance().default_image());

  // -- Device interface --
  std::string exec(const std::string& line) override;
  [[nodiscard]] std::string prompt() const override;
  [[nodiscard]] std::string running_config() const override;

  // -- Programmatic configuration (mirrors the CLI; used by tests/benches) --
  void set_stp_enabled(bool enabled);
  void set_bridge_priority(std::uint16_t priority);
  void set_stp_timers(std::uint16_t hello_s, std::uint16_t forward_delay_s,
                      std::uint16_t max_age_s);
  PortConfig& port_config(std::size_t index) { return port_configs_.at(index); }
  void set_port_shutdown(std::size_t index, bool shutdown);

  // -- Introspection --
  [[nodiscard]] packet::BridgeId bridge_id() const { return bridge_id_; }
  [[nodiscard]] bool is_root_bridge() const;
  [[nodiscard]] StpPortState stp_state(std::size_t index) const {
    return stp_ports_.at(index).state;
  }
  [[nodiscard]] StpPortRole stp_role(std::size_t index) const {
    return stp_ports_.at(index).role;
  }
  /// (vlan, mac) -> port index.
  [[nodiscard]] std::optional<std::size_t> lookup_mac(
      std::uint16_t vlan, packet::MacAddress mac) const;
  [[nodiscard]] std::size_t mac_table_size() const { return mac_table_.size(); }
  [[nodiscard]] std::uint64_t flood_count() const { return floods_; }
  [[nodiscard]] std::uint64_t forwarded_count() const { return forwarded_; }

 protected:
  void on_reset() override;

 private:
  struct StpPortInfo {
    StpPortState state = StpPortState::kBlocking;
    StpPortRole role = StpPortRole::kNonDesignated;
    // Best (superior) config BPDU heard on this port, if any, plus expiry.
    std::optional<packet::Bpdu> heard;
    util::SimTime heard_expiry{};
    util::SimTime state_transition_due{};
  };

  struct MacEntry {
    std::size_t port = 0;
    util::SimTime last_seen{};
  };

  void register_cli();
  void handle_frame(std::size_t port_index, util::BytesView bytes);
  void forward(std::size_t ingress, std::uint16_t vlan,
               const packet::EthernetFrame& frame);
  void egress(std::size_t port_index, std::uint16_t vlan,
              packet::EthernetFrame frame);
  [[nodiscard]] bool port_in_vlan(std::size_t port_index,
                                  std::uint16_t vlan) const;
  [[nodiscard]] bool port_usable(std::size_t port_index) const;
  [[nodiscard]] const simnet::Port& ports_ref(std::size_t index) const;

  // STP machinery.
  void stp_tick();
  void process_bpdu(std::size_t port_index, const packet::Bpdu& bpdu);
  void recompute_roles();
  void send_config_bpdus();
  void set_port_role(std::size_t port_index, StpPortRole role);
  void advance_port_states();
  /// Priority vector for comparing BPDUs: lower is better.
  struct PriorityVector {
    packet::BridgeId root;
    std::uint32_t cost = 0;
    packet::BridgeId bridge;
    std::uint16_t port_id = 0;
    auto operator<=>(const PriorityVector&) const = default;
  };
  [[nodiscard]] PriorityVector own_vector() const;
  [[nodiscard]] static PriorityVector vector_of(const packet::Bpdu& bpdu);
  void note_topology_change();

  void age_tables();

  CliEngine cli_;
  packet::BridgeId bridge_id_;
  bool stp_enabled_ = true;
  std::uint16_t hello_seconds_;
  std::uint16_t forward_delay_seconds_;
  std::uint16_t max_age_seconds_;

  // Current spanning-tree view.
  packet::BridgeId root_id_;
  std::uint32_t root_path_cost_ = 0;
  std::optional<std::size_t> root_port_;
  bool topology_change_active_ = false;
  util::SimTime topology_change_until_{};

  std::vector<PortConfig> port_configs_;
  std::vector<StpPortInfo> stp_ports_;
  std::map<std::pair<std::uint16_t, std::uint64_t>, MacEntry> mac_table_;
  util::Duration mac_aging_{util::Duration::seconds(300)};

  std::uint16_t hello_phase_ = 0;
  std::uint64_t floods_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace rnl::devices
