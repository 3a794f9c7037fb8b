#include "devices/switch.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace rnl::devices {

namespace {
std::uint64_t mac_key(packet::MacAddress mac) {
  std::uint64_t v = 0;
  for (auto o : mac.octets) v = (v << 8) | o;
  return v;
}

std::uint32_t name_seed(const std::string& name) {
  std::uint32_t h = 2166136261u;
  for (char c : name) h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
  return h;
}
}  // namespace

std::string to_string(StpPortState state) {
  switch (state) {
    case StpPortState::kDisabled:
      return "disabled";
    case StpPortState::kBlocking:
      return "blocking";
    case StpPortState::kListening:
      return "listening";
    case StpPortState::kLearning:
      return "learning";
    case StpPortState::kForwarding:
      return "forwarding";
  }
  return "?";
}

std::string to_string(StpPortRole role) {
  switch (role) {
    case StpPortRole::kDisabled:
      return "disabled";
    case StpPortRole::kRoot:
      return "root";
    case StpPortRole::kDesignated:
      return "designated";
    case StpPortRole::kNonDesignated:
      return "non-designated";
  }
  return "?";
}

EthernetSwitch::EthernetSwitch(simnet::Network& net, std::string name,
                               std::size_t num_ports, Firmware firmware)
    : Device(net, name, firmware), cli_(name) {
  bridge_id_.priority = 0x8000;
  bridge_id_.mac = packet::MacAddress::local(name_seed(name));
  hello_seconds_ = this->firmware().stp_hello_seconds;
  forward_delay_seconds_ = this->firmware().stp_forward_delay_seconds;
  max_age_seconds_ = this->firmware().stp_max_age_seconds;
  root_id_ = bridge_id_;

  port_configs_.resize(num_ports);
  stp_ports_.resize(num_ports);
  for (std::size_t i = 0; i < num_ports; ++i) {
    std::string ifname = util::format("Gi0/%zu", i + 1);
    simnet::Port& port = add_port(ifname);
    port.set_receive_handler([this, i](util::BytesView bytes) {
      if (powered()) handle_frame(i, bytes);
    });
  }
  register_cli();
  // 1 Hz housekeeping: BPDU hellos, state transitions, table aging.
  schedule_periodic(util::Duration::seconds(1), [this] { stp_tick(); });
  recompute_roles();
}

void EthernetSwitch::on_reset() {
  mac_table_.clear();
  root_id_ = bridge_id_;
  root_path_cost_ = 0;
  root_port_.reset();
  topology_change_active_ = false;
  for (std::size_t i = 0; i < stp_ports_.size(); ++i) {
    stp_ports_[i] = StpPortInfo{};
    // Re-apply admin state: "shutdown" is configuration and survives a
    // power cycle; Device::power_on indiscriminately raised every port.
    port(i).set_up(powered() && !port_configs_[i].shutdown);
  }
  if (powered()) {
    schedule_periodic(util::Duration::seconds(1), [this] { stp_tick(); });
    recompute_roles();
  }
}

void EthernetSwitch::set_stp_enabled(bool enabled) {
  if (stp_enabled_ == enabled) return;
  stp_enabled_ = enabled;
  for (auto& sp : stp_ports_) {
    sp = StpPortInfo{};
  }
  recompute_roles();
}

void EthernetSwitch::set_bridge_priority(std::uint16_t priority) {
  bridge_id_.priority = priority;
  recompute_roles();
}

void EthernetSwitch::set_port_shutdown(std::size_t index, bool shutdown) {
  port_configs_.at(index).shutdown = shutdown;
  port(index).set_up(powered() && !shutdown);
  if (shutdown) {
    stp_ports_[index].heard.reset();
  }
  recompute_roles();
}

bool EthernetSwitch::is_root_bridge() const { return root_id_ == bridge_id_; }

std::optional<std::size_t> EthernetSwitch::lookup_mac(
    std::uint16_t vlan, packet::MacAddress mac) const {
  auto it = mac_table_.find({vlan, mac_key(mac)});
  if (it == mac_table_.end()) return std::nullopt;
  return it->second.port;
}

bool EthernetSwitch::port_usable(std::size_t port_index) const {
  const auto& cfg = port_configs_[port_index];
  const auto& p = ports_ref(port_index);
  return !cfg.shutdown && p.is_up() && p.has_carrier();
}

// Device stores ports privately; re-fetch through the public accessor.
// (Defined as a helper so port_usable can stay const.)
const simnet::Port& EthernetSwitch::ports_ref(std::size_t index) const {
  return const_cast<EthernetSwitch*>(this)->port(index);
}

bool EthernetSwitch::port_in_vlan(std::size_t port_index,
                                  std::uint16_t vlan) const {
  const auto& cfg = port_configs_[port_index];
  if (!cfg.trunk) return cfg.access_vlan == vlan;
  return cfg.allowed_vlans.empty() || cfg.allowed_vlans.contains(vlan);
}

void EthernetSwitch::handle_frame(std::size_t port_index,
                                  util::BytesView bytes) {
  if (!port_usable(port_index)) return;
  auto parsed = packet::EthernetFrame::parse(bytes);
  if (!parsed.ok()) return;  // runt/garbled frame: silently discarded
  packet::EthernetFrame frame = std::move(parsed).take();

  const PortConfig& cfg = port_configs_[port_index];

  // STP BPDUs are link-local: intercepted before any VLAN/forwarding logic.
  if (frame.dst == packet::MacAddress::stp_multicast() &&
      frame.ether_type == packet::EtherType::kLlc) {
    if (cfg.service_module && !firmware().supports_bpdu_forwarding) {
      // Fig 5 pitfall: this image cannot pass BPDUs on module-facing ports.
      return;
    }
    if (stp_enabled_) {
      auto bpdu = packet::Bpdu::parse_llc(frame.payload);
      if (bpdu.ok()) process_bpdu(port_index, *bpdu);
      return;
    }
    // STP disabled: BPDUs are ordinary multicast and get flooded below —
    // exactly the behaviour that lets a neighbour detect loops through us.
  }

  // VLAN classification at ingress.
  std::uint16_t vlan;
  if (!cfg.trunk) {
    if (frame.tag.has_value() && frame.tag->vlan != cfg.access_vlan) return;
    vlan = cfg.access_vlan;
  } else {
    vlan = frame.tag.has_value() ? frame.tag->vlan : cfg.native_vlan;
    if (!port_in_vlan(port_index, vlan)) return;
  }

  StpPortState state = stp_ports_[port_index].state;
  if (stp_enabled_ &&
      (state == StpPortState::kBlocking || state == StpPortState::kListening ||
       state == StpPortState::kDisabled)) {
    return;  // data traffic blocked on non-forwarding ports
  }

  // Source learning (learning + forwarding states).
  if (!frame.src.is_multicast()) {
    mac_table_[{vlan, mac_key(frame.src)}] =
        MacEntry{port_index, scheduler_.now()};
  }

  if (stp_enabled_ && state == StpPortState::kLearning) return;

  forward(port_index, vlan, frame);
}

void EthernetSwitch::forward(std::size_t ingress, std::uint16_t vlan,
                             const packet::EthernetFrame& frame) {
  if (!frame.dst.is_multicast()) {
    auto hit = lookup_mac(vlan, frame.dst);
    if (hit.has_value()) {
      if (*hit != ingress) {
        ++forwarded_;
        egress(*hit, vlan, frame);
      }
      return;
    }
  }
  // Unknown unicast / broadcast / multicast: flood the VLAN.
  ++floods_;
  for (std::size_t i = 0; i < port_count(); ++i) {
    if (i == ingress) continue;
    egress(i, vlan, frame);
  }
}

void EthernetSwitch::egress(std::size_t port_index, std::uint16_t vlan,
                            packet::EthernetFrame frame) {
  if (!port_usable(port_index) || !port_in_vlan(port_index, vlan)) return;
  if (stp_enabled_ &&
      stp_ports_[port_index].state != StpPortState::kForwarding) {
    return;
  }
  const PortConfig& cfg = port_configs_[port_index];
  if (!cfg.trunk || vlan == cfg.native_vlan) {
    frame.tag.reset();
  } else {
    frame.tag = packet::VlanTag{.pcp = frame.tag ? frame.tag->pcp
                                                 : std::uint8_t{0},
                                .vlan = vlan};
  }
  // Store-and-forward: a real switch takes microseconds per frame. Besides
  // realism, this guarantees virtual time advances even inside a forwarding
  // loop — a zero-latency loop would otherwise spin the scheduler at one
  // timestamp forever.
  schedule_once(kForwardingLatency,
                [this, port_index, wire = frame.serialize()] {
                  port(port_index).transmit(wire);
                });
}

// ---------------------------------------------------------------------------
// Spanning tree
// ---------------------------------------------------------------------------

EthernetSwitch::PriorityVector EthernetSwitch::own_vector() const {
  return PriorityVector{root_id_, root_path_cost_, bridge_id_, 0};
}

EthernetSwitch::PriorityVector EthernetSwitch::vector_of(
    const packet::Bpdu& bpdu) {
  return PriorityVector{bpdu.root, bpdu.root_path_cost, bpdu.bridge,
                        bpdu.port_id};
}

void EthernetSwitch::process_bpdu(std::size_t port_index,
                                  const packet::Bpdu& bpdu) {
  if (bpdu.type == packet::Bpdu::Type::kTcn) {
    // A downstream bridge reports a topology change; propagate toward the
    // root by flagging our own BPDUs (light-weight 802.1D: we skip the
    // TCA handshake, the observable effect — fast MAC aging — is kept).
    note_topology_change();
    return;
  }
  auto& sp = stp_ports_[port_index];
  // Keep the best information heard on this port; refresh expiry on
  // repeats of equal-or-better info.
  if (!sp.heard.has_value() || vector_of(bpdu) <= vector_of(*sp.heard)) {
    sp.heard = bpdu;
    std::uint16_t remaining =
        bpdu.max_age_seconds > bpdu.message_age_seconds
            ? static_cast<std::uint16_t>(bpdu.max_age_seconds -
                                         bpdu.message_age_seconds)
            : 1;
    sp.heard_expiry =
        scheduler_.now() + util::Duration::seconds(remaining);
    if (bpdu.topology_change) {
      // Root signals an active topology change: age MACs fast.
      mac_aging_ = util::Duration::seconds(forward_delay_seconds_);
    } else {
      mac_aging_ = util::Duration::seconds(300);
    }
    recompute_roles();
  }
}

void EthernetSwitch::recompute_roles() {
  if (!stp_enabled_) {
    for (std::size_t i = 0; i < stp_ports_.size(); ++i) {
      stp_ports_[i].role = StpPortRole::kDesignated;
      stp_ports_[i].state = port_usable(i) ? StpPortState::kForwarding
                                           : StpPortState::kDisabled;
    }
    return;
  }

  packet::BridgeId old_root = root_id_;
  std::optional<std::size_t> old_root_port = root_port_;

  // Elect the root and the root port.
  root_id_ = bridge_id_;
  root_path_cost_ = 0;
  root_port_.reset();
  std::optional<PriorityVector> best_path;
  for (std::size_t i = 0; i < stp_ports_.size(); ++i) {
    const auto& sp = stp_ports_[i];
    if (!port_usable(i) || !sp.heard.has_value()) continue;
    const packet::Bpdu& heard = *sp.heard;
    PriorityVector via{heard.root,
                       heard.root_path_cost + port_configs_[i].stp_cost,
                       heard.bridge, heard.port_id};
    if (via.root < bridge_id_) {
      if (!best_path.has_value() || via < *best_path) {
        best_path = via;
        root_port_ = i;
      }
    }
  }
  if (best_path.has_value()) {
    root_id_ = best_path->root;
    root_path_cost_ = best_path->cost;
  }

  // Assign the remaining roles.
  for (std::size_t i = 0; i < stp_ports_.size(); ++i) {
    auto& sp = stp_ports_[i];
    if (!port_usable(i)) {
      set_port_role(i, StpPortRole::kDisabled);
      continue;
    }
    if (root_port_.has_value() && i == *root_port_) {
      set_port_role(i, StpPortRole::kRoot);
      continue;
    }
    // Designated iff our information is superior to anything heard on the
    // port (or nothing heard).
    if (!sp.heard.has_value()) {
      set_port_role(i, StpPortRole::kDesignated);
      continue;
    }
    PriorityVector ours{root_id_, root_path_cost_, bridge_id_,
                        static_cast<std::uint16_t>(
                            (port_configs_[i].stp_port_priority << 8) |
                            (i + 1))};
    PriorityVector theirs = vector_of(*sp.heard);
    set_port_role(i, ours < theirs ? StpPortRole::kDesignated
                                   : StpPortRole::kNonDesignated);
  }

  if (old_root != root_id_ || old_root_port != root_port_) {
    note_topology_change();
  }
}

void EthernetSwitch::set_port_role(std::size_t port_index, StpPortRole role) {
  auto& sp = stp_ports_[port_index];
  if (sp.role == role) {
    // Keep a disabled port's state pinned even when the role is unchanged.
    if (role == StpPortRole::kDisabled) sp.state = StpPortState::kDisabled;
    return;
  }
  sp.role = role;
  switch (role) {
    case StpPortRole::kDisabled:
      sp.state = StpPortState::kDisabled;
      break;
    case StpPortRole::kNonDesignated:
      sp.state = StpPortState::kBlocking;
      break;
    case StpPortRole::kRoot:
    case StpPortRole::kDesignated:
      if (sp.state != StpPortState::kForwarding) {
        sp.state = StpPortState::kListening;
        sp.state_transition_due =
            scheduler_.now() + util::Duration::seconds(forward_delay_seconds_);
      }
      break;
  }
}

void EthernetSwitch::advance_port_states() {
  for (auto& sp : stp_ports_) {
    if (sp.state == StpPortState::kListening &&
        scheduler_.now() >= sp.state_transition_due) {
      sp.state = StpPortState::kLearning;
      sp.state_transition_due =
          scheduler_.now() + util::Duration::seconds(forward_delay_seconds_);
    } else if (sp.state == StpPortState::kLearning &&
               scheduler_.now() >= sp.state_transition_due) {
      sp.state = StpPortState::kForwarding;
      note_topology_change();
    }
  }
}

void EthernetSwitch::note_topology_change() {
  topology_change_active_ = true;
  topology_change_until_ =
      scheduler_.now() +
      util::Duration::seconds(max_age_seconds_ + forward_delay_seconds_);
  mac_aging_ = util::Duration::seconds(forward_delay_seconds_);
}

void EthernetSwitch::send_config_bpdus() {
  for (std::size_t i = 0; i < stp_ports_.size(); ++i) {
    const auto& sp = stp_ports_[i];
    if (sp.role != StpPortRole::kDesignated || !port_usable(i)) continue;
    if (port_configs_[i].service_module &&
        !firmware().supports_bpdu_forwarding) {
      continue;  // image cannot emit BPDUs toward service modules either
    }
    packet::Bpdu bpdu;
    bpdu.type = packet::Bpdu::Type::kConfig;
    bpdu.root = root_id_;
    bpdu.root_path_cost = root_path_cost_;
    bpdu.bridge = bridge_id_;
    bpdu.port_id = static_cast<std::uint16_t>(
        (port_configs_[i].stp_port_priority << 8) | (i + 1));
    bpdu.message_age_seconds = is_root_bridge() ? 0 : 1;
    bpdu.max_age_seconds = max_age_seconds_;
    bpdu.hello_time_seconds = hello_seconds_;
    bpdu.forward_delay_seconds = forward_delay_seconds_;
    bpdu.topology_change = topology_change_active_;
    util::Bytes wire = bpdu.to_frame(bridge_id_.mac).serialize();
    port(i).transmit(wire);
  }
}

void EthernetSwitch::stp_tick() {
  if (!powered()) return;
  if (stp_enabled_) {
    // Expire stale port information (lost neighbour / pulled cable).
    for (auto& sp : stp_ports_) {
      if (sp.heard.has_value() && scheduler_.now() >= sp.heard_expiry) {
        sp.heard.reset();
      }
    }
    // Recompute every tick: carrier may have come or gone since the last
    // look (cables are plugged/unplugged at deploy/teardown time), and
    // set_port_role() no-ops when nothing changed.
    recompute_roles();
    advance_port_states();

    if (topology_change_active_ &&
        scheduler_.now() >= topology_change_until_) {
      topology_change_active_ = false;
      mac_aging_ = util::Duration::seconds(300);
    }

    // Hello pacing: the 1 Hz tick sends every hello_seconds_ ticks.
    if (++hello_phase_ >= hello_seconds_) {
      hello_phase_ = 0;
      send_config_bpdus();
    }
  }
  age_tables();
}

void EthernetSwitch::age_tables() {
  for (auto it = mac_table_.begin(); it != mac_table_.end();) {
    if (scheduler_.now() - it->second.last_seen > mac_aging_) {
      it = mac_table_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

std::string EthernetSwitch::exec(const std::string& line) {
  if (auto common = handle_common_command(line)) return *common;
  return cli_.execute(line);
}

std::string EthernetSwitch::prompt() const { return cli_.prompt(); }

void EthernetSwitch::register_cli() {
  cli_.set_interface_validator(
      [this](const std::string& name) { return find_port(name) >= 0; });

  cli_.register_command(
      CliMode::kPrivExec, "show running-config",
      [this](const std::vector<std::string>&, bool) { return running_config(); });
  cli_.register_command(
      CliMode::kPrivExec, "show version",
      [this](const std::vector<std::string>&, bool) {
        return util::format("Switch %s, firmware %s, %zu ports\n",
                            name().c_str(), firmware().version.c_str(),
                            port_count());
      });
  cli_.register_command(
      CliMode::kPrivExec, "show spanning-tree",
      [this](const std::vector<std::string>&, bool) {
        std::string out = util::format(
            "Bridge ID %s\nRoot ID   %s%s\n", bridge_id_.to_string().c_str(),
            root_id_.to_string().c_str(),
            is_root_bridge() ? " (this bridge is the root)" : "");
        for (std::size_t i = 0; i < port_count(); ++i) {
          out += util::format(
              "  %-10s role %-14s state %-10s cost %u\n",
              port_names()[i].c_str(), to_string(stp_ports_[i].role).c_str(),
              to_string(stp_ports_[i].state).c_str(),
              port_configs_[i].stp_cost);
        }
        return out;
      });
  cli_.register_command(
      CliMode::kPrivExec, "show mac address-table",
      [this](const std::vector<std::string>&, bool) {
        std::string out = "Vlan  Mac Address        Port\n";
        for (const auto& [key, entry] : mac_table_) {
          packet::MacAddress mac;
          std::uint64_t v = key.second;
          for (int i = 5; i >= 0; --i) {
            mac.octets[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v);
            v >>= 8;
          }
          out += util::format("%-5u %s  %s\n", key.first,
                              mac.to_string().c_str(),
                              port_names()[entry.port].c_str());
        }
        return out;
      });

  cli_.register_command(
      CliMode::kGlobalConfig, "spanning-tree",
      [this](const std::vector<std::string>& args, bool negated) -> std::string {
        if (negated && args.empty()) {
          set_stp_enabled(false);
          return "";
        }
        if (args.empty()) {
          set_stp_enabled(true);
          return "";
        }
        if (args.size() == 2 && args[0] == "priority" &&
            util::is_number(args[1])) {
          set_bridge_priority(
              static_cast<std::uint16_t>(std::stoul(args[1])));
          return "";
        }
        if (args.size() == 2 && util::is_number(args[1])) {
          auto v = static_cast<std::uint16_t>(std::stoul(args[1]));
          if (args[0] == "hello-time") hello_seconds_ = v;
          else if (args[0] == "forward-delay") forward_delay_seconds_ = v;
          else if (args[0] == "max-age") max_age_seconds_ = v;
          else return "% Invalid spanning-tree parameter\n";
          return "";
        }
        return "% Invalid spanning-tree command\n";
      });

  cli_.register_command(
      CliMode::kInterfaceConfig, "shutdown",
      [this](const std::vector<std::string>&, bool negated) -> std::string {
        int idx = find_port(cli_.current_interface());
        if (idx < 0) return "% No interface selected\n";
        set_port_shutdown(static_cast<std::size_t>(idx), !negated);
        return "";
      });

  cli_.register_command(
      CliMode::kInterfaceConfig, "switchport",
      [this](const std::vector<std::string>& args, bool negated) -> std::string {
        int idx = find_port(cli_.current_interface());
        if (idx < 0) return "% No interface selected\n";
        PortConfig& cfg = port_configs_[static_cast<std::size_t>(idx)];
        if (args.size() == 2 && args[0] == "mode") {
          if (args[1] == "access") cfg.trunk = false;
          else if (args[1] == "trunk") cfg.trunk = true;
          else return "% Invalid switchport mode\n";
          recompute_roles();
          return "";
        }
        if (args.size() == 3 && args[0] == "access" && args[1] == "vlan" &&
            util::is_number(args[2])) {
          cfg.access_vlan = static_cast<std::uint16_t>(std::stoul(args[2]));
          return "";
        }
        if (args.size() >= 4 && args[0] == "trunk" && args[1] == "allowed" &&
            args[2] == "vlan") {
          cfg.allowed_vlans.clear();
          if (args[3] != "all") {
            for (const auto& part : util::split(args[3], ',')) {
              if (util::is_number(part)) {
                cfg.allowed_vlans.insert(
                    static_cast<std::uint16_t>(std::stoul(part)));
              }
            }
          }
          return "";
        }
        if (args.size() == 4 && args[0] == "trunk" && args[1] == "native" &&
            args[2] == "vlan" && util::is_number(args[3])) {
          cfg.native_vlan = static_cast<std::uint16_t>(std::stoul(args[3]));
          return "";
        }
        if (args.size() == 1 && args[0] == "service-module") {
          cfg.service_module = !negated;
          return "";
        }
        return "% Invalid switchport command\n";
      });

  cli_.register_command(
      CliMode::kInterfaceConfig, "spanning-tree",
      [this](const std::vector<std::string>& args, bool) -> std::string {
        int idx = find_port(cli_.current_interface());
        if (idx < 0) return "% No interface selected\n";
        PortConfig& cfg = port_configs_[static_cast<std::size_t>(idx)];
        if (args.size() == 2 && args[0] == "cost" && util::is_number(args[1])) {
          cfg.stp_cost = static_cast<std::uint32_t>(std::stoul(args[1]));
          recompute_roles();
          return "";
        }
        if (args.size() == 2 && args[0] == "port-priority" &&
            util::is_number(args[1])) {
          cfg.stp_port_priority = static_cast<std::uint8_t>(std::stoul(args[1]));
          return "";
        }
        return "% Invalid spanning-tree interface command\n";
      });
}

std::string EthernetSwitch::running_config() const {
  std::string out;
  out += "hostname " + cli_.hostname() + "\n!\n";
  if (!stp_enabled_) {
    out += "no spanning-tree\n";
  } else {
    out += util::format("spanning-tree priority %u\n", bridge_id_.priority);
    out += util::format("spanning-tree hello-time %u\n", hello_seconds_);
    out += util::format("spanning-tree forward-delay %u\n",
                        forward_delay_seconds_);
    out += util::format("spanning-tree max-age %u\n", max_age_seconds_);
  }
  out += "!\n";
  for (std::size_t i = 0; i < port_count(); ++i) {
    const PortConfig& cfg = port_configs_[i];
    out += "interface " + port_names()[i] + "\n";
    if (cfg.trunk) {
      out += " switchport mode trunk\n";
      if (!cfg.allowed_vlans.empty()) {
        std::string list;
        for (auto v : cfg.allowed_vlans) {
          if (!list.empty()) list += ",";
          list += std::to_string(v);
        }
        out += " switchport trunk allowed vlan " + list + "\n";
      }
      if (cfg.native_vlan != 1) {
        out += util::format(" switchport trunk native vlan %u\n",
                            cfg.native_vlan);
      }
    } else {
      out += " switchport mode access\n";
      out += util::format(" switchport access vlan %u\n", cfg.access_vlan);
    }
    if (cfg.service_module) out += " switchport service-module\n";
    if (cfg.stp_cost != 19) {
      out += util::format(" spanning-tree cost %u\n", cfg.stp_cost);
    }
    if (cfg.shutdown) out += " shutdown\n";
    out += "!\n";
  }
  return out;
}

}  // namespace rnl::devices
