#include "devices/firewall.h"

#include "util/strings.h"

namespace rnl::devices {

FirewallModule::FirewallModule(simnet::Network& net, std::string name,
                               Firmware firmware)
    : Device(net, std::move(name), std::move(firmware)), cli_(this->name()) {
  mac_ = packet::MacAddress::local(name_seed() ^ 0x00F00F00u);
  const char* names[3] = {"inside", "outside", "failover"};
  for (std::size_t i = 0; i < 3; ++i) {
    simnet::Port& p = add_port(names[i]);
    if (i == kFailover) {
      p.set_receive_handler([this](util::BytesView bytes) {
        if (powered()) handle_failover_frame(bytes);
      });
    } else {
      p.set_receive_handler([this, i](util::BytesView bytes) {
        if (powered()) handle_data(i, bytes);
      });
    }
  }
  boot_time_ = scheduler_.now();
  register_cli();
  schedule_periodic(util::Duration::milliseconds(100),
                    [this] { failover_tick(); });
}

void FirewallModule::on_reset() {
  connections_.clear();
  state_ = packet::FailoverState::kInit;
  peer_state_ = packet::FailoverState::kInit;
  peer_seen_ = false;
  boot_time_ = scheduler_.now();
  if (powered()) {
    schedule_periodic(util::Duration::milliseconds(100),
                      [this] { failover_tick(); });
  }
}

void FirewallModule::set_unit(std::uint8_t unit_id, std::uint8_t priority) {
  unit_id_ = unit_id;
  priority_ = priority;
}

void FirewallModule::set_failover_enabled(bool enabled) {
  failover_enabled_ = enabled;
  if (enabled) {
    state_ = packet::FailoverState::kInit;
    boot_time_ = scheduler_.now();
  }
}

void FirewallModule::set_failover_timers(util::Duration polltime,
                                         util::Duration holdtime) {
  polltime_ = polltime;
  holdtime_ = holdtime;
}

void FirewallModule::permit_inbound(std::uint8_t protocol,
                                    std::uint16_t dst_port) {
  inbound_permits_[{protocol, dst_port}] = true;
}

// ---------------------------------------------------------------------------
// Failover control plane
// ---------------------------------------------------------------------------

void FirewallModule::become(packet::FailoverState next) {
  if (state_ == next) return;
  state_ = next;
  if (next == packet::FailoverState::kActive) {
    last_became_active_ = scheduler_.now();
    ++failover_transitions_;
  }
}

void FirewallModule::failover_tick() {
  if (!failover_enabled_) return;

  // Hold timer: a standby that stops hearing its active peer takes over.
  if (peer_seen_ && scheduler_.now() - last_peer_hello_ > holdtime_) {
    peer_seen_ = false;
    peer_state_ = packet::FailoverState::kFailed;
    if (state_ == packet::FailoverState::kStandby ||
        state_ == packet::FailoverState::kInit) {
      become(packet::FailoverState::kActive);
    }
  }

  // Initial election: after three poll intervals with no peer, go active.
  if (state_ == packet::FailoverState::kInit && !peer_seen_ &&
      scheduler_.now() - boot_time_ > polltime_ * 3) {
    become(packet::FailoverState::kActive);
  }

  // Send a hello every polltime (tick runs at 100 ms; pace by phase).
  if (scheduler_.now() - last_hello_sent_ >= polltime_) {
    last_hello_sent_ = scheduler_.now();
    packet::FailoverHello hello;
    hello.unit_id = unit_id_;
    hello.state = state_;
    hello.priority = priority_;
    hello.peer_state = peer_state_;
    hello.sequence = hello_sequence_++;
    util::Bytes wire = hello.to_frame(mac_, failover_vlan_).serialize();
    port(kFailover).transmit(wire);
  }
}

void FirewallModule::handle_failover_frame(util::BytesView bytes) {
  if (!failover_enabled_) return;
  auto parsed = packet::EthernetFrame::parse(bytes);
  if (!parsed.ok() || parsed->ether_type != packet::EtherType::kFailover) {
    return;
  }
  auto hello = packet::FailoverHello::parse(parsed->payload);
  if (!hello.ok() || hello->unit_id == unit_id_) return;
  peer_seen_ = true;
  last_peer_hello_ = scheduler_.now();
  peer_state_ = hello->state;

  switch (state_) {
    case packet::FailoverState::kInit:
      // Peer exists: the election is by priority, then unit id.
      if (hello->state == packet::FailoverState::kActive) {
        become(packet::FailoverState::kStandby);
      } else if (hello->priority > priority_ ||
                 (hello->priority == priority_ && hello->unit_id < unit_id_)) {
        become(packet::FailoverState::kStandby);
      } else {
        become(packet::FailoverState::kActive);
      }
      break;
    case packet::FailoverState::kActive:
      // Split brain (both active): deterministic resolution, lower unit
      // id keeps the active role.
      if (hello->state == packet::FailoverState::kActive &&
          hello->unit_id < unit_id_) {
        become(packet::FailoverState::kStandby);
      }
      break;
    case packet::FailoverState::kStandby:
    case packet::FailoverState::kFailed:
      break;
  }
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

bool FirewallModule::extract_flow(const packet::Ipv4Packet& ip,
                                  bool from_inside, FlowKey& key) {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  if (ip.protocol == static_cast<std::uint8_t>(packet::IpProto::kUdp)) {
    auto udp = packet::UdpDatagram::parse(ip.payload);
    if (!udp.ok()) return false;
    src_port = udp->src_port;
    dst_port = udp->dst_port;
  } else if (ip.protocol == static_cast<std::uint8_t>(packet::IpProto::kTcp)) {
    auto tcp = packet::TcpSegment::parse(ip.payload);
    if (!tcp.ok()) return false;
    src_port = tcp->src_port;
    dst_port = tcp->dst_port;
  } else if (ip.protocol ==
             static_cast<std::uint8_t>(packet::IpProto::kIcmp)) {
    auto icmp = packet::IcmpPacket::parse(ip.payload);
    if (!icmp.ok()) return false;
    // Echo id doubles as the "port" so replies match requests.
    src_port = icmp->identifier;
    dst_port = icmp->identifier;
  } else {
    return false;
  }
  key.protocol = ip.protocol;
  if (from_inside) {
    key.inside_ip = ip.src.value;
    key.inside_port = src_port;
    key.outside_ip = ip.dst.value;
    key.outside_port = dst_port;
  } else {
    key.inside_ip = ip.dst.value;
    key.inside_port = dst_port;
    key.outside_ip = ip.src.value;
    key.outside_port = src_port;
  }
  return true;
}

void FirewallModule::handle_data(std::size_t ingress, util::BytesView bytes) {
  std::size_t egress = ingress == kInside ? kOutside : kInside;
  if (!is_active()) {
    ++counters_.dropped_standby;
    return;
  }
  auto parsed = packet::EthernetFrame::parse(bytes);
  if (!parsed.ok()) return;
  const packet::EthernetFrame& frame = *parsed;

  // BPDUs: the Fig 5 knob.
  if (frame.dst == packet::MacAddress::stp_multicast() &&
      frame.ether_type == packet::EtherType::kLlc) {
    if (bpdu_forward_) {
      ++counters_.bpdus_forwarded;
      port(egress).transmit(bytes);
    } else {
      ++counters_.bpdus_dropped;
    }
    return;
  }

  // ARP passes transparently in both directions (the module is a bridge).
  if (frame.ether_type == packet::EtherType::kArp) {
    port(egress).transmit(bytes);
    return;
  }

  if (frame.ether_type != packet::EtherType::kIpv4) {
    // Non-IP, non-ARP traffic is dropped by the transparent firewall.
    ++counters_.denied;
    return;
  }
  auto ip = packet::Ipv4Packet::parse(frame.payload);
  if (!ip.ok()) {
    ++counters_.denied;
    return;
  }

  FlowKey key;
  bool have_flow = extract_flow(*ip, ingress == kInside, key);

  if (ingress == kInside) {
    // Inside-out: always permitted; establishes state.
    if (have_flow) connections_[key] = scheduler_.now();
    ++counters_.inside_out;
    port(egress).transmit(bytes);
    return;
  }

  // Outside-in: must match an established flow or an inbound permit.
  bool permitted = false;
  if (have_flow) {
    auto it = connections_.find(key);
    if (it != connections_.end()) {
      if (scheduler_.now() - it->second <= connection_idle_timeout_) {
        it->second = scheduler_.now();
        permitted = true;
      } else {
        connections_.erase(it);
      }
    }
    if (!permitted &&
        inbound_permits_.contains({key.protocol, key.inside_port})) {
      permitted = true;
    }
  }
  if (permitted) {
    ++counters_.outside_in;
    port(egress).transmit(bytes);
  } else {
    ++counters_.denied;
  }
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

std::string FirewallModule::exec(const std::string& line) {
  if (auto common = handle_common_command(line)) return *common;
  return cli_.execute(line);
}

std::string FirewallModule::prompt() const { return cli_.prompt(); }

void FirewallModule::register_cli() {
  cli_.register_command(
      CliMode::kPrivExec, "show running-config",
      [this](const std::vector<std::string>&, bool) { return running_config(); });
  cli_.register_command(
      CliMode::kPrivExec, "show failover",
      [this](const std::vector<std::string>&, bool) {
        return util::format(
            "Failover %s\nThis unit: %u (%s), priority %u\nPeer: %s\n"
            "Poll %lldms, hold %lldms, transitions %u\n",
            failover_enabled_ ? "On" : "Off", unit_id_,
            packet::to_string(state_).c_str(), priority_,
            packet::to_string(peer_state_).c_str(),
            static_cast<long long>(polltime_.nanos / 1'000'000),
            static_cast<long long>(holdtime_.nanos / 1'000'000),
            failover_transitions_);
      });
  cli_.register_command(
      CliMode::kGlobalConfig, "failover",
      [this](const std::vector<std::string>& args, bool negated) -> std::string {
        if (args.empty()) {
          set_failover_enabled(!negated);
          return "";
        }
        if (args.size() == 3 && args[0] == "lan" && args[1] == "unit") {
          if (args[2] == "primary") set_unit(0, priority_);
          else if (args[2] == "secondary") set_unit(1, priority_);
          else return "% Expected primary or secondary\n";
          return "";
        }
        if (args.size() == 3 && args[0] == "polltime" && args[1] == "msec" &&
            util::is_number(args[2])) {
          polltime_ = util::Duration::milliseconds(std::stol(args[2]));
          return "";
        }
        if (args.size() == 3 && args[0] == "holdtime" && args[1] == "msec" &&
            util::is_number(args[2])) {
          holdtime_ = util::Duration::milliseconds(std::stol(args[2]));
          return "";
        }
        if (args.size() == 2 && args[0] == "priority" &&
            util::is_number(args[1])) {
          priority_ = static_cast<std::uint8_t>(std::stoul(args[1]));
          return "";
        }
        return "% Invalid failover command\n";
      });
  cli_.register_command(
      CliMode::kGlobalConfig, "bpdu-forward",
      [this](const std::vector<std::string>&, bool negated) -> std::string {
        set_bpdu_forward(!negated);
        return "";
      });
  cli_.register_command(
      CliMode::kGlobalConfig, "permit-inbound",
      [this](const std::vector<std::string>& args, bool) -> std::string {
        if (args.size() != 2 || !util::is_number(args[1])) {
          return "% Usage: permit-inbound tcp|udp|icmp <port>\n";
        }
        std::uint8_t proto;
        if (args[0] == "tcp") proto = 6;
        else if (args[0] == "udp") proto = 17;
        else if (args[0] == "icmp") proto = 1;
        else return "% Unknown protocol\n";
        permit_inbound(proto, static_cast<std::uint16_t>(std::stoul(args[1])));
        return "";
      });
}

std::string FirewallModule::running_config() const {
  std::string out = "hostname " + cli_.hostname() + "\n!\n";
  if (bpdu_forward_) out += "bpdu-forward\n";
  for (const auto& [key, enabled] : inbound_permits_) {
    if (!enabled) continue;
    const char* proto = key.first == 6 ? "tcp" : key.first == 17 ? "udp" : "icmp";
    out += util::format("permit-inbound %s %u\n", proto, key.second);
  }
  out += util::format("failover lan unit %s\n",
                      unit_id_ == 0 ? "primary" : "secondary");
  out += util::format("failover priority %u\n", priority_);
  out += util::format("failover polltime msec %lld\n",
                      static_cast<long long>(polltime_.nanos / 1'000'000));
  out += util::format("failover holdtime msec %lld\n",
                      static_cast<long long>(holdtime_.nanos / 1'000'000));
  if (failover_enabled_) out += "failover\n";
  return out;
}

}  // namespace rnl::devices
