#include "devices/router.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace rnl::devices {

bool AclEntry::matches(const packet::Ipv4Packet& pkt) const {
  if (protocol != 0 && pkt.protocol != protocol) return false;
  if ((pkt.src.value & ~src_wildcard) != (src.value & ~src_wildcard)) {
    return false;
  }
  if ((pkt.dst.value & ~dst_wildcard) != (dst.value & ~dst_wildcard)) {
    return false;
  }
  if (dst_port_eq.has_value()) {
    std::uint16_t port = 0;
    if (pkt.protocol == static_cast<std::uint8_t>(packet::IpProto::kUdp)) {
      auto udp = packet::UdpDatagram::parse(pkt.payload);
      if (!udp.ok()) return false;
      port = udp->dst_port;
    } else if (pkt.protocol ==
               static_cast<std::uint8_t>(packet::IpProto::kTcp)) {
      auto tcp = packet::TcpSegment::parse(pkt.payload);
      if (!tcp.ok()) return false;
      port = tcp->dst_port;
    } else {
      return false;
    }
    if (port != *dst_port_eq) return false;
  }
  return true;
}

std::string AclEntry::to_string() const {
  std::string proto = "ip";
  if (protocol == static_cast<std::uint8_t>(packet::IpProto::kIcmp)) proto = "icmp";
  if (protocol == static_cast<std::uint8_t>(packet::IpProto::kTcp)) proto = "tcp";
  if (protocol == static_cast<std::uint8_t>(packet::IpProto::kUdp)) proto = "udp";
  auto side = [](packet::Ipv4Address a, std::uint32_t w) -> std::string {
    if (w == 0xFFFFFFFF) return "any";
    if (w == 0) return "host " + a.to_string();
    return a.to_string() + " " + packet::Ipv4Address{w}.to_string();
  };
  std::string out = permit ? "permit " : "deny ";
  out += proto + " " + side(src, src_wildcard) + " " + side(dst, dst_wildcard);
  if (dst_port_eq.has_value()) out += " eq " + std::to_string(*dst_port_eq);
  return out;
}

Ipv4Router::Ipv4Router(simnet::Network& net, std::string name,
                       std::size_t num_ports, Firmware firmware)
    : Device(net, name, firmware), cli_(name) {
  interfaces_.resize(num_ports);
  for (std::size_t i = 0; i < num_ports; ++i) {
    std::string ifname = util::format("Gi0/%zu", i + 1);
    simnet::Port& port = add_port(ifname);
    macs_.push_back(
        packet::MacAddress::local(name_seed() * 31 +
                                  static_cast<std::uint32_t>(i) + 1));
    port.set_receive_handler([this, i](util::BytesView bytes) {
      if (powered()) handle_frame(i, bytes);
    });
  }
  register_cli();
}

void Ipv4Router::on_reset() {
  arp_cache_.clear();
  arp_pending_.clear();
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    port(i).set_up(powered() && !interfaces_[i].shutdown);
  }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

void Ipv4Router::set_interface_address(std::size_t index,
                                       packet::Ipv4Prefix prefix) {
  interfaces_.at(index).address = prefix;
}

void Ipv4Router::set_interface_shutdown(std::size_t index, bool shutdown) {
  interfaces_.at(index).shutdown = shutdown;
  port(index).set_up(powered() && !shutdown);
}

void Ipv4Router::set_interface_acl(std::size_t index, bool inbound,
                                   int acl_number) {
  if (inbound) {
    interfaces_.at(index).acl_in = acl_number;
  } else {
    interfaces_.at(index).acl_out = acl_number;
  }
}

void Ipv4Router::add_static_route(packet::Ipv4Prefix prefix,
                                  packet::Ipv4Address next_hop) {
  remove_static_route(prefix);
  static_routes_.push_back(
      RouteEntry{prefix, next_hop, -1, /*is_static=*/true});
}

void Ipv4Router::remove_static_route(packet::Ipv4Prefix prefix) {
  std::erase_if(static_routes_, [prefix](const RouteEntry& r) {
    return r.prefix == prefix;
  });
}

void Ipv4Router::add_acl_entry(int number, AclEntry entry) {
  acls_[number].push_back(entry);
}

void Ipv4Router::clear_acl(int number) { acls_.erase(number); }

std::vector<Ipv4Router::RouteEntry> Ipv4Router::routing_table() const {
  std::vector<RouteEntry> table;
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    const auto& cfg = interfaces_[i];
    if (cfg.address.has_value() && !cfg.shutdown) {
      packet::Ipv4Prefix net{
          packet::Ipv4Address{cfg.address->network.value & cfg.address->mask()},
          cfg.address->length};
      table.push_back(RouteEntry{net, {}, static_cast<int>(i), false});
    }
  }
  table.insert(table.end(), static_routes_.begin(), static_routes_.end());
  return table;
}

std::optional<packet::MacAddress> Ipv4Router::arp_lookup(
    packet::Ipv4Address ip) const {
  auto it = arp_cache_.find(ip.value);
  if (it == arp_cache_.end()) return std::nullopt;
  return it->second.mac;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void Ipv4Router::handle_frame(std::size_t port_index, util::BytesView bytes) {
  if (interfaces_[port_index].shutdown) return;
  auto parsed = packet::EthernetFrame::parse(bytes);
  if (!parsed.ok()) return;
  const packet::EthernetFrame& frame = *parsed;
  // Routers are not promiscuous: accept only frames addressed to us.
  if (frame.dst != macs_[port_index] && !frame.dst.is_broadcast() &&
      !frame.dst.is_multicast()) {
    return;
  }
  if (frame.ether_type == packet::EtherType::kArp) {
    auto arp = packet::ArpPacket::parse(frame.payload);
    if (arp.ok()) handle_arp(port_index, *arp);
    return;
  }
  if (frame.ether_type == packet::EtherType::kIpv4) {
    auto ip = packet::Ipv4Packet::parse(frame.payload);
    if (ip.ok()) handle_ipv4(port_index, std::move(ip).take());
    return;
  }
  // Everything else (BPDUs, failover hellos, ...) is not for a router.
}

void Ipv4Router::handle_arp(std::size_t port_index,
                            const packet::ArpPacket& arp) {
  const auto& cfg = interfaces_[port_index];
  if (!cfg.address.has_value()) return;
  // Learn the sender either way (standard ARP optimization).
  if (!arp.sender_ip.is_zero()) {
    arp_cache_[arp.sender_ip.value] = ArpEntry{arp.sender_mac, scheduler_.now()};
    // Flush any packets that were waiting on this resolution.
    auto pending = arp_pending_.find(arp.sender_ip.value);
    if (pending != arp_pending_.end()) {
      auto packets = std::move(pending->second);
      arp_pending_.erase(pending);
      for (auto& item : packets) {
        send_on_interface(static_cast<std::size_t>(item.egress), arp.sender_ip,
                          std::move(item.packet));
      }
    }
  }
  if (arp.op == packet::ArpPacket::Op::kRequest &&
      arp.target_ip == cfg.address->network) {
    auto reply = packet::ArpPacket::make_reply(
        macs_[port_index], cfg.address->network, arp.sender_mac, arp.sender_ip);
    util::Bytes wire = reply.serialize();
    port(port_index).transmit(wire);
  }
}

bool Ipv4Router::is_own_address(packet::Ipv4Address ip) const {
  for (const auto& cfg : interfaces_) {
    if (cfg.address.has_value() && cfg.address->network == ip) return true;
  }
  return false;
}

bool Ipv4Router::acl_permits(int acl_number, const packet::Ipv4Packet& pkt) {
  if (acl_number == 0) return true;
  auto it = acls_.find(acl_number);
  // An access-group referencing an undefined list permits everything (IOS
  // behaviour — and a classic source of false confidence in configs).
  if (it == acls_.end()) return true;
  for (const auto& entry : it->second) {
    if (entry.matches(pkt)) return entry.permit;
  }
  return false;  // implicit deny
}

void Ipv4Router::handle_ipv4(std::size_t port_index,
                             packet::Ipv4Packet packet) {
  const auto& cfg = interfaces_[port_index];
  if (!acl_permits(cfg.acl_in, packet)) {
    ++counters_.acl_denied;
    return;
  }
  if (is_own_address(packet.dst)) {
    deliver_local(port_index, packet);
    return;
  }
  route_and_send(static_cast<int>(port_index), std::move(packet));
}

void Ipv4Router::deliver_local(std::size_t /*port_index*/,
                               const packet::Ipv4Packet& packet) {
  ++counters_.delivered_local;
  if (packet.protocol != static_cast<std::uint8_t>(packet::IpProto::kIcmp)) {
    return;  // routers ignore other local traffic in this model
  }
  auto icmp = packet::IcmpPacket::parse(packet.payload);
  if (!icmp.ok()) return;
  if (icmp->type == packet::IcmpPacket::Type::kEchoRequest) {
    packet::IcmpPacket reply = *icmp;
    reply.type = packet::IcmpPacket::Type::kEchoReply;
    packet::Ipv4Packet out;
    out.protocol = static_cast<std::uint8_t>(packet::IpProto::kIcmp);
    out.src = packet.dst;
    out.dst = packet.src;
    out.identification = next_ip_id_++;
    out.payload = reply.serialize();
    route_and_send(-1, std::move(out));
  } else if (icmp->type == packet::IcmpPacket::Type::kEchoReply) {
    if (icmp->identifier == ping_ident_) ++ping_stats_.received;
  }
}

void Ipv4Router::route_and_send(int ingress, packet::Ipv4Packet packet) {
  if (ingress >= 0) {
    if (packet.ttl <= 1) {
      ++counters_.ttl_expired;
      send_icmp_error(packet, packet::IcmpPacket::Type::kTimeExceeded, 0);
      return;
    }
    --packet.ttl;
  }
  auto route = lookup_route(packet.dst);
  if (!route.has_value()) {
    ++counters_.no_route;
    send_icmp_error(packet, packet::IcmpPacket::Type::kDestUnreachable, 0);
    return;
  }
  packet::Ipv4Address next_hop =
      route->next_hop.is_zero() ? packet.dst : route->next_hop;
  int egress = route->interface;
  if (egress < 0) {
    // Static route via a next hop: resolve the egress interface by finding
    // which connected network contains the next hop (recursive lookup,
    // one level — IOS allows deeper recursion; our labs never need it).
    egress = interface_for_connected(next_hop);
    if (egress < 0) {
      ++counters_.no_route;
      return;
    }
  }
  const auto& out_cfg = interfaces_[static_cast<std::size_t>(egress)];
  if (out_cfg.shutdown) {
    ++counters_.no_route;
    return;
  }
  // Outbound ACL — unless this firmware image has the "outbound ACLs
  // silently ignored" regression (§1's per-version quirk, used by tests).
  if (!firmware().bug_outbound_acl_ignored &&
      !acl_permits(out_cfg.acl_out, packet)) {
    ++counters_.acl_denied;
    return;
  }
  if (ingress >= 0) ++counters_.forwarded;
  send_on_interface(static_cast<std::size_t>(egress), next_hop,
                    std::move(packet));
}

int Ipv4Router::interface_for_connected(packet::Ipv4Address ip) const {
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    const auto& cfg = interfaces_[i];
    if (cfg.address.has_value() && !cfg.shutdown && cfg.address->contains(ip)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::optional<Ipv4Router::RouteEntry> Ipv4Router::lookup_route(
    packet::Ipv4Address dst) const {
  std::optional<RouteEntry> best;
  for (const auto& route : routing_table()) {
    if (!route.prefix.contains(dst)) continue;
    if (!best.has_value() || route.prefix.length > best->prefix.length) {
      best = route;
    }
  }
  return best;
}

void Ipv4Router::send_on_interface(std::size_t egress,
                                   packet::Ipv4Address next_hop,
                                   packet::Ipv4Packet packet) {
  auto arp = arp_cache_.find(next_hop.value);
  if (arp == arp_cache_.end()) {
    // Queue behind ARP resolution.
    bool first = !arp_pending_.contains(next_hop.value);
    arp_pending_[next_hop.value].push_back(
        PendingPacket{std::move(packet), static_cast<int>(egress)});
    if (first) {
      const auto& cfg = interfaces_[egress];
      if (!cfg.address.has_value()) return;
      auto request = packet::ArpPacket::make_request(
          macs_[egress], cfg.address->network, next_hop);
      util::Bytes wire = request.serialize();
      port(egress).transmit(wire);
      arp_timeout_check(next_hop, 1, static_cast<int>(egress));
    }
    return;
  }
  packet::EthernetFrame frame;
  frame.dst = arp->second.mac;
  frame.src = macs_[egress];
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload = packet.serialize();
  util::Bytes wire = frame.serialize();
  port(egress).transmit(wire);
}

void Ipv4Router::arp_timeout_check(packet::Ipv4Address ip, int attempt,
                                   int egress) {
  schedule_once(util::Duration::seconds(1), [this, ip, attempt, egress] {
    auto pending = arp_pending_.find(ip.value);
    if (pending == arp_pending_.end()) return;  // resolved meanwhile
    if (attempt >= 3) {
      counters_.arp_failures += pending->second.size();
      arp_pending_.erase(pending);
      return;
    }
    const auto& cfg = interfaces_[static_cast<std::size_t>(egress)];
    if (!cfg.address.has_value()) return;
    auto request = packet::ArpPacket::make_request(
        macs_[static_cast<std::size_t>(egress)], cfg.address->network, ip);
    util::Bytes wire = request.serialize();
    port(static_cast<std::size_t>(egress)).transmit(wire);
    arp_timeout_check(ip, attempt + 1, egress);
  });
}

void Ipv4Router::send_icmp_error(const packet::Ipv4Packet& original,
                                 packet::IcmpPacket::Type type,
                                 std::uint8_t code) {
  if (original.protocol ==
      static_cast<std::uint8_t>(packet::IpProto::kIcmp)) {
    // Never send ICMP errors about ICMP errors; allow errors about echo.
    auto icmp = packet::IcmpPacket::parse(original.payload);
    if (icmp.ok() && icmp->type != packet::IcmpPacket::Type::kEchoRequest &&
        icmp->type != packet::IcmpPacket::Type::kEchoReply) {
      return;
    }
  }
  packet::IcmpPacket error;
  error.type = type;
  error.code = code;
  // RFC 792: include the original IP header + 8 bytes of payload.
  util::Bytes original_bytes = original.serialize();
  std::size_t quote = std::min<std::size_t>(original_bytes.size(), 28);
  error.payload.assign(original_bytes.begin(),
                       original_bytes.begin() +
                           static_cast<std::ptrdiff_t>(quote));
  packet::Ipv4Packet out;
  out.protocol = static_cast<std::uint8_t>(packet::IpProto::kIcmp);
  // Source: the interface facing back toward the offender, approximated by
  // the first configured interface (sufficient for lab diagnostics).
  for (const auto& cfg : interfaces_) {
    if (cfg.address.has_value()) {
      out.src = cfg.address->network;
      break;
    }
  }
  out.dst = original.src;
  out.identification = next_ip_id_++;
  out.payload = error.serialize();
  route_and_send(-1, std::move(out));
}

void Ipv4Router::ping(packet::Ipv4Address target, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    schedule_once(util::Duration::milliseconds(100 * i), [this, target, i] {
      packet::IcmpPacket echo;
      echo.type = packet::IcmpPacket::Type::kEchoRequest;
      echo.identifier = ping_ident_;
      echo.sequence = static_cast<std::uint16_t>(i);
      echo.payload.assign(32, 0xAB);
      packet::Ipv4Packet out;
      out.protocol = static_cast<std::uint8_t>(packet::IpProto::kIcmp);
      out.dst = target;
      out.identification = next_ip_id_++;
      for (const auto& cfg : interfaces_) {
        if (cfg.address.has_value()) {
          out.src = cfg.address->network;
          break;
        }
      }
      out.payload = echo.serialize();
      ++ping_stats_.sent;
      route_and_send(-1, std::move(out));
    });
  }
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

std::string Ipv4Router::exec(const std::string& line) {
  if (auto common = handle_common_command(line)) return *common;
  return cli_.execute(line);
}

std::string Ipv4Router::prompt() const { return cli_.prompt(); }

namespace {
/// Parses "any" | "host A" | "A W" starting at args[i]; advances i.
bool parse_acl_side(const std::vector<std::string>& args, std::size_t& i,
                    packet::Ipv4Address& addr, std::uint32_t& wildcard) {
  if (i >= args.size()) return false;
  if (args[i] == "any") {
    addr = {};
    wildcard = 0xFFFFFFFF;
    ++i;
    return true;
  }
  if (args[i] == "host") {
    if (i + 1 >= args.size()) return false;
    auto a = packet::Ipv4Address::parse(args[i + 1]);
    if (!a.ok()) return false;
    addr = *a;
    wildcard = 0;
    i += 2;
    return true;
  }
  if (i + 1 >= args.size()) return false;
  auto a = packet::Ipv4Address::parse(args[i]);
  auto w = packet::Ipv4Address::parse(args[i + 1]);
  if (!a.ok() || !w.ok()) return false;
  addr = *a;
  wildcard = w->value;
  i += 2;
  return true;
}
}  // namespace

void Ipv4Router::register_cli() {
  cli_.set_interface_validator(
      [this](const std::string& name) { return find_port(name) >= 0; });

  cli_.register_command(
      CliMode::kPrivExec, "show running-config",
      [this](const std::vector<std::string>&, bool) { return running_config(); });
  cli_.register_command(
      CliMode::kPrivExec, "show version",
      [this](const std::vector<std::string>&, bool) {
        return util::format("Router %s, firmware %s, %zu interfaces\n",
                            name().c_str(), firmware().version.c_str(),
                            port_count());
      });
  cli_.register_command(
      CliMode::kPrivExec, "show ip route",
      [this](const std::vector<std::string>&, bool) {
        std::string out;
        for (const auto& route : routing_table()) {
          if (route.is_static) {
            out += util::format("S  %s via %s\n",
                                route.prefix.to_string().c_str(),
                                route.next_hop.to_string().c_str());
          } else {
            out += util::format(
                "C  %s is directly connected, %s\n",
                route.prefix.to_string().c_str(),
                port_names()[static_cast<std::size_t>(route.interface)]
                    .c_str());
          }
        }
        return out;
      });
  cli_.register_command(
      CliMode::kPrivExec, "show ip arp",
      [this](const std::vector<std::string>&, bool) {
        std::string out;
        for (const auto& [ip, entry] : arp_cache_) {
          out += util::format("%s  %s\n",
                              packet::Ipv4Address{ip}.to_string().c_str(),
                              entry.mac.to_string().c_str());
        }
        return out;
      });
  cli_.register_command(
      CliMode::kPrivExec, "ping",
      [this](const std::vector<std::string>& args, bool) -> std::string {
        if (args.empty()) return "% Usage: ping <address>\n";
        auto target = packet::Ipv4Address::parse(args[0]);
        if (!target.ok()) return "% Invalid address\n";
        ping(*target);
        return "Sending 5, 32-byte ICMP Echos to " + args[0] + "\n";
      });
  cli_.register_command(
      CliMode::kPrivExec, "show ping",
      [this](const std::vector<std::string>&, bool) {
        return util::format("Success rate is %u/%u\n", ping_stats_.received,
                            ping_stats_.sent);
      });

  cli_.register_command(
      CliMode::kGlobalConfig, "ip route",
      [this](const std::vector<std::string>& args, bool negated) -> std::string {
        if (args.size() < 2) return "% Incomplete command.\n";
        auto net = packet::Ipv4Address::parse(args[0]);
        auto mask = packet::Ipv4Address::parse(args[1]);
        if (!net.ok() || !mask.ok()) return "% Invalid address\n";
        std::uint8_t length = 0;
        std::uint32_t m = mask->value;
        while ((m & 0x80000000u) != 0) {
          ++length;
          m <<= 1;
        }
        packet::Ipv4Prefix prefix{*net, length};
        if (negated) {
          remove_static_route(prefix);
          return "";
        }
        if (args.size() != 3) return "% Incomplete command.\n";
        auto nh = packet::Ipv4Address::parse(args[2]);
        if (!nh.ok()) return "% Invalid next hop\n";
        add_static_route(prefix, *nh);
        return "";
      });

  cli_.register_command(
      CliMode::kGlobalConfig, "access-list",
      [this](const std::vector<std::string>& args, bool negated) -> std::string {
        if (args.empty() || !util::is_number(args[0])) {
          return "% Usage: access-list <number> permit|deny ...\n";
        }
        int number = std::stoi(args[0]);
        if (negated) {
          clear_acl(number);
          return "";
        }
        if (args.size() < 2) return "% Incomplete command.\n";
        AclEntry entry;
        if (args[1] == "permit") entry.permit = true;
        else if (args[1] == "deny") entry.permit = false;
        else return "% Expected permit or deny\n";
        std::size_t i = 2;
        if (i >= args.size()) return "% Incomplete command.\n";
        if (args[i] == "ip") entry.protocol = 0;
        else if (args[i] == "icmp") entry.protocol = 1;
        else if (args[i] == "tcp") entry.protocol = 6;
        else if (args[i] == "udp") entry.protocol = 17;
        else return "% Unknown protocol '" + args[i] + "'\n";
        ++i;
        if (!parse_acl_side(args, i, entry.src, entry.src_wildcard)) {
          return "% Invalid source\n";
        }
        if (!parse_acl_side(args, i, entry.dst, entry.dst_wildcard)) {
          return "% Invalid destination\n";
        }
        if (i + 1 < args.size() && args[i] == "eq" &&
            util::is_number(args[i + 1])) {
          entry.dst_port_eq = static_cast<std::uint16_t>(std::stoul(args[i + 1]));
        }
        add_acl_entry(number, entry);
        return "";
      });

  cli_.register_command(
      CliMode::kInterfaceConfig, "ip address",
      [this](const std::vector<std::string>& args, bool) -> std::string {
        int idx = find_port(cli_.current_interface());
        if (idx < 0) return "% No interface selected\n";
        if (args.size() != 2) return "% Usage: ip address <addr> <mask>\n";
        auto addr = packet::Ipv4Address::parse(args[0]);
        auto mask = packet::Ipv4Address::parse(args[1]);
        if (!addr.ok() || !mask.ok()) return "% Invalid address\n";
        std::uint8_t length = 0;
        std::uint32_t m = mask->value;
        while ((m & 0x80000000u) != 0) {
          ++length;
          m <<= 1;
        }
        set_interface_address(static_cast<std::size_t>(idx),
                              packet::Ipv4Prefix{*addr, length});
        return "";
      });
  cli_.register_command(
      CliMode::kInterfaceConfig, "ip access-group",
      [this](const std::vector<std::string>& args, bool negated) -> std::string {
        int idx = find_port(cli_.current_interface());
        if (idx < 0) return "% No interface selected\n";
        if (args.size() != 2 || !util::is_number(args[0])) {
          return "% Usage: ip access-group <number> in|out\n";
        }
        bool inbound = args[1] == "in";
        set_interface_acl(static_cast<std::size_t>(idx), inbound,
                          negated ? 0 : std::stoi(args[0]));
        return "";
      });
  cli_.register_command(
      CliMode::kInterfaceConfig, "shutdown",
      [this](const std::vector<std::string>&, bool negated) -> std::string {
        int idx = find_port(cli_.current_interface());
        if (idx < 0) return "% No interface selected\n";
        set_interface_shutdown(static_cast<std::size_t>(idx), !negated);
        return "";
      });
}

std::string Ipv4Router::running_config() const {
  std::string out = "hostname " + cli_.hostname() + "\n!\n";
  for (const auto& [number, entries] : acls_) {
    for (const auto& entry : entries) {
      out += util::format("access-list %d %s\n", number,
                          entry.to_string().c_str());
    }
  }
  if (!acls_.empty()) out += "!\n";
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    const auto& cfg = interfaces_[i];
    out += "interface " + port_names()[i] + "\n";
    if (cfg.address.has_value()) {
      packet::Ipv4Address mask{cfg.address->mask()};
      out += " ip address " + cfg.address->network.to_string() + " " +
             mask.to_string() + "\n";
    }
    if (cfg.acl_in != 0) {
      out += util::format(" ip access-group %d in\n", cfg.acl_in);
    }
    if (cfg.acl_out != 0) {
      out += util::format(" ip access-group %d out\n", cfg.acl_out);
    }
    if (cfg.shutdown) out += " shutdown\n";
    out += "!\n";
  }
  for (const auto& route : static_routes_) {
    packet::Ipv4Address mask{route.prefix.mask()};
    out += "ip route " + route.prefix.network.to_string() + " " +
           mask.to_string() + " " + route.next_hop.to_string() + "\n";
  }
  return out;
}

}  // namespace rnl::devices
