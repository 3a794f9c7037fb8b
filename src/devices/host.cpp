#include "devices/host.h"

#include "util/strings.h"

namespace rnl::devices {

Host::Host(simnet::Network& net, std::string name, Firmware firmware)
    : Device(net, std::move(name), std::move(firmware)), cli_(this->name()) {
  mac_ = packet::MacAddress::local(name_seed() | 0x80000000u);
  ping_ident_ = static_cast<std::uint16_t>(name_seed() & 0x7FFF);
  simnet::Port& p = add_port("eth0");
  p.set_receive_handler([this](util::BytesView bytes) {
    if (powered()) handle_frame(bytes);
  });

  cli_.register_command(
      CliMode::kPrivExec, "ping",
      [this](const std::vector<std::string>& args, bool) -> std::string {
        if (args.empty()) return "% Usage: ping <address>\n";
        auto target = packet::Ipv4Address::parse(args[0]);
        if (!target.ok()) return "% Invalid address\n";
        ping(*target);
        return "PING " + args[0] + " 32 bytes of data\n";
      });
  cli_.register_command(
      CliMode::kPrivExec, "traceroute",
      [this](const std::vector<std::string>& args, bool) -> std::string {
        if (args.empty()) return "% Usage: traceroute <address>\n";
        auto target = packet::Ipv4Address::parse(args[0]);
        if (!target.ok()) return "% Invalid address\n";
        clear_traceroute();
        traceroute(*target);
        return "Tracing route to " + args[0] + "\n";
      });
  cli_.register_command(
      CliMode::kPrivExec, "show traceroute",
      [this](const std::vector<std::string>&, bool) {
        std::string out;
        for (const auto& [hop, responder] : traceroute_hops_) {
          out += util::format(" %2u  %s\n", hop, responder.to_string().c_str());
        }
        return out.empty() ? std::string("(no responses yet)\n") : out;
      });
  cli_.register_command(
      CliMode::kPrivExec, "show ping",
      [this](const std::vector<std::string>&, bool) {
        return util::format("%zu/%u replies received\n", ping_replies_.size(),
                            pings_sent_);
      });
  cli_.register_command(
      CliMode::kPrivExec, "show running-config",
      [this](const std::vector<std::string>&, bool) { return running_config(); });
  cli_.register_command(
      CliMode::kGlobalConfig, "ip address",
      [this](const std::vector<std::string>& args, bool) -> std::string {
        if (args.size() != 2) return "% Usage: ip address <addr/len> <gw>\n";
        auto prefix = packet::Ipv4Prefix::parse(args[0]);
        auto gw = packet::Ipv4Address::parse(args[1]);
        if (!prefix.ok() || !gw.ok()) return "% Invalid address\n";
        configure(*prefix, *gw);
        return "";
      });
}

void Host::on_reset() {
  arp_cache_.clear();
  arp_pending_.clear();
  ping_sent_at_.clear();
}

std::string Host::exec(const std::string& line) {
  if (auto common = handle_common_command(line)) return *common;
  return cli_.execute(line);
}
std::string Host::prompt() const { return cli_.prompt(); }

std::string Host::running_config() const {
  std::string out = "hostname " + cli_.hostname() + "\n";
  if (!address_.network.is_zero()) {
    out += "ip address " + address_.to_string() + " " + gateway_.to_string() +
           "\n";
  }
  return out;
}

void Host::configure(packet::Ipv4Prefix address, packet::Ipv4Address gateway) {
  address_ = address;
  gateway_ = gateway;
}

void Host::ping(packet::Ipv4Address target, std::uint32_t count,
                std::size_t payload_len) {
  for (std::uint32_t i = 0; i < count; ++i) {
    schedule_once(
        util::Duration::milliseconds(100 * i),
        [this, target, payload_len] {
          std::uint16_t seq = next_sequence_++;
          packet::IcmpPacket echo;
          echo.type = packet::IcmpPacket::Type::kEchoRequest;
          echo.identifier = ping_ident_;
          echo.sequence = seq;
          echo.payload.resize(payload_len, 0x61);
          packet::Ipv4Packet out;
          out.protocol = static_cast<std::uint8_t>(packet::IpProto::kIcmp);
          out.src = address_.network;
          out.dst = target;
          out.identification = next_ip_id_++;
          out.payload = echo.serialize();
          ping_sent_at_[seq] = scheduler_.now();
          ++pings_sent_;
          send_ip(std::move(out));
        });
  }
}

void Host::traceroute(packet::Ipv4Address target, std::uint8_t max_hops) {
  for (std::uint8_t ttl = 1; ttl <= max_hops; ++ttl) {
    schedule_once(
        util::Duration::milliseconds(100 * (ttl - 1)), [this, target, ttl] {
          std::uint16_t seq = next_sequence_++;
          traceroute_probe_ttl_[seq] = ttl;
          packet::IcmpPacket echo;
          echo.type = packet::IcmpPacket::Type::kEchoRequest;
          echo.identifier = ping_ident_;
          echo.sequence = seq;
          echo.payload.assign(16, 0x74);  // 't'
          packet::Ipv4Packet out;
          out.protocol = static_cast<std::uint8_t>(packet::IpProto::kIcmp);
          out.src = address_.network;
          out.dst = target;
          out.ttl = ttl;
          out.identification = next_ip_id_++;
          out.payload = echo.serialize();
          send_ip(std::move(out));
        });
  }
}

void Host::send_udp(packet::Ipv4Address dst, std::uint16_t src_port,
                    std::uint16_t dst_port, util::BytesView payload) {
  packet::UdpDatagram udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.payload.assign(payload.begin(), payload.end());
  packet::Ipv4Packet out;
  out.protocol = static_cast<std::uint8_t>(packet::IpProto::kUdp);
  out.src = address_.network;
  out.dst = dst;
  out.identification = next_ip_id_++;
  out.payload = udp.serialize(address_.network, dst);
  send_ip(std::move(out));
}

void Host::send_ip(packet::Ipv4Packet packet) {
  packet::Ipv4Address next_hop =
      address_.contains(packet.dst) ? packet.dst : gateway_;
  auto cached = arp_cache_.find(next_hop.value);
  if (cached != arp_cache_.end()) {
    transmit_to(cached->second, packet);
    return;
  }
  bool first = !arp_pending_.contains(next_hop.value);
  arp_pending_[next_hop.value].push_back(std::move(packet));
  if (first) {
    auto request =
        packet::ArpPacket::make_request(mac_, address_.network, next_hop);
    util::Bytes wire = request.serialize();
    port(0).transmit(wire);
    arp_retry(next_hop, 1);
  }
}

void Host::arp_retry(packet::Ipv4Address next_hop, int attempt) {
  schedule_once(util::Duration::seconds(1), [this, next_hop, attempt] {
    auto pending = arp_pending_.find(next_hop.value);
    if (pending == arp_pending_.end()) return;  // resolved
    if (attempt >= 3) {
      arp_pending_.erase(pending);  // give up; queued packets are dropped
      return;
    }
    auto request =
        packet::ArpPacket::make_request(mac_, address_.network, next_hop);
    util::Bytes wire = request.serialize();
    port(0).transmit(wire);
    arp_retry(next_hop, attempt + 1);
  });
}

void Host::transmit_to(packet::MacAddress dst_mac,
                       const packet::Ipv4Packet& pkt) {
  packet::EthernetFrame frame;
  frame.dst = dst_mac;
  frame.src = mac_;
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload = pkt.serialize();
  util::Bytes wire = frame.serialize();
  port(0).transmit(wire);
}

void Host::handle_frame(util::BytesView bytes) {
  auto parsed = packet::EthernetFrame::parse(bytes);
  if (!parsed.ok()) return;
  const packet::EthernetFrame& frame = *parsed;
  if (frame.dst != mac_ && !frame.dst.is_broadcast()) return;

  if (frame.ether_type == packet::EtherType::kArp) {
    auto arp = packet::ArpPacket::parse(frame.payload);
    if (!arp.ok()) return;
    if (!arp->sender_ip.is_zero()) {
      arp_cache_[arp->sender_ip.value] = arp->sender_mac;
      auto pending = arp_pending_.find(arp->sender_ip.value);
      if (pending != arp_pending_.end()) {
        auto packets = std::move(pending->second);
        arp_pending_.erase(pending);
        for (const auto& pkt : packets) transmit_to(arp->sender_mac, pkt);
      }
    }
    if (arp->op == packet::ArpPacket::Op::kRequest &&
        arp->target_ip == address_.network) {
      auto reply = packet::ArpPacket::make_reply(mac_, address_.network,
                                                 arp->sender_mac,
                                                 arp->sender_ip);
      util::Bytes wire = reply.serialize();
      port(0).transmit(wire);
    }
    return;
  }

  if (frame.ether_type == packet::EtherType::kIpv4) {
    auto ip = packet::Ipv4Packet::parse(frame.payload);
    if (ip.ok() && ip->dst == address_.network) handle_ipv4(*ip);
  }
}

void Host::handle_ipv4(const packet::Ipv4Packet& packet) {
  if (packet.protocol == static_cast<std::uint8_t>(packet::IpProto::kIcmp)) {
    auto icmp = packet::IcmpPacket::parse(packet.payload);
    if (!icmp.ok()) return;
    if (icmp->type == packet::IcmpPacket::Type::kEchoRequest) {
      packet::IcmpPacket reply = *icmp;
      reply.type = packet::IcmpPacket::Type::kEchoReply;
      packet::Ipv4Packet out;
      out.protocol = static_cast<std::uint8_t>(packet::IpProto::kIcmp);
      out.src = address_.network;
      out.dst = packet.src;
      out.identification = next_ip_id_++;
      out.payload = reply.serialize();
      send_ip(std::move(out));
    } else if (icmp->type == packet::IcmpPacket::Type::kEchoReply &&
               icmp->identifier == ping_ident_) {
      auto sent = ping_sent_at_.find(icmp->sequence);
      if (sent != ping_sent_at_.end()) {
        ping_replies_.push_back(
            PingResult{icmp->sequence, scheduler_.now() - sent->second});
        ping_sent_at_.erase(sent);
      }
      // A traceroute probe that reached the target: final hop.
      auto probe = traceroute_probe_ttl_.find(icmp->sequence);
      if (probe != traceroute_probe_ttl_.end()) {
        traceroute_hops_[probe->second] = packet.src;
        traceroute_probe_ttl_.erase(probe);
      }
    } else if (icmp->type == packet::IcmpPacket::Type::kTimeExceeded) {
      // RFC 792 quote: original IP header (20 B, no options in this model)
      // + first 8 bytes of its payload (our echo's ICMP header). The echo
      // id/seq live at quote offsets 24/26.
      if (icmp->payload.size() >= 28) {
        std::uint16_t quoted_id =
            static_cast<std::uint16_t>((icmp->payload[24] << 8) |
                                       icmp->payload[25]);
        std::uint16_t quoted_seq =
            static_cast<std::uint16_t>((icmp->payload[26] << 8) |
                                       icmp->payload[27]);
        if (quoted_id == ping_ident_) {
          auto probe = traceroute_probe_ttl_.find(quoted_seq);
          if (probe != traceroute_probe_ttl_.end()) {
            traceroute_hops_[probe->second] = packet.src;
            traceroute_probe_ttl_.erase(probe);
          }
        }
      }
    }
    return;
  }
  if (packet.protocol == static_cast<std::uint8_t>(packet::IpProto::kUdp)) {
    auto udp = packet::UdpDatagram::parse(packet.payload);
    if (!udp.ok()) return;
    received_udp_.push_back(ReceivedUdp{packet.src, udp->src_port,
                                        udp->dst_port, udp->payload,
                                        scheduler_.now()});
    if (received_udp_.size() > 10'000) received_udp_.pop_front();
    if (udp_echo_) {
      send_udp(packet.src, udp->dst_port, udp->src_port, udp->payload);
    }
  }
}

}  // namespace rnl::devices
