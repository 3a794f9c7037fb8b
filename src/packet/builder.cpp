#include "packet/builder.h"

namespace rnl::packet {

namespace {
EthernetFrame wrap_ipv4(MacAddress src_mac, MacAddress dst_mac,
                        Ipv4Packet packet) {
  EthernetFrame frame;
  frame.dst = dst_mac;
  frame.src = src_mac;
  frame.ether_type = EtherType::kIpv4;
  frame.payload = packet.serialize();
  return frame;
}
}  // namespace

EthernetFrame make_icmp_echo(MacAddress src_mac, MacAddress dst_mac,
                             Ipv4Address src_ip, Ipv4Address dst_ip,
                             std::uint16_t identifier, std::uint16_t sequence,
                             std::size_t payload_len) {
  IcmpPacket icmp;
  icmp.type = IcmpPacket::Type::kEchoRequest;
  icmp.identifier = identifier;
  icmp.sequence = sequence;
  icmp.payload.resize(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    icmp.payload[i] = static_cast<std::uint8_t>('a' + i % 26);
  }
  Ipv4Packet ip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kIcmp);
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.payload = icmp.serialize();
  return wrap_ipv4(src_mac, dst_mac, std::move(ip));
}

EthernetFrame make_udp(MacAddress src_mac, MacAddress dst_mac,
                       Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       util::BytesView payload) {
  UdpDatagram udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.payload.assign(payload.begin(), payload.end());
  Ipv4Packet ip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.payload = udp.serialize(src_ip, dst_ip);
  return wrap_ipv4(src_mac, dst_mac, std::move(ip));
}

}  // namespace rnl::packet
