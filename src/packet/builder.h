#pragma once

// Convenience builders for fully-formed frames (host/test-side).

#include "packet/addr.h"
#include "packet/ethernet.h"
#include "packet/ipv4.h"

namespace rnl::packet {

/// ICMP echo request wrapped in IPv4 wrapped in Ethernet.
EthernetFrame make_icmp_echo(MacAddress src_mac, MacAddress dst_mac,
                             Ipv4Address src_ip, Ipv4Address dst_ip,
                             std::uint16_t identifier, std::uint16_t sequence,
                             std::size_t payload_len = 32);

/// UDP datagram wrapped in IPv4 wrapped in Ethernet.
EthernetFrame make_udp(MacAddress src_mac, MacAddress dst_mac,
                       Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       util::BytesView payload);

}  // namespace rnl::packet
