#pragma once

// IOS-style IPv4 router: ARP, connected + static routes, extended ACLs,
// ICMP (echo reply, TTL exceeded, unreachable) and a console ping client.
//
// The Fig 6 policy experiment is built from four of these: packet filters at
// R1.2/R2.2 enforce "subnet A cannot talk to subnet B" until a new R3-R4
// link routes around them.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "devices/cli.h"
#include "devices/device.h"
#include "packet/arp.h"
#include "packet/builder.h"
#include "packet/ethernet.h"
#include "packet/ipv4.h"

namespace rnl::devices {

/// One entry of a Cisco extended access list.
struct AclEntry {
  bool permit = true;
  /// 0 = any protocol; otherwise an IpProto value.
  std::uint8_t protocol = 0;
  packet::Ipv4Address src;
  std::uint32_t src_wildcard = 0xFFFFFFFF;  // "any" by default
  packet::Ipv4Address dst;
  std::uint32_t dst_wildcard = 0xFFFFFFFF;
  std::optional<std::uint16_t> dst_port_eq;  // tcp/udp only

  [[nodiscard]] bool matches(const packet::Ipv4Packet& pkt) const;
  [[nodiscard]] std::string to_string() const;
};

class Ipv4Router : public Device {
 public:
  struct InterfaceConfig {
    std::optional<packet::Ipv4Prefix> address;  // address + mask
    bool shutdown = false;
    int acl_in = 0;   // 0 = none
    int acl_out = 0;
  };

  struct RouteEntry {
    packet::Ipv4Prefix prefix;
    packet::Ipv4Address next_hop;  // zero => directly connected
    int interface = -1;            // resolved egress (connected routes)
    bool is_static = false;
  };

  struct Counters {
    std::uint64_t forwarded = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t acl_denied = 0;
    std::uint64_t no_route = 0;
    std::uint64_t ttl_expired = 0;
    std::uint64_t arp_failures = 0;
  };

  struct PingStats {
    std::uint32_t sent = 0;
    std::uint32_t received = 0;
  };

  Ipv4Router(simnet::Network& net, std::string name, std::size_t num_ports,
             Firmware firmware = FirmwareCatalog::instance().default_image());

  // -- Device interface --
  std::string exec(const std::string& line) override;
  [[nodiscard]] std::string prompt() const override;
  [[nodiscard]] std::string running_config() const override;

  // -- Programmatic configuration --
  void set_interface_address(std::size_t index, packet::Ipv4Prefix prefix);
  void set_interface_shutdown(std::size_t index, bool shutdown);
  void set_interface_acl(std::size_t index, bool inbound, int acl_number);
  void add_static_route(packet::Ipv4Prefix prefix,
                        packet::Ipv4Address next_hop);
  void remove_static_route(packet::Ipv4Prefix prefix);
  void add_acl_entry(int number, AclEntry entry);
  void clear_acl(int number);

  /// Sends `count` ICMP echo requests to `target`, spaced 100 ms apart;
  /// the CLI's `ping` reports the replies as a success rate.
  void ping(packet::Ipv4Address target, std::uint32_t count = 5);

  // -- Introspection --
  [[nodiscard]] const InterfaceConfig& interface_config(std::size_t i) const {
    return interfaces_.at(i);
  }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::vector<RouteEntry> routing_table() const;
  [[nodiscard]] std::optional<packet::MacAddress> arp_lookup(
      packet::Ipv4Address ip) const;
  /// The entries of access list `number` as configured, or nullptr if the
  /// list is undefined (used by the static analyzer, core/static_analysis).
  [[nodiscard]] const std::vector<AclEntry>* acl_entries(int number) const {
    auto it = acls_.find(number);
    return it == acls_.end() ? nullptr : &it->second;
  }

 protected:
  void on_reset() override;

 private:
  struct ArpEntry {
    packet::MacAddress mac;
    util::SimTime learned{};
  };
  struct PendingPacket {
    packet::Ipv4Packet packet;
    int egress;
  };

  void register_cli();
  void handle_frame(std::size_t port_index, util::BytesView bytes);
  void handle_arp(std::size_t port_index, const packet::ArpPacket& arp);
  void handle_ipv4(std::size_t port_index, packet::Ipv4Packet packet);
  void deliver_local(std::size_t port_index, const packet::Ipv4Packet& packet);
  /// Routes and transmits an IP packet (used for both transit and
  /// self-originated traffic). `ingress` < 0 for local origin.
  void route_and_send(int ingress, packet::Ipv4Packet packet);
  void send_on_interface(std::size_t egress, packet::Ipv4Address next_hop,
                         packet::Ipv4Packet packet);
  void send_icmp_error(const packet::Ipv4Packet& original,
                       packet::IcmpPacket::Type type, std::uint8_t code);
  [[nodiscard]] std::optional<RouteEntry> lookup_route(
      packet::Ipv4Address dst) const;
  [[nodiscard]] bool is_own_address(packet::Ipv4Address ip) const;
  [[nodiscard]] bool acl_permits(int acl_number,
                                 const packet::Ipv4Packet& pkt);
  [[nodiscard]] int interface_for_connected(packet::Ipv4Address ip) const;
  void arp_timeout_check(packet::Ipv4Address ip, int attempt, int egress);

  CliEngine cli_;
  std::vector<InterfaceConfig> interfaces_;
  std::vector<packet::MacAddress> macs_;
  std::vector<RouteEntry> static_routes_;
  std::map<int, std::vector<AclEntry>> acls_;
  std::map<std::uint32_t, ArpEntry> arp_cache_;
  std::map<std::uint32_t, std::vector<PendingPacket>> arp_pending_;
  Counters counters_;
  PingStats ping_stats_;
  std::uint16_t ping_ident_ = 1;
  std::uint16_t next_ip_id_ = 1;
};

}  // namespace rnl::devices
