#pragma once

// End-host model: the servers S1/S2 of Fig 5 and the probe endpoints of the
// automated tests (§3.2). One NIC, an IPv4 stack (ARP + default gateway),
// ping client, and a UDP send/receive API with a received-traffic log.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "devices/cli.h"
#include "devices/device.h"
#include "packet/arp.h"
#include "packet/builder.h"

namespace rnl::devices {

class Host : public Device {
 public:
  struct ReceivedUdp {
    packet::Ipv4Address src;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    util::Bytes payload;
    util::SimTime at{};
  };

  struct PingResult {
    std::uint16_t sequence = 0;
    util::Duration rtt{};
  };

  Host(simnet::Network& net, std::string name,
       Firmware firmware = FirmwareCatalog::instance().default_image());

  std::string exec(const std::string& line) override;
  [[nodiscard]] std::string prompt() const override;
  [[nodiscard]] std::string running_config() const override;

  void configure(packet::Ipv4Prefix address, packet::Ipv4Address gateway);
  [[nodiscard]] packet::Ipv4Address address() const {
    return address_.network;
  }
  [[nodiscard]] packet::MacAddress mac() const { return mac_; }

  /// Sends `count` echo requests spaced 100 ms apart.
  void ping(packet::Ipv4Address target, std::uint32_t count = 5,
            std::size_t payload_len = 32);
  [[nodiscard]] const std::deque<PingResult>& ping_replies() const {
    return ping_replies_;
  }

  /// One probe per TTL (1..max_hops), 100 ms apart. Routers answer with
  /// ICMP TimeExceeded; the target answers the echo. Results accumulate in
  /// traceroute_hops(): hop index -> responding address.
  void traceroute(packet::Ipv4Address target, std::uint8_t max_hops = 16);
  [[nodiscard]] const std::map<std::uint8_t, packet::Ipv4Address>&
  traceroute_hops() const {
    return traceroute_hops_;
  }
  void clear_traceroute() { traceroute_hops_.clear(); }

  void send_udp(packet::Ipv4Address dst, std::uint16_t src_port,
                std::uint16_t dst_port, util::BytesView payload);
  /// When enabled, received UDP datagrams are echoed back to the sender.
  void set_udp_echo(bool enabled) { udp_echo_ = enabled; }
  [[nodiscard]] const std::deque<ReceivedUdp>& received_udp() const {
    return received_udp_;
  }
  void clear_received() { received_udp_.clear(); }

 protected:
  void on_reset() override;

 private:
  void handle_frame(util::BytesView bytes);
  void handle_ipv4(const packet::Ipv4Packet& packet);
  /// Resolves the L2 next hop (gateway or on-link) then transmits.
  void send_ip(packet::Ipv4Packet packet);
  /// Re-sends an ARP request up to 3 times; then drops the queued packets.
  void arp_retry(packet::Ipv4Address next_hop, int attempt);
  void transmit_to(packet::MacAddress dst_mac, const packet::Ipv4Packet& pkt);

  CliEngine cli_;
  packet::MacAddress mac_;
  packet::Ipv4Prefix address_{};
  packet::Ipv4Address gateway_{};

  std::map<std::uint32_t, packet::MacAddress> arp_cache_;
  std::map<std::uint32_t, std::vector<packet::Ipv4Packet>> arp_pending_;
  std::map<std::uint16_t, util::SimTime> ping_sent_at_;
  std::deque<PingResult> ping_replies_;
  // traceroute state: echo sequence -> TTL it was sent with.
  std::map<std::uint16_t, std::uint8_t> traceroute_probe_ttl_;
  std::map<std::uint8_t, packet::Ipv4Address> traceroute_hops_;
  std::uint32_t pings_sent_ = 0;
  std::uint16_t ping_ident_;
  std::uint16_t next_sequence_ = 0;
  std::uint16_t next_ip_id_ = 1;
  bool udp_echo_ = false;
  std::deque<ReceivedUdp> received_udp_;
};

}  // namespace rnl::devices
