#pragma once

// Link-layer and network-layer addresses.

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/result.h"

namespace rnl::packet {

/// 48-bit IEEE MAC address.
struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  constexpr auto operator<=>(const MacAddress&) const = default;

  [[nodiscard]] bool is_broadcast() const;
  [[nodiscard]] bool is_multicast() const { return (octets[0] & 0x01) != 0; }
  [[nodiscard]] bool is_zero() const;

  [[nodiscard]] std::string to_string() const;  // "aa:bb:cc:dd:ee:ff"
  static util::Result<MacAddress> parse(std::string_view text);

  static constexpr MacAddress broadcast() {
    return {{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}};
  }
  /// 01:80:C2:00:00:00 — the 802.1D STP multicast group.
  static constexpr MacAddress stp_multicast() {
    return {{0x01, 0x80, 0xC2, 0x00, 0x00, 0x00}};
  }
  /// Deterministic locally-administered unicast MAC from a 32-bit seed.
  static MacAddress local(std::uint32_t seed);
};

/// IPv4 address, host-order value internally, network order on the wire.
struct Ipv4Address {
  std::uint32_t value = 0;

  constexpr auto operator<=>(const Ipv4Address&) const = default;

  static util::Result<Ipv4Address> parse(std::string_view text);

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool is_broadcast() const { return value == 0xFFFFFFFFu; }
  [[nodiscard]] bool is_multicast() const { return (value >> 28) == 0xE; }
  [[nodiscard]] bool is_zero() const { return value == 0; }
};

/// IPv4 prefix (address + mask length) for interface configs / routes.
struct Ipv4Prefix {
  Ipv4Address network;
  std::uint8_t length = 0;  // 0..32

  constexpr auto operator<=>(const Ipv4Prefix&) const = default;

  [[nodiscard]] std::uint32_t mask() const {
    return length == 0 ? 0 : ~std::uint32_t{0} << (32 - length);
  }
  [[nodiscard]] bool contains(Ipv4Address addr) const {
    return (addr.value & mask()) == (network.value & mask());
  }
  [[nodiscard]] std::string to_string() const;  // "10.0.0.0/24"
  static util::Result<Ipv4Prefix> parse(std::string_view text);
};

}  // namespace rnl::packet

template <>
struct std::hash<rnl::packet::MacAddress> {
  std::size_t operator()(const rnl::packet::MacAddress& mac) const noexcept {
    std::uint64_t v = 0;
    for (auto o : mac.octets) v = (v << 8) | o;
    return std::hash<std::uint64_t>{}(v);
  }
};

template <>
struct std::hash<rnl::packet::Ipv4Address> {
  std::size_t operator()(const rnl::packet::Ipv4Address& ip) const noexcept {
    return std::hash<std::uint32_t>{}(ip.value);
  }
};
