#pragma once

// Topology designs (§2.1, Fig 2).
//
// A design is what the user assembles on the web UI's design plane: a set of
// inventory routers dragged in, and port-to-port links drawn between them.
// Designs are saved on the web server and can be exported to the user's
// local drive — both as JSON here. A design is pure data; nothing is wired
// until it is deployed under a valid reservation.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/result.h"
#include "wire/netem.h"
#include "wire/tunnel.h"

namespace rnl::core {

struct DesignLink {
  wire::PortId a = 0;
  wire::PortId b = 0;
  /// Optional WAN impairment on this virtual wire (§3.5 application
  /// testing). Zero-initialized = clean LAN wire.
  wire::NetemProfile wan;

  bool operator==(const DesignLink& other) const {
    return a == other.a && b == other.b;
  }
};

class TopologyDesign {
 public:
  TopologyDesign() = default;
  explicit TopologyDesign(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Drags a router from the inventory onto the design plane. A router can
  /// appear only once (there is one physical instance, Fig 2).
  util::Status add_router(wire::RouterId router);
  /// Removes a router and every link touching its ports is the caller's
  /// responsibility (the UI prevents dangling links; we validate instead).
  util::Status remove_router(wire::RouterId router);
  [[nodiscard]] bool has_router(wire::RouterId router) const;
  [[nodiscard]] const std::vector<wire::RouterId>& routers() const {
    return routers_;
  }

  /// Draws a link between two ports. Each port can carry one wire.
  util::Status connect(wire::PortId a, wire::PortId b,
                       wire::NetemProfile wan = {});
  util::Status disconnect(wire::PortId port);
  [[nodiscard]] const std::vector<DesignLink>& links() const { return links_; }
  [[nodiscard]] std::optional<wire::PortId> peer_of(wire::PortId port) const;

  /// Serialization (design save/load/export, §2.1).
  [[nodiscard]] util::Json to_json() const;
  static util::Result<TopologyDesign> from_json(const util::Json& json);

 private:
  [[nodiscard]] bool port_in_use(wire::PortId port) const;

  std::string name_;
  std::vector<wire::RouterId> routers_;
  std::vector<DesignLink> links_;
};

}  // namespace rnl::core
