#pragma once

// Turn-key RNL world: simulated network + route server + lab service + API,
// plus helpers to stand up RIS sites and equipment in a couple of lines.
// This is the entry point most users of the library start from (see
// examples/quickstart.cpp); production deployments would replace the
// simulated transports with TcpTransport and real devices.

#include <memory>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/labservice.h"
#include "devices/firewall.h"
#include "devices/host.h"
#include "devices/router.h"
#include "devices/switch.h"
#include "devices/traffgen.h"
#include "ris/ris.h"
#include "routeserver/routeserver.h"
#include "simnet/network.h"
#include "transport/sim_stream.h"

namespace rnl::core {

class Testbed {
 public:
  explicit Testbed(std::uint64_t seed = 1,
                   wire::NetemProfile site_wan = wire::NetemProfile::metro())
      : net_(seed),
        server_(net_.scheduler(), &metrics_),
        service_(net_, server_),
        api_(service_),
        site_wan_(site_wan) {
    server_.set_tracer(&tracer_);
  }

  ~Testbed() {
    // Detach service hooks before sites/devices unwind, so teardown-time
    // site departures don't fire "lost router" reactions into a world that
    // is going away anyway.
    server_.set_inventory_changed_handler(nullptr);
    server_.set_console_output_handler(nullptr);
  }

  simnet::Network& net() { return net_; }
  routeserver::RouteServer& server() { return server_; }
  LabService& service() { return service_; }
  ApiServer& api() { return api_; }
  /// The world's private registry: every component in this testbed (route
  /// server, sites, sim streams) publishes here, so concurrent testbeds in
  /// different threads never share instruments.
  util::MetricsRegistry& metrics() { return metrics_; }
  /// The world's trace sink, shared by the route server and every site so a
  /// cross-process trace id lands in rings one export can merge. Disabled
  /// until `tracer().set_enabled(true)` (or the `trace.enable` API call).
  util::Tracer& tracer() { return tracer_; }

  /// Creates a RIS site whose tunnel to the route server crosses `wan`
  /// (defaults to the testbed-wide profile — sites are geographically
  /// distributed, §2).
  ris::RouterInterface& add_site(const std::string& name) {
    return add_site(name, site_wan_);
  }
  ris::RouterInterface& add_site(const std::string& name,
                                 wire::NetemProfile wan) {
    sites_.push_back(
        std::make_unique<ris::RouterInterface>(net_, name, &metrics_));
    sites_.back()->set_tracer(&tracer_);
    site_wans_.push_back(wan);
    return *sites_.back();
  }

  // -- Equipment helpers: create the device, register it with the site with
  //    every port mapped and the console attached. --
  devices::EthernetSwitch& add_switch(
      ris::RouterInterface& site, const std::string& name,
      std::size_t ports,
      devices::Firmware firmware =
          devices::FirmwareCatalog::instance().default_image());
  devices::Ipv4Router& add_router(
      ris::RouterInterface& site, const std::string& name, std::size_t ports,
      devices::Firmware firmware =
          devices::FirmwareCatalog::instance().default_image());
  devices::FirewallModule& add_firewall(ris::RouterInterface& site,
                                        const std::string& name);
  devices::Host& add_host(ris::RouterInterface& site, const std::string& name);
  devices::TrafficGenerator& add_traffgen(ris::RouterInterface& site,
                                          const std::string& name,
                                          std::size_t ports = 2);

  /// Connects every site to the route server and completes the JOIN
  /// handshakes (runs the world briefly).
  void join_all();

  /// Resolves "<site>/<device>" to the inventory router id. Throws if the
  /// name is unknown — tests want loud failures here.
  wire::RouterId router_id(const std::string& name) const;
  /// Resolves a port by inventory router name + port name.
  wire::PortId port_id(const std::string& router_name,
                       const std::string& port_name) const;

  void run_for(util::Duration d) { net_.run_for(d); }

 private:
  std::size_t register_device(ris::RouterInterface& site,
                              devices::Device& device,
                              const std::string& description,
                              bool with_console);

  simnet::Network net_;
  // Declared before server_/sites_: components deregister their probes in
  // their destructors, so the registry must be destroyed last. Same for the
  // tracer — its rings outlive every component that pushes into them.
  util::MetricsRegistry metrics_;
  util::Tracer tracer_;
  routeserver::RouteServer server_;
  LabService service_;
  ApiServer api_;
  wire::NetemProfile site_wan_;
  std::vector<std::unique_ptr<ris::RouterInterface>> sites_;
  std::vector<wire::NetemProfile> site_wans_;
  std::vector<std::unique_ptr<devices::Device>> devices_;
};

}  // namespace rnl::core
