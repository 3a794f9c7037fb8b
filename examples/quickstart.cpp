// Quickstart: the canonical RNL session.
//
// A network administrator at "hq" wants to sanity-check a two-subnet router
// configuration without touching production. She:
//   1. browses the inventory (Fig 2 left column),
//   2. drags a router and two servers onto the design plane and wires them,
//   3. reserves the equipment for the next free hour,
//   4. deploys — RNL programs the virtual wires,
//   5. configures the router over its console (VT100 through the browser),
//   6. pings across, and tears the lab down.
//
// Run: ./build/examples/quickstart

#include <cstdio>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

int main() {
  core::Testbed bed(/*seed=*/2026);

  // A central data-center site provides the shared equipment (§2:
  // "the bulk of the test equipment is located in a couple of central data
  // centers").
  ris::RouterInterface& dc = bed.add_site("dc1");
  bed.add_router(dc, "edge-router", 2);
  devices::Host& s1 = bed.add_host(dc, "s1");
  devices::Host& s2 = bed.add_host(dc, "s2");
  s1.configure(*packet::Ipv4Prefix::parse("10.1.0.10/24"),
               *packet::Ipv4Address::parse("10.1.0.1"));
  s2.configure(*packet::Ipv4Prefix::parse("10.2.0.10/24"),
               *packet::Ipv4Address::parse("10.2.0.1"));
  bed.join_all();

  std::printf("== Inventory ==\n");
  for (const auto& item : bed.service().inventory()) {
    std::printf("  [%u] %-18s %s (%zu ports%s)\n", item.id, item.name.c_str(),
                item.description.c_str(), item.ports.size(),
                item.has_console ? ", console" : "");
  }

  // Design: s1 -- router -- s2.
  core::LabService& service = bed.service();
  core::DesignId design_id = service.create_design("alice", "quickstart");
  core::TopologyDesign* design = service.design(design_id);
  must(design->add_router(bed.router_id("dc1/edge-router")));
  must(design->add_router(bed.router_id("dc1/s1")));
  must(design->add_router(bed.router_id("dc1/s2")));
  must(design->connect(bed.port_id("dc1/s1", "eth0"),
                       bed.port_id("dc1/edge-router", "Gi0/1")));
  must(design->connect(bed.port_id("dc1/s2", "eth0"),
                       bed.port_id("dc1/edge-router", "Gi0/2")));
  must(service.save_design(design_id));

  // Reserve the next free hour for every router in the design.
  util::SimTime start =
      service.next_free_slot(design_id, util::Duration::hours(1));
  auto reservation =
      service.reserve(design_id, start, start + util::Duration::hours(1));
  if (!reservation.ok()) {
    std::fprintf(stderr, "reservation failed: %s\n",
                 reservation.error().c_str());
    return 1;
  }
  auto deployment = service.deploy(design_id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    return 1;
  }
  std::printf("\n== Deployed design '%s' (%zu virtual wires) ==\n",
              design->name().c_str(), design->links().size());

  // Configure the router through its console, exactly as in the browser
  // terminal.
  wire::RouterId router_id = bed.router_id("dc1/edge-router");
  for (const char* line :
       {"enable", "configure terminal", "interface Gi0/1",
        "ip address 10.1.0.1 255.255.255.0", "interface Gi0/2",
        "ip address 10.2.0.1 255.255.255.0", "end"}) {
    service.console_exec(router_id, line);
  }
  std::printf("\n== Router configuration ==\n%s",
              service.console_exec(router_id, "show running-config").c_str());

  // Prove the lab works: ping across subnets.
  s1.ping(*packet::Ipv4Address::parse("10.2.0.10"), 5);
  bed.run_for(util::Duration::seconds(3));
  std::printf("\n== Result ==\n  s1 -> s2: %zu/5 echo replies",
              s1.ping_replies().size());
  if (!s1.ping_replies().empty()) {
    std::printf(" (rtt %s)", util::to_string(s1.ping_replies()[0].rtt).c_str());
  }
  std::printf("\n");

  // Archive the validated config for the next session, then tear down.
  must(service.save_router_config(router_id));
  must(service.teardown(*deployment));
  std::printf("  lab torn down, %llu frames crossed the route server\n",
              static_cast<unsigned long long>(
                  bed.server().stats().frames_routed));
  return s1.ping_replies().size() == 5 ? 0 : 1;
}
