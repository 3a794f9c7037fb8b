// §3.5 Application testing: "RNL can inject delay and jitter to simulate any
// wide area links. By deploying applications on top of a test network in
// RNL, we can test how an application behaves under a real-life scenario."
//
// A request/response application (UDP echo standing in for it) is measured
// first on a clean LAN wire, then on the same *design* with the wire
// re-declared as a transcontinental link. Same topology, same devices, same
// configuration — only the virtual wire's WAN profile changes.
//
// Run: ./build/examples/wan_application_test

#include <cstdio>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

packet::Ipv4Address ip(const char* s) { return *packet::Ipv4Address::parse(s); }

struct Sample {
  double mean_ms = 0;
  double min_ms = 1e18;
  double max_ms = 0;
  std::size_t answered = 0;
};

Sample measure(core::Testbed& bed, devices::Host& client,
               std::size_t requests) {
  client.clear_received();
  Sample sample;
  std::vector<util::SimTime> sent_at;
  for (std::size_t i = 0; i < requests; ++i) {
    util::Bytes payload{static_cast<std::uint8_t>(i)};
    sent_at.push_back(bed.net().now());
    client.send_udp(ip("10.7.0.2"), 4000, 7777, payload);
    bed.run_for(util::Duration::milliseconds(500));
  }
  for (const auto& reply : client.received_udp()) {
    std::size_t i = reply.payload.at(0);
    double rtt_ms = (reply.at - sent_at.at(i)).to_millis();
    sample.mean_ms += rtt_ms;
    sample.min_ms = std::min(sample.min_ms, rtt_ms);
    sample.max_ms = std::max(sample.max_ms, rtt_ms);
    ++sample.answered;
  }
  if (sample.answered > 0) {
    sample.mean_ms /= static_cast<double>(sample.answered);
  }
  return sample;
}

}  // namespace

int main() {
  core::Testbed bed(555, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("applab");
  devices::Host& client = bed.add_host(site, "client");
  devices::Host& server = bed.add_host(site, "appserver");
  client.configure(*packet::Ipv4Prefix::parse("10.7.0.1/24"), ip("10.7.0.254"));
  server.configure(*packet::Ipv4Prefix::parse("10.7.0.2/24"), ip("10.7.0.254"));
  server.set_udp_echo(true);
  bed.join_all();

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("dev", "app-under-wan");
  core::TopologyDesign* design = service.design(id);
  must(design->add_router(bed.router_id("applab/client")));
  must(design->add_router(bed.router_id("applab/appserver")));
  wire::PortId client_port = bed.port_id("applab/client", "eth0");
  wire::PortId server_port = bed.port_id("applab/appserver", "eth0");
  must(design->connect(client_port, server_port));  // clean LAN wire first
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(8)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    return 1;
  }

  std::printf("%-22s %10s %10s %10s %8s\n", "wire profile", "mean(ms)",
              "min(ms)", "max(ms)", "replies");
  Sample lan = measure(bed, client, 50);
  std::printf("%-22s %10.3f %10.3f %10.3f %5zu/50\n", "LAN (clean)",
              lan.mean_ms, lan.min_ms, lan.max_ms, lan.answered);

  // Same design, WAN-impaired wire (§3.5).
  struct Scenario {
    const char* name;
    wire::NetemProfile profile;
  } scenarios[] = {
      {"metro (2ms)", wire::NetemProfile::metro()},
      {"transcontinental", wire::NetemProfile::transcontinental()},
      {"intercontinental", wire::NetemProfile::intercontinental()},
  };
  for (const auto& scenario : scenarios) {
    must(service.teardown(*deployment));
    must(design->disconnect(client_port));
    must(design->connect(client_port, server_port, scenario.profile));
    deployment = service.deploy(id);
    if (!deployment.ok()) {
      std::fprintf(stderr, "redeploy failed: %s\n",
                   deployment.error().c_str());
      return 1;
    }
    Sample wan = measure(bed, client, 50);
    std::printf("%-22s %10.3f %10.3f %10.3f %5zu/50\n", scenario.name,
                wan.mean_ms, wan.min_ms, wan.max_ms, wan.answered);
  }

  std::printf(
      "\nThe application that looked instant on the LAN sees its RTT "
      "dominated by the emulated WAN — without shipping anything anywhere.\n");
  return 0;
}
