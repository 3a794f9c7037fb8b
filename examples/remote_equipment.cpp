// §3.3 Avoid shipping: virtually deploying diagnostic gear into a client's
// enterprise network.
//
// A NetMRI-style analyzer lives in Accenture's central lab. A client in
// another city has a misbehaving network. Instead of shipping the box:
//   1. the client's admin connects a RIS PC to one Ethernet port inside the
//      enterprise network and clicks "Join Labs" (the RIS dials OUT, so the
//      corporate firewall is a non-issue);
//   2. the consultant drags the analyzer and the exposed port into a design
//      and deploys — the analyzer is now "inside" the client network.
//
// The analyzer here is a TrafficGenerator used as a capture appliance; the
// client network is a small switch + hosts whose broadcast chatter the
// analyzer should observe within seconds of "deployment".
//
// Run: ./build/examples/remote_equipment

#include <cstdio>
#include <map>
#include <string>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {
packet::Ipv4Address ip(const char* s) { return *packet::Ipv4Address::parse(s); }
}

int main() {
  core::Testbed bed(77);

  // Central lab: the expensive diagnostic appliance.
  ris::RouterInterface& central = bed.add_site("central-lab");
  devices::TrafficGenerator& analyzer =
      bed.add_traffgen(central, "netmri-analyzer", 1);

  // Client site: their production-ish network. None of this gear belongs to
  // RNL — the client only offers ONE Ethernet port. The WAN between the
  // client and the route server is a real continental distance.
  ris::RouterInterface& client_site =
      bed.add_site("client-enterprise", wire::NetemProfile::transcontinental());
  devices::EthernetSwitch core_switch(bed.net(), "client-core-sw", 8);
  devices::Host workstation(bed.net(), "ws1");
  devices::Host fileserver(bed.net(), "srv1");
  workstation.configure(*packet::Ipv4Prefix::parse("172.16.0.10/24"),
                        ip("172.16.0.1"));
  fileserver.configure(*packet::Ipv4Prefix::parse("172.16.0.20/24"),
                       ip("172.16.0.1"));
  fileserver.set_udp_echo(true);

  // The client's own cabling (not RNL wires): workstation and server hang
  // off the core switch. The admin then connects the RIS PC to one spare
  // switch port — Gi0/3, "the exposed Ethernet port" — and joins the labs
  // (§3.3: "connect a PC with RIS to one Ethernet port within the
  // Enterprise network, and join it to RNL").
  bed.net().connect(workstation.port(0), core_switch.port(0));
  bed.net().connect(fileserver.port(0), core_switch.port(1));
  std::size_t exposed = client_site.add_router(
      &core_switch, "exposed port inside the client enterprise network",
      "client-sw.png");
  client_site.map_port(exposed, 2, "Gi0/3 - spare port offered to RNL");
  bed.join_all();

  std::printf("Inventory now spans %zu sites:\n", bed.server().site_count());
  for (const auto& item : bed.service().inventory()) {
    std::printf("  %-32s (%s)\n", item.name.c_str(),
                item.description.c_str());
  }

  // Consultant's design: analyzer port <-> exposed enterprise port.
  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("consultant", "virtual-shipping");
  core::TopologyDesign* design = service.design(id);
  must(design->add_router(bed.router_id("central-lab/netmri-analyzer")));
  must(design->add_router(bed.router_id("client-enterprise/client-core-sw")));
  must(design->connect(
      bed.port_id("central-lab/netmri-analyzer", "port1"),
      bed.port_id("client-enterprise/client-core-sw", "Gi0/3")));
  util::SimTime now = bed.net().now();
  // Two weeks.
  must(service.reserve(id, now, now + util::Duration::hours(24 * 14)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    return 1;
  }
  std::printf("\nAnalyzer virtually deployed into the client network.\n");
  bed.run_for(util::Duration::seconds(35));  // STP lets the port forward

  // Client traffic flows; the analyzer, a continent away, sees it live.
  workstation.ping(ip("172.16.0.20"), 3);
  util::Bytes query{0x42};
  workstation.send_udp(ip("172.16.0.20"), 5000, 445, query);
  bed.run_for(util::Duration::seconds(5));

  std::map<std::string, int> kinds;
  for (const auto& captured : analyzer.captured(0)) {
    auto frame = packet::EthernetFrame::parse(captured.frame);
    if (!frame.ok()) continue;
    switch (frame->ether_type) {
      case packet::EtherType::kArp:
        ++kinds["ARP"];
        break;
      case packet::EtherType::kIpv4:
        ++kinds["IPv4"];
        break;
      case packet::EtherType::kLlc:
        ++kinds["STP/LLC"];
        break;
      default:
        ++kinds["other"];
    }
  }
  std::printf("Analyzer captured %zu frames of client traffic:\n",
              analyzer.captured(0).size());
  for (const auto& [kind, count] : kinds) {
    std::printf("  %-6s x%d\n", kind.c_str(), count);
  }

  bool success = analyzer.captured(0).size() > 0;
  std::printf(success ? "\nNo crate, no customs, no days of delay: the tool "
                        "was 'on site' in seconds.\n"
                      : "\nUNEXPECTED: analyzer saw nothing.\n");
  return success ? 0 : 1;
}
