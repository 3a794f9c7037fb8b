// Fig 5: experimenting with the Catalyst-6500 + FWSM failover mechanism.
//
// Two switches, each fronting a firewall module; the modules monitor each
// other over failover VLAN 10. The operator
//   (a) configures failover and BPDU forwarding correctly, kills the active
//       unit, and watches the standby take over (measuring the outage), then
//   (b) repeats with the Fig 5 pitfall — FWSM not configured to allow
//       BPDUs — and watches the redundant topology melt into a forwarding
//       loop the instant STP goes blind through the firewall path.
//
// Run: ./build/examples/failover_lab

#include <cstdio>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

struct Lab {
  core::Testbed bed;
  devices::EthernetSwitch* sw1;
  devices::EthernetSwitch* sw2;
  devices::FirewallModule* fw1;
  devices::FirewallModule* fw2;
  devices::Host* intranet;
  devices::Host* internet;

  explicit Lab(bool fwsm_allows_bpdus) : bed(99) {
    ris::RouterInterface& site = bed.add_site("dc1");
    sw1 = &bed.add_switch(site, "cat6500-1", 6);
    sw2 = &bed.add_switch(site, "cat6500-2", 6);
    fw1 = &bed.add_firewall(site, "fwsm-1");
    fw2 = &bed.add_firewall(site, "fwsm-2");
    intranet = &bed.add_host(site, "s2-intranet");
    internet = &bed.add_host(site, "s1-internet");
    bed.join_all();

    // Failover pair configuration (console-style, programmatic here).
    fw1->set_unit(0, 110);
    fw2->set_unit(1, 100);
    fw1->set_bpdu_forward(fwsm_allows_bpdus);
    fw2->set_bpdu_forward(fwsm_allows_bpdus);
    fw1->set_failover_enabled(true);
    fw2->set_failover_enabled(true);
    sw1->set_bridge_priority(0x1000);  // sw1 is the STP root

    core::LabService& service = bed.service();
    core::DesignId id = service.create_design("ops", "fig5-failover");
    core::TopologyDesign* design = service.design(id);
    for (const char* name : {"dc1/cat6500-1", "dc1/cat6500-2", "dc1/fwsm-1",
                             "dc1/fwsm-2", "dc1/s2-intranet",
                             "dc1/s1-internet"}) {
      must(design->add_router(bed.router_id(name)));
    }
    // VLAN 10/11 interconnect between the switches (health monitoring).
    must(design->connect(bed.port_id("dc1/cat6500-1", "Gi0/1"),
                         bed.port_id("dc1/cat6500-2", "Gi0/1")));
    // Each FWSM bridges its switch (inside) toward the peer switch
    // (outside) — the redundant path STP must manage.
    must(design->connect(bed.port_id("dc1/cat6500-1", "Gi0/2"),
                         bed.port_id("dc1/fwsm-1", "inside")));
    must(design->connect(bed.port_id("dc1/fwsm-1", "outside"),
                         bed.port_id("dc1/cat6500-2", "Gi0/3")));
    // Failover VLAN between the modules.
    must(design->connect(bed.port_id("dc1/fwsm-1", "failover"),
                         bed.port_id("dc1/fwsm-2", "failover")));
    // Servers.
    must(design->connect(bed.port_id("dc1/s2-intranet", "eth0"),
                         bed.port_id("dc1/cat6500-1", "Gi0/4")));
    must(design->connect(bed.port_id("dc1/s1-internet", "eth0"),
                         bed.port_id("dc1/cat6500-2", "Gi0/4")));

    intranet->configure(*packet::Ipv4Prefix::parse("10.10.0.1/24"),
                        *packet::Ipv4Address::parse("10.10.0.254"));
    internet->configure(*packet::Ipv4Prefix::parse("10.10.0.2/24"),
                        *packet::Ipv4Address::parse("10.10.0.254"));

    util::SimTime now = bed.net().now();
    must(service.reserve(id, now, now + util::Duration::hours(4)));
    auto deployment = service.deploy(id);
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
      std::exit(1);
    }
  }
};

}  // namespace

int main() {
  std::printf("=== Part (a): correctly configured failover ===\n");
  {
    Lab lab(/*fwsm_allows_bpdus=*/true);
    lab.bed.run_for(util::Duration::seconds(60));  // STP + election converge

    std::printf("  fw1: %s, fw2: %s\n",
                packet::to_string(lab.fw1->state()).c_str(),
                packet::to_string(lab.fw2->state()).c_str());
    lab.intranet->ping(*packet::Ipv4Address::parse("10.10.0.2"), 3);
    lab.bed.run_for(util::Duration::seconds(2));
    std::printf("  baseline connectivity: %zu/3 replies\n",
                lab.intranet->ping_replies().size());

    // Kill the active unit ("she can also shutdown one switch ... to
    // simulate a switch failure and observe whether the failover mechanism
    // is triggered").
    util::SimTime death = lab.bed.net().now();
    lab.fw1->power_off();
    lab.bed.run_for(util::Duration::seconds(10));
    util::Duration outage = lab.fw2->last_became_active() - death;
    std::printf("  active unit killed -> standby took over in %s\n",
                util::to_string(outage).c_str());
  }

  std::printf("\n=== Part (b): the BPDU misconfiguration pitfall ===\n");
  {
    Lab lab(/*fwsm_allows_bpdus=*/false);
    lab.bed.run_for(util::Duration::seconds(45));
    // With BPDUs blocked by the FWSM, each switch believes it is alone on
    // the firewall path: nothing blocks, and broadcasts loop sw1 -> fw ->
    // sw2 -> direct link -> sw1 forever.
    std::uint64_t floods_before =
        lab.sw1->flood_count() + lab.sw2->flood_count();
    lab.intranet->ping(*packet::Ipv4Address::parse("10.10.0.99"), 1);
    lab.bed.run_for(util::Duration::milliseconds(200));
    std::uint64_t floods_after =
        lab.sw1->flood_count() + lab.sw2->flood_count();
    std::printf(
        "  one broadcast ARP entered the lab; switches flooded it %llu "
        "times in 200 ms — a forwarding loop\n",
        static_cast<unsigned long long>(floods_after - floods_before));
    std::printf(
        "  (the §3.1 transient: \"a loop may occur if the switches are "
        "configured incorrectly\")\n");
  }
  return 0;
}
