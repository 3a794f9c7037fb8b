// E4 (Fig 5, §3.1): failover convergence experiments on the deployed lab.
//
// The lab of examples/failover_lab.cpp, driven as a parameter sweep: for
// each (polltime, holdtime) setting we kill the active FWSM and measure how
// long the standby takes to promote itself — the configuration question an
// administrator would iterate on in the test lab before touching production.
// A second sweep shows the BPDU-forwarding pitfall as a measured quantity:
// flood amplification with and without BPDUs crossing the firewall.

#include <cstdio>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

struct FailoverResult {
  double convergence_ms = 0;
  bool standby_promoted = false;
};

FailoverResult measure_convergence(util::Duration polltime,
                                   util::Duration holdtime) {
  core::Testbed bed(1000 + static_cast<std::uint64_t>(polltime.nanos % 997));
  ris::RouterInterface& site = bed.add_site("dc");
  devices::FirewallModule& fw1 = bed.add_firewall(site, "fw1");
  devices::FirewallModule& fw2 = bed.add_firewall(site, "fw2");
  bed.join_all();

  fw1.set_unit(0, 110);
  fw2.set_unit(1, 100);
  fw1.set_failover_timers(polltime, holdtime);
  fw2.set_failover_timers(polltime, holdtime);
  fw1.set_failover_enabled(true);
  fw2.set_failover_enabled(true);

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("ops", "failover-sweep");
  core::TopologyDesign* design = service.design(id);
  must(design->add_router(bed.router_id("dc/fw1")));
  must(design->add_router(bed.router_id("dc/fw2")));
  must(design->connect(bed.port_id("dc/fw1", "failover"),
                       bed.port_id("dc/fw2", "failover")));
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(1)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    std::exit(1);
  }

  bed.run_for(util::Duration::seconds(10));  // election settles
  if (fw2.state() != packet::FailoverState::kStandby) {
    return {};  // election failed: report as non-convergence
  }
  util::SimTime death = bed.net().now();
  fw1.power_off();
  bed.run_for(util::Duration::seconds(30));
  FailoverResult result;
  result.standby_promoted = fw2.state() == packet::FailoverState::kActive;
  if (result.standby_promoted) {
    result.convergence_ms = (fw2.last_became_active() - death).to_millis();
  }
  return result;
}

std::uint64_t measure_flood_amplification(bool bpdu_forward) {
  // LAN-speed tunnels: the loop is gated only by switch forwarding latency,
  // as it would be inside one data-center lab.
  core::Testbed bed(4242, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  devices::EthernetSwitch& sw1 = bed.add_switch(site, "sw1", 6);
  devices::EthernetSwitch& sw2 = bed.add_switch(site, "sw2", 6);
  devices::FirewallModule& fw = bed.add_firewall(site, "fw");
  devices::Host& host = bed.add_host(site, "h");
  host.configure(*packet::Ipv4Prefix::parse("10.0.0.1/24"),
                 *packet::Ipv4Address::parse("10.0.0.254"));
  bed.join_all();
  sw1.set_bridge_priority(0x1000);
  fw.set_bpdu_forward(bpdu_forward);

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("ops", "loop-lab");
  core::TopologyDesign* design = service.design(id);
  for (const char* name : {"dc/sw1", "dc/sw2", "dc/fw", "dc/h"}) {
    must(design->add_router(bed.router_id(name)));
  }
  must(design->connect(bed.port_id("dc/sw1", "Gi0/1"),
                       bed.port_id("dc/sw2", "Gi0/1")));
  must(design->connect(bed.port_id("dc/sw1", "Gi0/2"),
                       bed.port_id("dc/fw", "inside")));
  must(design->connect(bed.port_id("dc/fw", "outside"),
                       bed.port_id("dc/sw2", "Gi0/2")));
  must(design->connect(bed.port_id("dc/h", "eth0"),
                       bed.port_id("dc/sw1", "Gi0/3")));
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(1)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    std::exit(1);
  }
  bed.run_for(util::Duration::seconds(60));  // STP convergence window

  std::uint64_t floods_before = sw1.flood_count() + sw2.flood_count();
  host.ping(*packet::Ipv4Address::parse("10.0.0.99"), 1);  // one broadcast ARP
  bed.run_for(util::Duration::milliseconds(200));
  return sw1.flood_count() + sw2.flood_count() - floods_before;
}

}  // namespace

int main() {
  std::printf("E4 / Fig 5 — failover convergence vs timers\n");
  std::printf("%12s %12s %16s %10s\n", "poll(ms)", "hold(ms)", "converge(ms)",
              "promoted");
  struct Timer {
    int poll_ms;
    int hold_ms;
  } timers[] = {{500, 1500}, {200, 600}, {100, 300}, {50, 150}, {1000, 3000}};
  for (const auto& timer : timers) {
    FailoverResult result = measure_convergence(
        util::Duration::milliseconds(timer.poll_ms),
        util::Duration::milliseconds(timer.hold_ms));
    std::printf("%12d %12d %16.1f %10s\n", timer.poll_ms, timer.hold_ms,
                result.convergence_ms,
                result.standby_promoted ? "yes" : "NO");
  }
  std::printf(
      "\nShape check: convergence tracks holdtime (outage ~= holdtime + one\n"
      "poll interval); tighter timers buy faster failover.\n\n");

  std::printf("E4b / Fig 5 pitfall — BPDU forwarding through the FWSM\n");
  std::printf("%-28s %22s\n", "FWSM configuration", "floods per broadcast");
  std::uint64_t with_bpdu = measure_flood_amplification(true);
  std::uint64_t without_bpdu = measure_flood_amplification(false);
  std::printf("%-28s %22llu\n", "bpdu-forward (correct)",
              static_cast<unsigned long long>(with_bpdu));
  std::printf("%-28s %22llu\n", "no bpdu-forward (pitfall)",
              static_cast<unsigned long long>(without_bpdu));
  std::printf(
      "\nShape check: with BPDUs forwarded STP blocks the redundant path and\n"
      "one broadcast floods a handful of times; with BPDUs blocked the\n"
      "topology loops and the same broadcast floods thousands of times.\n");
  return 0;
}
