// E5 (Fig 6, §3.2): automated policy testing as the topology grows.
//
// Router chains of increasing length with the "subnet A must not reach
// subnet B" filter at the mid-point. For each chain length we run the full
// nightly test twice — once on the compliant topology, once after adding the
// policy-bypassing shortcut link — and report the verdicts plus the
// wall-clock cost of the whole automated cycle (deploy, configure via
// console, inject, capture, assert, teardown).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/autotest.h"
#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

packet::Ipv4Address ip(const std::string& s) {
  return *packet::Ipv4Address::parse(s);
}

struct Verdict {
  bool compliant_passed = false;
  bool violation_caught = false;
  double wall_ms = 0;
};

/// Chain: subnetA - r0 - r1 - ... - r(n-1) - subnetB, with the deny filter
/// outbound at r(n/2); the "shortcut" wires r0's spare port to r(n-1)'s.
Verdict run_chain(std::size_t n) {
  auto wall_start = std::chrono::steady_clock::now();
  core::Testbed bed(5000 + n);
  ris::RouterInterface& site = bed.add_site("dc");
  for (std::size_t i = 0; i < n; ++i) {
    bed.add_router(site, "r" + std::to_string(i), 4);
  }
  bed.join_all();

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("nightly", "chain");
  core::TopologyDesign* design = service.design(id);
  for (std::size_t i = 0; i < n; ++i) {
    must(design->add_router(bed.router_id("dc/r" + std::to_string(i))));
  }
  // Gi0/1: toward lower neighbour (or subnet A on r0)
  // Gi0/2: toward upper neighbour (or subnet B on r(n-1)); Gi0/3 spare.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    must(design->connect(
        bed.port_id("dc/r" + std::to_string(i), "Gi0/2"),
        bed.port_id("dc/r" + std::to_string(i + 1), "Gi0/1")));
  }
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(2)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    std::exit(1);
  }

  // Addressing: link i uses 10.100.i.0/30; subnet A = 10.1.0.0/24 at r0,
  // subnet B = 10.2.0.0/24 at r(n-1).
  auto configure = [&](bool with_shortcut) {
    for (std::size_t i = 0; i < n; ++i) {
      wire::RouterId rid = bed.router_id("dc/r" + std::to_string(i));
      service.console_exec(rid, "enable");
      service.console_exec(rid, "configure terminal");
      if (i == 0) {
        service.console_exec(rid, "interface Gi0/1");
        service.console_exec(rid, "ip address 10.1.0.254 255.255.255.0");
      } else {
        service.console_exec(rid, "interface Gi0/1");
        service.console_exec(
            rid, "ip address 10.100." + std::to_string(i - 1) +
                     ".2 255.255.255.252");
      }
      if (i + 1 < n) {
        service.console_exec(rid, "interface Gi0/2");
        service.console_exec(
            rid,
            "ip address 10.100." + std::to_string(i) + ".1 255.255.255.252");
      } else {
        service.console_exec(rid, "interface Gi0/2");
        service.console_exec(rid, "ip address 10.2.0.254 255.255.255.0");
      }
      // Routes toward both subnets along the chain.
      if (i + 1 < n) {
        service.console_exec(
            rid, "ip route 10.2.0.0 255.255.255.0 10.100." +
                     std::to_string(i) + ".2");
      }
      if (i > 0) {
        service.console_exec(
            rid, "ip route 10.1.0.0 255.255.255.0 10.100." +
                     std::to_string(i - 1) + ".1");
      }
      // The policy filter at the middle router.
      if (i == n / 2) {
        service.console_exec(
            rid,
            "access-list 102 deny ip 10.1.0.0 0.0.0.255 10.2.0.0 0.0.0.255");
        service.console_exec(rid, "access-list 102 permit ip any any");
        service.console_exec(rid, "interface Gi0/2");
        service.console_exec(rid, "ip access-group 102 out");
      }
      // The bypass, once the shortcut link exists.
      if (with_shortcut && i == 0) {
        service.console_exec(rid, "interface Gi0/3");
        service.console_exec(rid, "ip address 10.200.0.1 255.255.255.252");
        service.console_exec(rid,
                             "ip route 10.2.0.0 255.255.255.0 10.200.0.2");
      }
      if (with_shortcut && i == n - 1) {
        service.console_exec(rid, "interface Gi0/3");
        service.console_exec(rid, "ip address 10.200.0.2 255.255.255.252");
      }
      service.console_exec(rid, "end");
    }
  };

  auto nightly = [&]() {
    packet::EthernetFrame probe = packet::make_icmp_echo(
        packet::MacAddress::local(0xA0), packet::MacAddress::broadcast(),
        ip("10.1.0.50"), ip("10.2.0.50"), 1, 1);
    core::NightlyTest test(bed.api(), "policy");
    test.inject("A->B probe", bed.port_id("dc/r0", "Gi0/1"),
                probe.serialize())
        .expect_no_traffic("silence at subnet B",
                           bed.port_id("dc/r" + std::to_string(n - 1), "Gi0/2"),
                           util::Duration::seconds(2),
                           core::NightlyTest::Direction::kFromPort);
    return test.run();
  };

  Verdict verdict;
  configure(false);
  verdict.compliant_passed = nightly().passed();

  // The topology change: add the shortcut link and redeploy.
  must(service.teardown(*deployment));
  must(design->connect(bed.port_id("dc/r0", "Gi0/3"),
                       bed.port_id("dc/r" + std::to_string(n - 1), "Gi0/3")));
  auto redeploy = service.deploy(id);
  if (!redeploy.ok()) {
    std::fprintf(stderr, "redeploy failed: %s\n", redeploy.error().c_str());
    std::exit(1);
  }
  configure(true);
  verdict.violation_caught = !nightly().passed();

  verdict.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  return verdict;
}

}  // namespace

int main() {
  std::printf("E5 / Fig 6 — automated nightly policy test vs chain length\n");
  std::printf("%8s %18s %18s %10s\n", "routers", "compliant: PASS?",
              "violation caught?", "wall(ms)");
  // n >= 3: with only two routers the filter sits on the subnet-B egress
  // interface itself, which no shortcut can bypass — there is no violation
  // to catch (a finding of its own: put filters at the destination edge).
  for (std::size_t n : {3, 4, 6, 8, 12}) {
    Verdict verdict = run_chain(n);
    std::printf("%8zu %18s %18s %10.1f\n", n,
                verdict.compliant_passed ? "yes" : "NO",
                verdict.violation_caught ? "yes" : "NO", verdict.wall_ms);
  }
  std::printf(
      "\nShape check: the compliant topology always passes; the shortcut is\n"
      "always caught; the fully automated cycle stays in interactive time\n"
      "even as the lab grows — the \"nightly unit test\" workflow is viable.\n");
  return 0;
}
