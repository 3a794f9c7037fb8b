// Fig 6: an automated nightly test that catches a security-policy violation.
//
// Four routers. Initially R3-R1-R2-R4 in a chain; packet filters at R1.2 and
// R2.2 enforce "subnet A (behind R1) cannot talk to subnet B (behind R2)".
// Later, an operator adds a direct R3-R4 link; traffic from subnet A now
// routes around the filters and the policy silently breaks — until the
// nightly test flags it.
//
// Everything below the topology setup runs through the web-services API, as
// §3.2 prescribes: generate a packet at R1.1, capture at R2.1, assert.
//
// Run: ./build/examples/policy_nightly_test

#include <cstdio>

#include "core/autotest.h"
#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

packet::Ipv4Address ip(const char* s) {
  return *packet::Ipv4Address::parse(s);
}

/// Applies the Fig 6 addressing/filters via each router's console.
void configure_routers(core::Testbed& bed) {
  core::LabService& service = bed.service();
  auto apply = [&](const char* router, std::initializer_list<const char*> lines) {
    wire::RouterId id = bed.router_id(router);
    service.console_exec(id, "enable");
    service.console_exec(id, "configure terminal");
    for (const char* line : lines) service.console_exec(id, line);
    service.console_exec(id, "end");
  };

  // Subnet A = 10.1.0.0/24 (behind R3), subnet B = 10.2.0.0/24 (behind R4).
  apply("dc1/R1", {
                      "interface Gi0/1", "ip address 10.31.0.1 255.255.255.0",
                      "interface Gi0/2", "ip address 10.12.0.1 255.255.255.0",
                      // The policy filter: nothing from A may head to B.
                      "access-list 102 deny ip 10.1.0.0 0.0.0.255 10.2.0.0 0.0.0.255",
                      "access-list 102 permit ip any any",
                      "interface Gi0/2", "ip access-group 102 out",
                      "ip route 10.1.0.0 255.255.255.0 10.31.0.3",
                      "ip route 10.2.0.0 255.255.255.0 10.12.0.2",
                      "ip route 10.42.0.0 255.255.255.0 10.12.0.2",
                  });
  apply("dc1/R2", {
                      "interface Gi0/1", "ip address 10.42.0.2 255.255.255.0",
                      "interface Gi0/2", "ip address 10.12.0.2 255.255.255.0",
                      "access-list 102 deny ip 10.1.0.0 0.0.0.255 10.2.0.0 0.0.0.255",
                      "access-list 102 permit ip any any",
                      "interface Gi0/2", "ip access-group 102 in",
                      "ip route 10.2.0.0 255.255.255.0 10.42.0.4",
                      "ip route 10.1.0.0 255.255.255.0 10.12.0.1",
                  });
  apply("dc1/R3", {
                      "interface Gi0/1", "ip address 10.1.0.254 255.255.255.0",
                      "interface Gi0/2", "ip address 10.31.0.3 255.255.255.0",
                      "interface Gi0/3", "ip address 10.34.0.3 255.255.255.0",
                      "ip route 0.0.0.0 0.0.0.0 10.31.0.1",
                  });
  apply("dc1/R4", {
                      "interface Gi0/1", "ip address 10.2.0.254 255.255.255.0",
                      "interface Gi0/2", "ip address 10.42.0.4 255.255.255.0",
                      "interface Gi0/3", "ip address 10.34.0.4 255.255.255.0",
                      "ip route 0.0.0.0 0.0.0.0 10.42.0.2",
                  });
}

/// The nightly policy test (§3.2). The paper generates at R1.1 and captures
/// at R2.1; we generate where subnet A enters the lab (R3.1) and capture
/// where subnet B attaches (R4.1) so the capture point also covers paths
/// that bypass R1/R2 entirely — which is exactly the failure mode the new
/// R3-R4 link introduces.
core::TestReport run_policy_test(core::Testbed& bed) {
  packet::EthernetFrame probe = packet::make_icmp_echo(
      packet::MacAddress::local(0xA0),
      packet::MacAddress::broadcast(),  // routers accept broadcast probes
      ip("10.1.0.50"), ip("10.2.0.50"), 1, 1);
  core::NightlyTest test(bed.api(), "policy: subnet A must not reach subnet B");
  test.inject("generate A->B packet entering R3 from subnet A",
              bed.port_id("dc1/R3", "Gi0/1"), probe.serialize())
      .expect_no_traffic("nothing may leave R4 toward subnet B",
                         bed.port_id("dc1/R4", "Gi0/1"),
                         util::Duration::seconds(2),
                         core::NightlyTest::Direction::kFromPort);
  return test.run();
}

}  // namespace

int main() {
  core::Testbed bed(1234);
  ris::RouterInterface& site = bed.add_site("dc1");
  for (const char* name : {"R1", "R2", "R3", "R4"}) {
    bed.add_router(site, name, 3);
  }
  bed.join_all();

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("ops", "fig6-policy");
  core::TopologyDesign* design = service.design(id);
  for (const char* name : {"dc1/R1", "dc1/R2", "dc1/R3", "dc1/R4"}) {
    must(design->add_router(bed.router_id(name)));
  }
  must(design->connect(bed.port_id("dc1/R3", "Gi0/2"),
                       bed.port_id("dc1/R1", "Gi0/1")));
  must(design->connect(bed.port_id("dc1/R1", "Gi0/2"),
                       bed.port_id("dc1/R2", "Gi0/2")));
  must(design->connect(bed.port_id("dc1/R2", "Gi0/1"),
                       bed.port_id("dc1/R4", "Gi0/2")));
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(8)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    return 1;
  }
  configure_routers(bed);

  std::printf("=== Night 1: original chain topology ===\n");
  core::TestReport night1 = run_policy_test(bed);
  std::printf("%s\n", night1.summary().c_str());

  // Weeks later: an operator adds the R3-R4 link "for resilience". In RNL
  // this is one more design edge + redeploy; routes via the new link make
  // A reach B around the filters.
  std::printf("=== Change: operator adds a direct R3-R4 link ===\n");
  must(service.teardown(*deployment));
  must(design->connect(bed.port_id("dc1/R3", "Gi0/3"),
                       bed.port_id("dc1/R4", "Gi0/3")));
  auto redeployment = service.deploy(id);
  if (!redeployment.ok()) {
    std::fprintf(stderr, "redeploy failed: %s\n",
                 redeployment.error().c_str());
    return 1;
  }
  configure_routers(bed);
  // The "helpful" new static routes that create the bypass.
  for (const char* line : {"enable", "configure terminal",
                           "ip route 10.2.0.0 255.255.255.0 10.34.0.4",
                           "end"}) {
    service.console_exec(bed.router_id("dc1/R3"), line);
  }

  std::printf("=== Night 2: same nightly test ===\n");
  core::TestReport night2 = run_policy_test(bed);
  std::printf("%s\n", night2.summary().c_str());

  bool caught = night1.passed() && !night2.passed();
  std::printf(caught
                  ? "The nightly run caught the policy violation introduced "
                    "by the link addition — before any security breach.\n"
                  : "UNEXPECTED: the violation was not detected.\n");
  return caught ? 0 : 1;
}
