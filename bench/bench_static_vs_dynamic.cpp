// E11 (§1, §5): static configuration analysis vs. RNL's dynamic testing.
//
// The paper's motivation for building a lab out of REAL equipment instead of
// analyzing configuration files: "the analysis is limited ... and it cannot
// capture an individual router's behaviors", and §1's observation that every
// firmware version "behaves slightly different. A design may work on paper,
// but it may not on routers with a particular version of the firmware."
//
// The experiment: one policy (subnet A must not reach subnet B, deny filter
// OUTBOUND on the transit router), evaluated two ways on the same deployed
// lab —
//   STATIC : our reachability analyzer over the configs as written,
//   DYNAMIC: the RNL nightly test injecting a real probe and capturing.
// Sweep over firmware images. On the image whose regression silently
// ignores outbound ACLs, static analysis says "blocked" (the config is
// perfect on paper) while the real router leaks the packet — only the
// dynamic test catches it.

#include <cstdio>

#include "core/autotest.h"
#include "core/static_analysis.h"
#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

packet::Ipv4Address ip(const char* s) { return *packet::Ipv4Address::parse(s); }
packet::Ipv4Prefix prefix(const char* s) { return *packet::Ipv4Prefix::parse(s); }

struct Verdicts {
  bool static_says_blocked = false;
  bool dynamic_says_blocked = false;
};

Verdicts evaluate(const devices::Firmware& firmware) {
  core::Testbed bed(1100, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  devices::Ipv4Router& r1 = bed.add_router(site, "r1", 3, firmware);
  devices::Ipv4Router& r2 = bed.add_router(site, "r2", 3);
  bed.join_all();

  // r1: subnet A on Gi0/1; transit to r2 on Gi0/2 with the deny OUT filter.
  r1.set_interface_address(0, prefix("10.1.0.254/24"));
  r1.set_interface_address(1, prefix("10.12.0.1/30"));
  devices::AclEntry deny;
  deny.permit = false;
  deny.src = ip("10.1.0.0");
  deny.src_wildcard = 0xFF;
  deny.dst = ip("10.2.0.0");
  deny.dst_wildcard = 0xFF;
  r1.add_acl_entry(102, deny);
  devices::AclEntry permit;
  r1.add_acl_entry(102, permit);
  r1.set_interface_acl(1, /*inbound=*/false, 102);
  r1.add_static_route(prefix("10.2.0.0/24"), ip("10.12.0.2"));
  r2.set_interface_address(0, prefix("10.2.0.254/24"));
  r2.set_interface_address(1, prefix("10.12.0.2/30"));

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("audit", "policy");
  core::TopologyDesign* design = service.design(id);
  must(design->add_router(bed.router_id("dc/r1")));
  must(design->add_router(bed.router_id("dc/r2")));
  must(design->connect(bed.port_id("dc/r1", "Gi0/2"),
                       bed.port_id("dc/r2", "Gi0/2")));
  util::SimTime now = bed.net().now();
  (void)service.reserve(id, now, now + util::Duration::hours(1));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    std::exit(1);
  }

  Verdicts verdicts;

  // --- STATIC: analyze the configs as written. ---
  core::StaticReachabilityAnalyzer analyzer;
  analyzer.add_router(&r1);
  analyzer.add_router(&r2);
  analyzer.add_adjacency("r1", 1, "r2", 1);
  core::FlowQuery flow;
  flow.src = ip("10.1.0.50");
  flow.dst = ip("10.2.0.50");
  flow.protocol = 1;
  auto static_result = analyzer.analyze("r1", 0, flow);
  verdicts.static_says_blocked = !static_result.reachable;

  // --- DYNAMIC: the RNL nightly test with a real probe. ---
  packet::EthernetFrame probe = packet::make_icmp_echo(
      packet::MacAddress::local(0xA0), packet::MacAddress::broadcast(),
      flow.src, flow.dst, 1, 1);
  core::NightlyTest test(bed.api(), "policy");
  test.inject("A->B probe", bed.port_id("dc/r1", "Gi0/1"), probe.serialize())
      .expect_no_traffic("silence toward subnet B",
                         bed.port_id("dc/r2", "Gi0/1"),
                         util::Duration::seconds(2),
                         core::NightlyTest::Direction::kFromPort);
  verdicts.dynamic_says_blocked = test.run().passed();
  return verdicts;
}

}  // namespace

int main() {
  std::printf(
      "E11 / §1+§5 — static config analysis vs RNL dynamic testing\n"
      "Policy: deny subnet A -> subnet B, outbound filter on the transit "
      "router.\n\n");
  std::printf("%-24s %18s %18s %10s\n", "firmware on r1", "static verdict",
              "dynamic verdict", "agree?");
  bool divergence_found = false;
  for (const auto& image : devices::FirmwareCatalog::instance().all()) {
    Verdicts verdicts = evaluate(image);
    bool agree = verdicts.static_says_blocked == verdicts.dynamic_says_blocked;
    if (!agree) divergence_found = true;
    std::printf("%-24s %18s %18s %10s%s\n", image.version.c_str(),
                verdicts.static_says_blocked ? "blocked" : "REACHABLE",
                verdicts.dynamic_says_blocked ? "blocked" : "LEAKED",
                agree ? "yes" : "NO",
                image.bug_outbound_acl_ignored ? "  <- buggy image" : "");
  }
  std::printf(
      "\nShape check: static analysis and dynamic testing agree wherever\n"
      "the firmware honours its configuration; on the image with the\n"
      "outbound-ACL regression the config is perfect ON PAPER (static:\n"
      "blocked) yet the real device leaks — only RNL's dynamic test with\n"
      "real equipment catches it. %s\n",
      divergence_found ? "Divergence reproduced." : "NO DIVERGENCE (bug?)");
  return divergence_found ? 0 : 1;
}
