// End-to-end scenario tests: the paper's use cases run through the full
// service stack (devices -> RIS -> tunnel -> route server -> lab service),
// plus the real-TCP variant of the RIS/route-server pairing.

#include <gtest/gtest.h>

#include "core/autotest.h"
#include "core/testbed.h"
#include "transport/tcp.h"

namespace rnl {
namespace {

using util::Duration;
using packet::Ipv4Address;
using packet::Ipv4Prefix;

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix prefix(const char* s) { return *Ipv4Prefix::parse(s); }

/// Fig 5: the failover lab, deployed through the service.
class Fig5Lab : public ::testing::Test {
 protected:
  void build(bool bpdus_allowed) {
    bed = std::make_unique<core::Testbed>(8801, wire::NetemProfile::lan());
    ris::RouterInterface& site = bed->add_site("dc");
    sw1 = &bed->add_switch(site, "sw1", 6);
    sw2 = &bed->add_switch(site, "sw2", 6);
    fw1 = &bed->add_firewall(site, "fw1");
    fw2 = &bed->add_firewall(site, "fw2");
    bed->join_all();
    sw1->set_bridge_priority(0x1000);
    fw1->set_unit(0, 110);
    fw2->set_unit(1, 100);
    fw1->set_bpdu_forward(bpdus_allowed);
    fw2->set_bpdu_forward(bpdus_allowed);
    fw1->set_failover_enabled(true);
    fw2->set_failover_enabled(true);

    core::LabService& service = bed->service();
    core::DesignId id = service.create_design("ops", "fig5");
    core::TopologyDesign* design = service.design(id);
    for (const char* name : {"dc/sw1", "dc/sw2", "dc/fw1", "dc/fw2"}) {
      ASSERT_TRUE(design->add_router(bed->router_id(name)).ok());
    }
    ASSERT_TRUE(design->connect(bed->port_id("dc/sw1", "Gi0/1"),
                                bed->port_id("dc/sw2", "Gi0/1")).ok());
    ASSERT_TRUE(design->connect(bed->port_id("dc/sw1", "Gi0/2"),
                                bed->port_id("dc/fw1", "inside")).ok());
    ASSERT_TRUE(design->connect(bed->port_id("dc/fw1", "outside"),
                                bed->port_id("dc/sw2", "Gi0/2")).ok());
    ASSERT_TRUE(design->connect(bed->port_id("dc/fw1", "failover"),
                                bed->port_id("dc/fw2", "failover")).ok());
    util::SimTime now = bed->net().now();
    ASSERT_TRUE(service.reserve(id, now, now + Duration::hours(1)).ok());
    auto deployment = service.deploy(id);
    ASSERT_TRUE(deployment.ok()) << deployment.error();
  }

  std::unique_ptr<core::Testbed> bed;
  devices::EthernetSwitch* sw1 = nullptr;
  devices::EthernetSwitch* sw2 = nullptr;
  devices::FirewallModule* fw1 = nullptr;
  devices::FirewallModule* fw2 = nullptr;
};

TEST_F(Fig5Lab, CorrectConfigElectsActiveAndBlocksLoop) {
  build(/*bpdus_allowed=*/true);
  bed->run_for(Duration::seconds(60));
  EXPECT_EQ(fw1->state(), packet::FailoverState::kActive);
  EXPECT_EQ(fw2->state(), packet::FailoverState::kStandby);
  // The redundant firewall path is blocked by STP somewhere: exactly one of
  // the loop-forming ports ends up not forwarding.
  int blocking = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (sw1->stp_state(i) == devices::StpPortState::kBlocking) ++blocking;
    if (sw2->stp_state(i) == devices::StpPortState::kBlocking) ++blocking;
  }
  EXPECT_EQ(blocking, 1);
  EXPECT_GT(fw1->counters().bpdus_forwarded, 0u);
}

TEST_F(Fig5Lab, FailoverTriggersWithinHoldtime) {
  build(true);
  bed->run_for(Duration::seconds(60));
  ASSERT_EQ(fw2->state(), packet::FailoverState::kStandby);
  util::SimTime death = bed->net().now();
  fw1->power_off();
  bed->run_for(Duration::seconds(10));
  ASSERT_EQ(fw2->state(), packet::FailoverState::kActive);
  Duration convergence = fw2->last_became_active() - death;
  EXPECT_LT(convergence, Duration::seconds(3));
}

TEST_F(Fig5Lab, MissingBpduConfigCreatesForwardingLoop) {
  build(/*bpdus_allowed=*/false);
  bed->run_for(Duration::seconds(45));
  EXPECT_EQ(fw1->counters().bpdus_forwarded, 0u);
  EXPECT_GT(fw1->counters().bpdus_dropped, 0u);
  // Both switches fully forward around the loop; a single broadcast
  // circulates. (The storm is rate-limited only by forwarding latency.)
  std::uint64_t floods_before = sw1->flood_count() + sw2->flood_count();
  packet::ArpPacket arp;
  packet::EthernetFrame frame = packet::ArpPacket::make_request(
      packet::MacAddress::local(9), ip("10.0.0.9"), ip("10.0.0.77"));
  // Push the broadcast straight into sw1 via an injected frame.
  ASSERT_TRUE(bed->server()
                  .inject_frame(bed->port_id("dc/sw1", "Gi0/1"),
                                frame.serialize())
                  .ok());
  bed->run_for(Duration::milliseconds(100));
  EXPECT_GT(sw1->flood_count() + sw2->flood_count() - floods_before, 500u);
}

/// Fig 6 policy scenario (compact form of the example, as a regression test).
TEST(Fig6Policy, ViolationCaughtOnlyAfterShortcutLink) {
  core::Testbed bed(8802, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  devices::Ipv4Router& r1 = bed.add_router(site, "r1", 3);
  devices::Ipv4Router& r2 = bed.add_router(site, "r2", 3);
  bed.join_all();

  // r1: subnet A on Gi0/1, transit to r2 on Gi0/2 with the deny filter out.
  r1.set_interface_address(0, prefix("10.1.0.254/24"));
  r1.set_interface_address(1, prefix("10.12.0.1/30"));
  r1.set_interface_address(2, prefix("10.99.0.1/30"));
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
  r2.set_interface_address(2, prefix("10.99.0.2/30"));

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("ops", "fig6");
  core::TopologyDesign* design = service.design(id);
  ASSERT_TRUE(design->add_router(bed.router_id("dc/r1")).ok());
  ASSERT_TRUE(design->add_router(bed.router_id("dc/r2")).ok());
  ASSERT_TRUE(design
                  ->connect(bed.port_id("dc/r1", "Gi0/2"),
                            bed.port_id("dc/r2", "Gi0/2"))
                  .ok());
  util::SimTime now = bed.net().now();
  ASSERT_TRUE(service.reserve(id, now, now + Duration::hours(1)).ok());
  auto deployment = service.deploy(id);
  ASSERT_TRUE(deployment.ok()) << deployment.error();

  packet::EthernetFrame probe = packet::make_icmp_echo(
      packet::MacAddress::local(0xA0), packet::MacAddress::broadcast(),
      ip("10.1.0.50"), ip("10.2.0.50"), 1, 1);
  auto nightly = [&] {
    core::NightlyTest test(bed.api(), "policy");
    test.inject("A->B probe", bed.port_id("dc/r1", "Gi0/1"),
                probe.serialize())
        .expect_no_traffic("silence toward subnet B",
                           bed.port_id("dc/r2", "Gi0/1"), Duration::seconds(2),
                           core::NightlyTest::Direction::kFromPort);
    return test.run();
  };

  EXPECT_TRUE(nightly().passed());  // filter holds on the legit path

  // The later "resilience" link that bypasses the filter.
  ASSERT_TRUE(service.teardown(*deployment).ok());
  ASSERT_TRUE(design
                  ->connect(bed.port_id("dc/r1", "Gi0/3"),
                            bed.port_id("dc/r2", "Gi0/3"))
                  .ok());
  ASSERT_TRUE(service.deploy(id).ok());
  r1.add_static_route(prefix("10.2.0.0/24"), ip("10.99.0.2"));

  core::TestReport report = nightly();
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.summary().find("POLICY VIOLATION"), std::string::npos);
}

/// The full RIS <-> route server pairing over REAL TCP sockets: join, wire
/// two host ports, ping across. Devices tick on the simulated clock while
/// bytes move through the kernel's loopback.
TEST(TcpFullStack, JoinWireAndPingOverRealSockets) {
  simnet::Network net(8803);
  routeserver::RouteServer server(net.scheduler());
  transport::TcpEventLoop loop;
  transport::TcpListener listener(loop);
  ASSERT_TRUE(listener
                  .listen(0,
                          [&](std::unique_ptr<transport::TcpTransport> t) {
                            server.accept(std::move(t));
                          })
                  .ok());

  devices::Host h1(net, "h1");
  devices::Host h2(net, "h2");
  h1.configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
  h2.configure(prefix("10.0.0.2/24"), ip("10.0.0.254"));
  ris::RouterInterface site1(net, "tcp-site1");
  ris::RouterInterface site2(net, "tcp-site2");
  std::size_t i1 = site1.add_router(&h1, "h1", "h.png");
  site1.map_port(i1, 0, "eth0");
  std::size_t i2 = site2.add_router(&h2, "h2", "h.png");
  site2.map_port(i2, 0, "eth0");

  auto c1 = transport::tcp_connect(loop, listener.port());
  ASSERT_TRUE(c1.ok()) << c1.error();
  auto c2 = transport::tcp_connect(loop, listener.port());
  ASSERT_TRUE(c2.ok()) << c2.error();
  site1.join(std::move(*c1));
  site2.join(std::move(*c2));
  ASSERT_TRUE(loop.run_until(
      [&] { return site1.joined() && site2.joined(); }));

  auto inventory = server.inventory();
  ASSERT_EQ(inventory.size(), 2u);
  ASSERT_TRUE(server
                  .connect_ports(inventory[0].ports[0].id,
                                 inventory[1].ports[0].id)
                  .ok());

  h1.ping(ip("10.0.0.2"), 3);
  // Interleave the two time domains: advance the simulated clock (device
  // timers, frame emission) and pump the real sockets.
  for (int i = 0; i < 400 && h1.ping_replies().size() < 3; ++i) {
    net.run_for(Duration::milliseconds(10));
    loop.run_once(1);
  }
  EXPECT_EQ(h1.ping_replies().size(), 3u);
  EXPECT_GT(server.stats().frames_routed, 0u);

  // Console over real TCP too.
  std::string console_output;
  server.set_console_output_handler(
      [&](wire::RouterId, util::BytesView bytes) {
        console_output.append(bytes.begin(), bytes.end());
      });
  // (console was not attached for these hosts; expect a clean error)
  EXPECT_TRUE(server
                  .console_send(inventory[0].id,
                                util::BytesView(
                                    reinterpret_cast<const std::uint8_t*>("x\n"),
                                    2))
                  .ok());
  site1.leave();
  for (int i = 0; i < 50; ++i) loop.run_once(1);
  EXPECT_EQ(server.inventory().size(), 1u);
}

/// §3.6 remote collaboration + §2.1 multiple simultaneous design sessions.
TEST(MultiUser, SimultaneousSessionsAndSerializedDeployments) {
  core::Testbed bed(8804, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  for (int i = 0; i < 4; ++i) {
    bed.add_host(site, "h" + std::to_string(i));
  }
  bed.join_all();
  core::LabService& service = bed.service();

  // Two users, two disjoint designs: both deploy concurrently.
  core::DesignId a = service.create_design("alice", "a");
  ASSERT_TRUE(service.design(a)->add_router(bed.router_id("dc/h0")).ok());
  ASSERT_TRUE(service.design(a)->add_router(bed.router_id("dc/h1")).ok());
  ASSERT_TRUE(service.design(a)->connect(bed.port_id("dc/h0", "eth0"),
                                         bed.port_id("dc/h1", "eth0")).ok());
  core::DesignId b = service.create_design("bob", "b");
  ASSERT_TRUE(service.design(b)->add_router(bed.router_id("dc/h2")).ok());
  ASSERT_TRUE(service.design(b)->add_router(bed.router_id("dc/h3")).ok());
  ASSERT_TRUE(service.design(b)->connect(bed.port_id("dc/h2", "eth0"),
                                         bed.port_id("dc/h3", "eth0")).ok());

  util::SimTime now = bed.net().now();
  ASSERT_TRUE(service.reserve(a, now, now + Duration::hours(1)).ok());
  ASSERT_TRUE(service.reserve(b, now, now + Duration::hours(1)).ok());
  auto deploy_a = service.deploy(a);
  auto deploy_b = service.deploy(b);
  EXPECT_TRUE(deploy_a.ok());
  EXPECT_TRUE(deploy_b.ok());
  EXPECT_EQ(bed.server().wire_count(), 2u);

  // Same-user parallel design sessions are fine too (§2.1: "start multiple
  // simultaneous design sessions").
  core::DesignId a2 = service.create_design("alice", "a2");
  EXPECT_EQ(service.designs_of("alice").size(), 2u);
  (void)a2;
}

}  // namespace
}  // namespace rnl
