#include <gtest/gtest.h>

#include "core/autotest.h"
#include "core/testbed.h"
#include "wire/tunnel.h"

namespace rnl::core {
namespace {

using util::Duration;
using util::SimTime;
using packet::Ipv4Address;
using packet::Ipv4Prefix;

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix prefix(const char* s) { return *Ipv4Prefix::parse(s); }

/// Full service stack with two hosts in one site.
class ServiceFlow : public ::testing::Test {
 protected:
  ServiceFlow() : bed(71) {
    auto& site = bed.add_site("hq");
    h1 = &bed.add_host(site, "h1");
    h2 = &bed.add_host(site, "h2");
    h1->configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
    h2->configure(prefix("10.0.0.2/24"), ip("10.0.0.254"));
    bed.join_all();
  }

  Testbed bed;
  devices::Host* h1 = nullptr;
  devices::Host* h2 = nullptr;
};

TEST_F(ServiceFlow, FullLifecycleDesignReserveDeployPingTeardown) {
  LabService& service = bed.service();
  DesignId design_id = service.create_design("alice", "smoke");
  TopologyDesign* design = service.design(design_id);
  ASSERT_NE(design, nullptr);
  ASSERT_TRUE(design->add_router(bed.router_id("hq/h1")).ok());
  ASSERT_TRUE(design->add_router(bed.router_id("hq/h2")).ok());
  ASSERT_TRUE(
      design->connect(bed.port_id("hq/h1", "eth0"), bed.port_id("hq/h2", "eth0"))
          .ok());

  // No reservation -> deploy refused.
  EXPECT_FALSE(service.deploy(design_id).ok());

  auto reservation = service.reserve(design_id, bed.net().now(),
                                     bed.net().now() + Duration::hours(1));
  ASSERT_TRUE(reservation.ok()) << reservation.error();
  auto deployment = service.deploy(design_id);
  ASSERT_TRUE(deployment.ok()) << deployment.error();
  EXPECT_EQ(bed.server().wire_count(), 1u);

  h1->ping(ip("10.0.0.2"), 3);
  bed.run_for(Duration::seconds(3));
  EXPECT_EQ(h1->ping_replies().size(), 3u);

  ASSERT_TRUE(service.teardown(*deployment).ok());
  EXPECT_EQ(bed.server().wire_count(), 0u);
  EXPECT_FALSE(service.teardown(*deployment).ok());  // already down
  h1->ping(ip("10.0.0.2"), 1);
  bed.run_for(Duration::seconds(2));
  EXPECT_EQ(h1->ping_replies().size(), 3u);  // no new reply
}

TEST_F(ServiceFlow, RoutersAreMutuallyExclusiveAcrossDeployments) {
  LabService& service = bed.service();
  DesignId alice = service.create_design("alice", "a");
  service.design(alice)->add_router(bed.router_id("hq/h1"));
  service.design(alice)->add_router(bed.router_id("hq/h2"));
  service.design(alice)->connect(bed.port_id("hq/h1", "eth0"),
                                 bed.port_id("hq/h2", "eth0"));
  ASSERT_TRUE(service
                  .reserve(alice, bed.net().now(),
                           bed.net().now() + Duration::hours(1))
                  .ok());
  ASSERT_TRUE(service.deploy(alice).ok());

  // Bob wants h2 in the same window: reservation already blocks him.
  DesignId bob = service.create_design("bob", "b");
  service.design(bob)->add_router(bed.router_id("hq/h2"));
  EXPECT_FALSE(service
                   .reserve(bob, bed.net().now(),
                            bed.net().now() + Duration::minutes(30))
                   .ok());
  // And even with a future reservation he cannot deploy *now*.
  ASSERT_TRUE(service
                  .reserve(bob, bed.net().now() + Duration::hours(2),
                           bed.net().now() + Duration::hours(3))
                  .ok());
  EXPECT_FALSE(service.deploy(bob).ok());
}

TEST_F(ServiceFlow, ExpiredReservationTearsDownAutomatically) {
  LabService& service = bed.service();
  DesignId design_id = service.create_design("alice", "short");
  service.design(design_id)->add_router(bed.router_id("hq/h1"));
  service.design(design_id)->add_router(bed.router_id("hq/h2"));
  service.design(design_id)->connect(bed.port_id("hq/h1", "eth0"),
                                     bed.port_id("hq/h2", "eth0"));
  ASSERT_TRUE(service
                  .reserve(design_id, bed.net().now(),
                           bed.net().now() + Duration::minutes(2))
                  .ok());
  ASSERT_TRUE(service.deploy(design_id).ok());
  EXPECT_EQ(bed.server().wire_count(), 1u);
  // The minute sweeper reclaims the lab after the reservation lapses.
  bed.run_for(Duration::minutes(5));
  EXPECT_EQ(bed.server().wire_count(), 0u);
}

TEST(LabServiceLedger, EndedDeploymentsAreForgotten) {
  // deployments() holds live labs only. A teardown, a lapsed reservation
  // and a lost site each end a lab, and an ended lab is erased, so the
  // walks deploy makes over deployments never grow with the labs a
  // service has already served.
  Testbed bed(72);
  ris::RouterInterface& hq = bed.add_site("hq");
  for (int i = 1; i <= 6; ++i) bed.add_host(hq, "h" + std::to_string(i));
  ris::RouterInterface& edge = bed.add_site("edge");
  bed.add_host(edge, "e1");
  bed.add_host(edge, "e2");
  bed.join_all();
  LabService& service = bed.service();
  auto deploy_pair = [&](const std::string& a, const std::string& b,
                         Duration lasts) {
    DesignId id = service.create_design("alice", a + "+" + b);
    EXPECT_TRUE(service.design(id)->add_router(bed.router_id(a)).ok());
    EXPECT_TRUE(service.design(id)->add_router(bed.router_id(b)).ok());
    EXPECT_TRUE(service.design(id)
                    ->connect(bed.port_id(a, "eth0"), bed.port_id(b, "eth0"))
                    .ok());
    EXPECT_TRUE(
        service.reserve(id, bed.net().now(), bed.net().now() + lasts).ok());
    auto deployment = service.deploy(id);
    EXPECT_TRUE(deployment.ok()) << deployment.error();
    return deployment.ok() ? *deployment : DeploymentId{0};
  };
  const DeploymentId torn = deploy_pair("hq/h1", "hq/h2", Duration::hours(1));
  const DeploymentId lapsed =
      deploy_pair("hq/h3", "hq/h4", Duration::minutes(2));
  const DeploymentId lost =
      deploy_pair("edge/e1", "edge/e2", Duration::hours(1));
  const DeploymentId live = deploy_pair("hq/h5", "hq/h6", Duration::hours(1));
  ASSERT_EQ(service.deployments().size(), 4u);

  ASSERT_TRUE(service.teardown(torn).ok());
  EXPECT_EQ(service.deployments().size(), 3u);
  bed.run_for(Duration::minutes(5));  // the minute sweep ends `lapsed`
  EXPECT_EQ(service.deployments().size(), 2u);
  edge.leave();  // ends `lost`
  bed.run_for(Duration::seconds(1));

  ASSERT_EQ(service.deployments().size(), 1u);
  EXPECT_EQ(service.deployments().begin()->first, live);
  EXPECT_EQ(bed.server().wire_count(), 1u);
  for (DeploymentId ended : {torn, lapsed, lost}) {
    util::Status status = service.teardown(ended);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error(), "teardown: no such active deployment");
  }
}

TEST_F(ServiceFlow, DeployRefusedWhileRouteServerIsOverloaded) {
  // Admission control: while any site's egress is shedding, new deployments
  // would only pour more traffic into a server already parking memory for a
  // wedged consumer — deploy refuses until the data plane drains.
  LabService& service = bed.service();
  DesignId id = service.create_design("alice", "admit");
  ASSERT_TRUE(service.design(id)->add_router(bed.router_id("hq/h1")).ok());
  ASSERT_TRUE(service.design(id)->add_router(bed.router_id("hq/h2")).ok());
  ASSERT_TRUE(service.design(id)
                  ->connect(bed.port_id("hq/h1", "eth0"),
                            bed.port_id("hq/h2", "eth0"))
                  .ok());
  ASSERT_TRUE(service
                  .reserve(id, bed.net().now(),
                           bed.net().now() + Duration::hours(1))
                  .ok());

  // A straggler site joins over a zero-window tunnel and wedges.
  routeserver::RouteServer& server = bed.server();
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  server.set_stall_deadline(Duration::minutes(10));
  transport::SimLinkFault fault;
  transport::SimStreamOptions options;
  options.fault = &fault;
  auto [client, server_end] =
      transport::make_sim_stream_pair(bed.net().scheduler(), options);
  server.accept(std::move(server_end));
  wire::JoinRequest hello;
  hello.site_name = "straggler";
  wire::RouterDeclaration decl;
  decl.name = "r1";
  decl.ports.emplace_back();
  decl.ports.back().name = "p0";
  hello.routers.push_back(decl);
  wire::TunnelMessage join_msg;
  join_msg.type = wire::MessageType::kJoin;
  const std::string join_payload = hello.to_json().dump();
  join_msg.payload.assign(join_payload.begin(), join_payload.end());
  client->send(wire::encode_message(join_msg));
  bed.run_for(Duration::milliseconds(100));
  wire::PortId straggler_port = 0;
  for (const auto& router : server.inventory()) {
    if (router.site == "straggler") straggler_port = router.ports.at(0).id;
  }
  ASSERT_NE(straggler_port, 0u);

  fault.stall(/*toward_a=*/true, /*toward_b=*/false);
  const util::Bytes junk(1400, 0xAA);
  for (int i = 0; i < 20 && !server.overloaded(); ++i) {
    ASSERT_TRUE(server.inject_frame(straggler_port, junk).ok());
  }
  ASSERT_TRUE(server.overloaded());

  auto refused = service.deploy(id);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find("overloaded"), std::string::npos);
  EXPECT_EQ(server.wire_count(), 0u);  // nothing was programmed

  // The wedged consumer drains: the same reservation deploys cleanly.
  fault.resume();
  bed.run_for(Duration::milliseconds(100));
  ASSERT_FALSE(server.overloaded());
  auto deployment = service.deploy(id);
  ASSERT_TRUE(deployment.ok()) << deployment.error();
  EXPECT_EQ(server.wire_count(), 1u);
}

TEST_F(ServiceFlow, DesignSaveLoadExportImport) {
  LabService& service = bed.service();
  DesignId id = service.create_design("alice", "keeper");
  service.design(id)->add_router(bed.router_id("hq/h1"));
  ASSERT_TRUE(service.save_design(id).ok());
  auto loaded = service.load_design("alice", "keeper");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(service.design(*loaded)->has_router(bed.router_id("hq/h1")));
  EXPECT_FALSE(service.load_design("bob", "keeper").ok());  // per user

  auto exported = service.export_design(id);
  ASSERT_TRUE(exported.ok());
  auto imported = service.import_design("carol", *exported);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(service.design(*imported)->name(), "keeper");
  EXPECT_FALSE(service.import_design("carol", "{broken").ok());
}

TEST_F(ServiceFlow, ConsoleExecRunsThroughTheTunnel) {
  LabService& service = bed.service();
  std::string output =
      service.console_exec(bed.router_id("hq/h1"), "show running-config");
  EXPECT_NE(output.find("hostname h1"), std::string::npos);
  EXPECT_NE(service.console_log(bed.router_id("hq/h1")).size(), 0u);
}

TEST_F(ServiceFlow, ConfigSaveAndAutoRestoreOnDeploy) {
  LabService& service = bed.service();
  wire::RouterId h1_id = bed.router_id("hq/h1");
  // Configure h1 through the console, then archive (the UI's save).
  service.console_exec(h1_id, "enable");
  service.console_exec(h1_id, "configure terminal");
  service.console_exec(h1_id, "ip address 10.0.0.1/24 10.0.0.254");
  service.console_exec(h1_id, "end");
  ASSERT_TRUE(service.save_router_config(h1_id).ok());
  auto archived = service.archived_config(h1_id);
  ASSERT_TRUE(archived.has_value());
  EXPECT_NE(archived->find("ip address 10.0.0.1/24"), std::string::npos);

  // Wipe the device (power cycle loses nothing persistent here, so change
  // the config instead) and verify deploy pushes the archive back.
  h1->configure(prefix("192.168.9.9/24"), ip("192.168.9.1"));
  DesignId design_id = service.create_design("alice", "restore");
  service.design(design_id)->add_router(h1_id);
  service.design(design_id)->add_router(bed.router_id("hq/h2"));
  service.design(design_id)->connect(bed.port_id("hq/h1", "eth0"),
                                     bed.port_id("hq/h2", "eth0"));
  ASSERT_TRUE(service
                  .reserve(design_id, bed.net().now(),
                           bed.net().now() + Duration::hours(1))
                  .ok());
  ASSERT_TRUE(service.deploy(design_id).ok());
  EXPECT_EQ(h1->address().to_string(), "10.0.0.1");  // restored

  h1->ping(ip("10.0.0.2"), 2);
  bed.run_for(Duration::seconds(2));
  EXPECT_EQ(h1->ping_replies().size(), 2u);
}

TEST_F(ServiceFlow, ApiDrivesTheWholeFlow) {
  ApiServer& api = bed.api();
  auto call = [&](const std::string& method, util::Json params) {
    util::Json request = util::Json::object();
    request.set("method", method);
    request.set("params", std::move(params));
    return api.handle(request);
  };

  util::Json inv = call("inventory.list", util::Json::object());
  ASSERT_TRUE(inv["ok"].as_bool());
  ASSERT_EQ(inv["result"]["routers"].size(), 2u);
  std::int64_t r1 = inv["result"]["routers"].at(0)["id"].as_int();
  std::int64_t r2 = inv["result"]["routers"].at(1)["id"].as_int();
  std::int64_t p1 = inv["result"]["routers"].at(0)["ports"].at(0)["id"].as_int();
  std::int64_t p2 = inv["result"]["routers"].at(1)["ports"].at(0)["id"].as_int();

  util::Json create_params = util::Json::object();
  create_params.set("user", "api-user");
  create_params.set("name", "api-lab");
  util::Json created = call("design.create", std::move(create_params));
  ASSERT_TRUE(created["ok"].as_bool());
  std::int64_t design_id = created["result"]["design_id"].as_int();

  for (std::int64_t router : {r1, r2}) {
    util::Json p = util::Json::object();
    p.set("design_id", design_id);
    p.set("router_id", router);
    ASSERT_TRUE(call("design.add_router", std::move(p))["ok"].as_bool());
  }
  util::Json link = util::Json::object();
  link.set("design_id", design_id);
  link.set("a", p1);
  link.set("b", p2);
  ASSERT_TRUE(call("design.connect", std::move(link))["ok"].as_bool());

  util::Json reserve = util::Json::object();
  reserve.set("design_id", design_id);
  reserve.set("start_s", 0);
  reserve.set("end_s", 3600);
  ASSERT_TRUE(call("reserve", std::move(reserve))["ok"].as_bool());

  util::Json deploy_params = util::Json::object();
  deploy_params.set("design_id", design_id);
  util::Json deployed = call("deploy", std::move(deploy_params));
  ASSERT_TRUE(deployed["ok"].as_bool()) << deployed["error"].as_string();

  // Console through the API.
  util::Json console = util::Json::object();
  console.set("router_id", r1);
  console.set("line", "show running-config");
  util::Json console_out = call("console.exec", std::move(console));
  ASSERT_TRUE(console_out["ok"].as_bool());
  EXPECT_NE(console_out["result"]["output"].as_string().find("hostname"),
            std::string::npos);

  // Unknown method and malformed request handled gracefully.
  EXPECT_FALSE(call("no.such.method", util::Json::object())["ok"].as_bool());
  EXPECT_NE(api.handle_text("{oops").find("\"ok\":false"), std::string::npos);

  util::Json teardown = util::Json::object();
  teardown.set("deployment_id", deployed["result"]["deployment_id"].as_int());
  EXPECT_TRUE(call("teardown", std::move(teardown))["ok"].as_bool());
}

TEST_F(ServiceFlow, NightlyTestHarnessReportsStepOutcomes) {
  LabService& service = bed.service();
  DesignId design_id = service.create_design("alice", "nightly");
  service.design(design_id)->add_router(bed.router_id("hq/h1"));
  service.design(design_id)->add_router(bed.router_id("hq/h2"));
  service.design(design_id)->connect(bed.port_id("hq/h1", "eth0"),
                                     bed.port_id("hq/h2", "eth0"));
  ASSERT_TRUE(service
                  .reserve(design_id, bed.net().now(),
                           bed.net().now() + Duration::hours(1))
                  .ok());
  ASSERT_TRUE(service.deploy(design_id).ok());

  wire::PortId h2_port = bed.port_id("hq/h2", "eth0");
  // Probe injected INTO h1's port: an echo request addressed to h1, spoofed
  // from h2's address — h1's reply (and the ARP it triggers) must cross the
  // virtual wire and show up in the capture at h2's port.
  packet::EthernetFrame probe = packet::make_icmp_echo(
      packet::MacAddress::local(5), packet::MacAddress::broadcast(),
      ip("10.0.0.2"), ip("10.0.0.1"), 9, 1);

  NightlyTest test(bed.api(), "connectivity");
  test.console("h1 replies to console", bed.router_id("hq/h1"),
               "show running-config", "hostname h1")
      .inject("probe toward h2", bed.port_id("hq/h1", "eth0"),
              probe.serialize())
      .expect_traffic("h2 port saw traffic", h2_port, Duration::seconds(1), 1)
      .expect_no_traffic("no stray traffic after quiet period", h2_port,
                         Duration::seconds(1));
  TestReport report = test.run();
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_EQ(report.steps.size(), 4u);
  EXPECT_NE(report.summary().find("PASS"), std::string::npos);

  // A failing expectation is reported, not swallowed.
  NightlyTest failing(bed.api(), "must-fail");
  failing.expect_traffic("expects ghosts", h2_port, Duration::seconds(1), 5);
  TestReport bad = failing.run();
  EXPECT_FALSE(bad.passed());
  EXPECT_EQ(bad.failures(), 1u);
  EXPECT_NE(bad.summary().find("FAIL"), std::string::npos);
}

TEST_F(ServiceFlow, NightlyApiCallStepReportsTheCallsError) {
  // §3.2: a nightly step can run any web-services call. An ok response
  // passes the step; an error fails it and its message reaches the log.
  DesignId design_id = bed.service().create_design("alice", "api-steps");
  const wire::RouterId h1_id = bed.router_id("hq/h1");
  util::Json add = util::Json::object();
  add.set("design_id", design_id);
  add.set("router_id", h1_id);
  util::Json ghost = util::Json::object();
  ghost.set("design_id", design_id + 100);
  ghost.set("router_id", h1_id);

  NightlyTest test(bed.api(), "api-steps");
  test.api_call("add h1 to the design", "design.add_router", std::move(add))
      .api_call("add h1 to a missing design", "design.add_router",
                std::move(ghost));
  TestReport report = test.run();
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_TRUE(report.steps[0].passed) << report.steps[0].detail;
  EXPECT_TRUE(bed.service().design(design_id)->has_router(h1_id));
  EXPECT_FALSE(report.steps[1].passed);
  EXPECT_EQ(report.steps[1].detail, "no such design");
  EXPECT_EQ(report.failures(), 1u);
  EXPECT_NE(report.summary().find("no such design"), std::string::npos);
}

}  // namespace
}  // namespace rnl::core
