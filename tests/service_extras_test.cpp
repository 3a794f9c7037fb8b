// Coverage for the "ongoing work" machinery (§4): keepalives & liveness,
// API-driven traffic streams, layer-1 switch programming through the API,
// and assorted failure-injection paths of the service plane.

#include <gtest/gtest.h>

#include "core/testbed.h"
#include "wire/layer1.h"

namespace rnl::core {
namespace {

using util::Duration;
using packet::Ipv4Address;
using packet::Ipv4Prefix;

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix prefix(const char* s) { return *Ipv4Prefix::parse(s); }

util::Json call(ApiServer& api, const std::string& method, util::Json params) {
  util::Json request = util::Json::object();
  request.set("method", method);
  request.set("params", std::move(params));
  return api.handle(request);
}

TEST(Liveness, KeepalivesKeepAQuietSiteAlive) {
  core::Testbed bed(9001, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("quiet");
  bed.add_host(site, "h");
  site.set_keepalive_interval(Duration::seconds(5));
  bed.server().set_liveness_timeout(Duration::seconds(30));
  bed.join_all();
  ASSERT_EQ(bed.server().site_count(), 1u);
  // Ten minutes with zero data traffic: keepalives alone must keep the
  // site in the inventory.
  bed.run_for(Duration::minutes(10));
  EXPECT_EQ(bed.server().inventory().size(), 1u);
}

TEST(Liveness, SilentSiteIsDropped) {
  core::Testbed bed(9002, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("doomed");
  bed.add_host(site, "h");
  // Keepalives far slower than the server's patience.
  site.set_keepalive_interval(Duration::minutes(30));
  bed.server().set_liveness_timeout(Duration::seconds(20));
  bed.join_all();
  ASSERT_EQ(bed.server().inventory().size(), 1u);
  bed.run_for(Duration::minutes(2));
  EXPECT_EQ(bed.server().inventory().size(), 0u);
  EXPECT_EQ(bed.server().stats().sites_lost, 1u);
}

class ApiExtras : public ::testing::Test {
 protected:
  ApiExtras() : bed(9003, wire::NetemProfile::lan()) {
    ris::RouterInterface& site = bed.add_site("lab");
    gen = &bed.add_traffgen(site, "gen", 2);
    bed.join_all();
    auto status = bed.server().connect_ports(bed.port_id("lab/gen", "port1"),
                                             bed.port_id("lab/gen", "port2"));
    EXPECT_TRUE(status.ok());
  }

  core::Testbed bed;
  devices::TrafficGenerator* gen = nullptr;
};

TEST_F(ApiExtras, TrafficStreamInjectsStampedFrames) {
  packet::EthernetFrame frame;
  frame.dst = packet::MacAddress::local(1);
  frame.src = packet::MacAddress::local(2);
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload.resize(100, 0x00);

  util::Json params = util::Json::object();
  params.set("port_id", bed.port_id("lab/gen", "port1"));
  params.set("frame", util::to_hex(frame.serialize()));
  params.set("count", 25);
  params.set("interval_us", 500);
  params.set("seq_offset", 20);
  util::Json response = call(bed.api(), "traffic.stream", std::move(params));
  ASSERT_TRUE(response["ok"].as_bool()) << response["error"].as_string();
  bed.run_for(Duration::seconds(1));

  // Injection targets port1 (into the generator's port), so the generator
  // captures them on port index 0, each with a distinct stamp.
  ASSERT_EQ(gen->captured(0).size(), 25u);
  std::set<std::uint32_t> stamps;
  for (const auto& captured : gen->captured(0)) {
    stamps.insert((static_cast<std::uint32_t>(captured.frame[20]) << 24) |
                  (static_cast<std::uint32_t>(captured.frame[21]) << 16) |
                  (static_cast<std::uint32_t>(captured.frame[22]) << 8) |
                  static_cast<std::uint32_t>(captured.frame[23]));
  }
  EXPECT_EQ(stamps.size(), 25u);
}

TEST_F(ApiExtras, TrafficStreamRejectsUnknownPortAndBadHex) {
  util::Json bad_port = util::Json::object();
  bad_port.set("port_id", 9999);
  bad_port.set("frame", "00:11");
  EXPECT_FALSE(call(bed.api(), "traffic.stream", std::move(bad_port))["ok"]
                   .as_bool());
  util::Json bad_hex = util::Json::object();
  bad_hex.set("port_id", bed.port_id("lab/gen", "port1"));
  bad_hex.set("frame", "zz");
  EXPECT_FALSE(
      call(bed.api(), "traffic.stream", std::move(bad_hex))["ok"].as_bool());
}

TEST_F(ApiExtras, Layer1ProgrammingThroughTheApi) {
  wire::Layer1Switch xc(bed.net(), "mcc-1", 4);
  bed.service().register_layer1(&xc);

  simnet::Port& a = bed.net().make_port("a");
  simnet::Port& b = bed.net().make_port("b");
  bed.net().connect(a, xc.port(0));
  bed.net().connect(b, xc.port(1));
  int received = 0;
  b.set_receive_handler([&](util::BytesView) { ++received; });

  util::Json params = util::Json::object();
  params.set("switch", "mcc-1");
  params.set("a", 0);
  params.set("b", 1);
  ASSERT_TRUE(call(bed.api(), "layer1.bridge", std::move(params))["ok"]
                  .as_bool());
  util::Bytes bits{1, 2, 3};
  a.transmit(bits);
  bed.run_for(Duration::milliseconds(1));
  EXPECT_EQ(received, 1);

  util::Json unbridge = util::Json::object();
  unbridge.set("switch", "mcc-1");
  unbridge.set("port", 0);
  ASSERT_TRUE(call(bed.api(), "layer1.unbridge", std::move(unbridge))["ok"]
                  .as_bool());
  a.transmit(bits);
  bed.run_for(Duration::milliseconds(1));
  EXPECT_EQ(received, 1);

  util::Json unknown = util::Json::object();
  unknown.set("switch", "nope");
  unknown.set("a", 0);
  unknown.set("b", 1);
  EXPECT_FALSE(
      call(bed.api(), "layer1.bridge", std::move(unknown))["ok"].as_bool());
  util::Json bad_pair = util::Json::object();
  bad_pair.set("switch", "mcc-1");
  bad_pair.set("a", 0);
  bad_pair.set("b", 99);
  EXPECT_FALSE(
      call(bed.api(), "layer1.bridge", std::move(bad_pair))["ok"].as_bool());
}

TEST_F(ApiExtras, FirmwareFlashViaApi) {
  core::Testbed bed2(9004, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed2.add_site("fw");
  devices::Ipv4Router& router = bed2.add_router(site, "r1", 2);
  bed2.join_all();
  util::Json params = util::Json::object();
  params.set("router_id", bed2.router_id("fw/r1"));
  params.set("version", "12.1(13)E");
  util::Json response = call(bed2.api(), "firmware.flash", std::move(params));
  ASSERT_TRUE(response["ok"].as_bool()) << response["error"].as_string();
  EXPECT_EQ(router.firmware().version, "12.1(13)E");

  util::Json bad = util::Json::object();
  bad.set("router_id", bed2.router_id("fw/r1"));
  bad.set("version", "definitely-not-an-image");
  EXPECT_FALSE(call(bed2.api(), "firmware.flash", std::move(bad))["ok"]
                   .as_bool());
}

TEST(ServiceFailureInjection, RisDisconnectMidDeploymentIsSurvivable) {
  core::Testbed bed(9005, wire::NetemProfile::lan());
  ris::RouterInterface& site_a = bed.add_site("a");
  ris::RouterInterface& site_b = bed.add_site("b");
  devices::Host& h1 = bed.add_host(site_a, "h1");
  bed.add_host(site_b, "h2");
  h1.configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
  bed.join_all();

  LabService& service = bed.service();
  DesignId id = service.create_design("ops", "doomed");
  ASSERT_TRUE(service.design(id)->add_router(bed.router_id("a/h1")).ok());
  ASSERT_TRUE(service.design(id)->add_router(bed.router_id("b/h2")).ok());
  ASSERT_TRUE(service.design(id)->connect(bed.port_id("a/h1", "eth0"),
                                          bed.port_id("b/h2", "eth0")).ok());
  util::SimTime now = bed.net().now();
  ASSERT_TRUE(service.reserve(id, now, now + Duration::hours(1)).ok());
  ASSERT_TRUE(service.deploy(id).ok());

  // The far site vanishes mid-deployment while traffic is flowing.
  h1.ping(ip("10.0.0.2"), 50);
  bed.run_for(Duration::milliseconds(350));
  site_b.leave();
  bed.run_for(Duration::seconds(5));

  // Server cleaned up; the surviving half still answers console and a
  // redeploy of a design referencing the dead router is refused cleanly.
  EXPECT_EQ(bed.server().inventory().size(), 1u);
  std::string output = service.console_exec(bed.router_id("a/h1"),
                                            "show running-config");
  EXPECT_NE(output.find("hostname h1"), std::string::npos);
  auto redeploy = service.deploy(id);
  EXPECT_FALSE(redeploy.ok());
  EXPECT_NE(redeploy.error().find("no longer in the inventory"),
            std::string::npos);
}

TEST(ServiceFailureInjection, DeployRollsBackWhenPortAlreadyWired) {
  core::Testbed bed(9006, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  for (int i = 0; i < 3; ++i) bed.add_host(site, "h" + std::to_string(i));
  bed.join_all();
  LabService& service = bed.service();

  // Wire h0<->h1 out-of-band (as if another tool grabbed the ports).
  ASSERT_TRUE(bed.server()
                  .connect_ports(bed.port_id("dc/h0", "eth0"),
                                 bed.port_id("dc/h1", "eth0"))
                  .ok());

  DesignId id = service.create_design("ops", "conflicted");
  ASSERT_TRUE(service.design(id)->add_router(bed.router_id("dc/h2")).ok());
  ASSERT_TRUE(service.design(id)->add_router(bed.router_id("dc/h1")).ok());
  // First link is fine, second collides with the out-of-band wire.
  ASSERT_TRUE(service.design(id)->connect(bed.port_id("dc/h2", "eth0"),
                                          bed.port_id("dc/h1", "eth0")).ok());
  util::SimTime now = bed.net().now();
  ASSERT_TRUE(service.reserve(id, now, now + Duration::hours(1)).ok());
  auto deployment = service.deploy(id);
  EXPECT_FALSE(deployment.ok());
  // Rollback: only the pre-existing wire remains.
  EXPECT_EQ(bed.server().wire_count(), 1u);
}

}  // namespace
}  // namespace rnl::core
