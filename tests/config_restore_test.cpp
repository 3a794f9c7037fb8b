// Configuration save/restore through the full service path (§2.1): dump a
// switch's running-config over the tunnel console, archive it, wipe the
// device (power cycle + reflash), redeploy, and verify the archived
// configuration was pushed back line by line — including the multi-line
// interface-mode sections that exercise the CLI state machine end to end.

#include <gtest/gtest.h>

#include "core/testbed.h"

namespace rnl::core {
namespace {

using util::Duration;

TEST(ConfigRestore, SwitchConfigSurvivesReflashViaArchive) {
  Testbed bed(1701, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  devices::EthernetSwitch& sw = bed.add_switch(site, "sw1", 4);
  devices::Host& peer = bed.add_host(site, "h");
  bed.join_all();
  LabService& service = bed.service();
  wire::RouterId sw_id = bed.router_id("dc/sw1");

  // Configure through the console, exactly as a user would.
  for (const char* line :
       {"enable", "configure terminal", "spanning-tree priority 8192",
        "interface Gi0/2", "switchport mode trunk",
        "switchport trunk allowed vlan 10,20", "exit", "interface Gi0/3",
        "switchport access vlan 30", "shutdown", "end"}) {
    service.console_exec(sw_id, line);
  }
  ASSERT_TRUE(service.save_router_config(sw_id).ok());
  std::string archived = *service.archived_config(sw_id);
  EXPECT_NE(archived.find("spanning-tree priority 8192"), std::string::npos);
  EXPECT_NE(archived.find("switchport trunk allowed vlan 10,20"),
            std::string::npos);

  // Previous user's firmware experiment left a different image behind
  // (§2.1: "it could have been changed by the previous user") and scrambled
  // the config.
  service.console_exec(sw_id, "flash 12.2(33)SXI-fast");
  sw.set_bridge_priority(0x8000);
  sw.port_config(1).trunk = false;
  sw.port_config(2).access_vlan = 1;
  sw.set_port_shutdown(2, false);

  // Deploying a design containing the switch restores the archive.
  DesignId design_id = service.create_design("ops", "restore-lab");
  ASSERT_TRUE(service.design(design_id)->add_router(sw_id).ok());
  ASSERT_TRUE(service.design(design_id)->add_router(bed.router_id("dc/h")).ok());
  ASSERT_TRUE(service.design(design_id)->connect(bed.port_id("dc/sw1", "Gi0/1"),
                                                 bed.port_id("dc/h", "eth0")).ok());
  util::SimTime now = bed.net().now();
  ASSERT_TRUE(service.reserve(design_id, now, now + Duration::hours(1)).ok());
  ASSERT_TRUE(service.deploy(design_id).ok());

  EXPECT_EQ(sw.bridge_id().priority, 8192);
  EXPECT_TRUE(sw.port_config(1).trunk);
  EXPECT_EQ(sw.port_config(1).allowed_vlans,
            (std::set<std::uint16_t>{10, 20}));
  EXPECT_EQ(sw.port_config(2).access_vlan, 30);
  EXPECT_TRUE(sw.port_config(2).shutdown);
  (void)peer;
}

TEST(ConfigRestore, RouterAclAndRoutesRestoreFaithfully) {
  Testbed bed(1702, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  devices::Ipv4Router& router = bed.add_router(site, "r1", 2);
  bed.join_all();
  LabService& service = bed.service();
  wire::RouterId id = bed.router_id("dc/r1");

  for (const char* line :
       {"enable", "configure terminal",
        "access-list 150 deny tcp any host 10.9.9.9 eq 23",
        "access-list 150 permit ip any any", "interface Gi0/1",
        "ip address 10.0.0.1 255.255.255.0", "ip access-group 150 in",
        "exit", "ip route 172.16.0.0 255.255.0.0 10.0.0.99", "end"}) {
    service.console_exec(id, line);
  }
  ASSERT_TRUE(service.save_router_config(id).ok());

  // Wipe: clear everything the config set.
  router.clear_acl(150);
  router.set_interface_acl(0, true, 0);
  router.remove_static_route(*packet::Ipv4Prefix::parse("172.16.0.0/16"));

  DesignId design_id = service.create_design("ops", "router-restore");
  ASSERT_TRUE(service.design(design_id)->add_router(id).ok());
  util::SimTime now = bed.net().now();
  ASSERT_TRUE(service.reserve(design_id, now, now + Duration::hours(1)).ok());
  ASSERT_TRUE(service.deploy(design_id).ok());

  ASSERT_NE(router.acl_entries(150), nullptr);
  ASSERT_EQ(router.acl_entries(150)->size(), 2u);
  EXPECT_EQ(router.acl_entries(150)->front().dst_port_eq,
            std::optional<std::uint16_t>(23));
  EXPECT_EQ(router.interface_config(0).acl_in, 150);
  bool has_route = false;
  for (const auto& route : router.routing_table()) {
    if (route.is_static && route.prefix.to_string() == "172.16.0.0/16") {
      has_route = true;
    }
  }
  EXPECT_TRUE(has_route);

  // The restored config re-dumps identically (idempotent round trip
  // through console -> archive -> console).
  std::string once = *service.archived_config(id);
  ASSERT_TRUE(service.save_router_config(id).ok());
  EXPECT_EQ(*service.archived_config(id), once);
}

}  // namespace
}  // namespace rnl::core
