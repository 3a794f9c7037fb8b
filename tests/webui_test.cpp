// Tests for the headless web UI model (Fig 2 interactions).

#include <gtest/gtest.h>

#include "core/testbed.h"
#include "core/webui.h"
#include "util/strings.h"

namespace rnl::core {
namespace {

using util::Duration;
using packet::Ipv4Address;
using packet::Ipv4Prefix;

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix prefix(const char* s) { return *Ipv4Prefix::parse(s); }

/// Testbed maps each device port at rect x=40*i, y=0, w=40, h=20.
class WebUiFixture : public ::testing::Test {
 protected:
  WebUiFixture() : bed(1201, wire::NetemProfile::lan()) {
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

TEST_F(WebUiFixture, InventoryRendersAndShrinksWhenDragged) {
  WebUiSession ui(bed.service(), "alice");
  std::string before = ui.render_inventory();
  EXPECT_NE(before.find("hq/h1"), std::string::npos);
  EXPECT_NE(before.find("hq/h2"), std::string::npos);
  EXPECT_NE(before.find("(console)"), std::string::npos);

  ui.open_design("drag-test");
  ASSERT_TRUE(ui.drag_router_to_plane("hq/h1").ok());
  std::string after = ui.render_inventory();
  EXPECT_EQ(after.find("hq/h1"), std::string::npos);  // gone from the column
  EXPECT_NE(after.find("hq/h2"), std::string::npos);

  // There is only one physical instance: dragging it again fails.
  EXPECT_FALSE(ui.drag_router_to_plane("hq/h1").ok());
  EXPECT_FALSE(ui.drag_router_to_plane("hq/nope").ok());
}

TEST_F(WebUiFixture, PortHitTestingUsesFig3Rectangles) {
  WebUiSession ui(bed.service(), "alice");
  // Port 0 rect: x in [0,40), y in [0,20).
  auto hit = ui.click_port("hq/h1", 12, 7);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, bed.port_id("hq/h1", "eth0"));
  EXPECT_FALSE(ui.click_port("hq/h1", 300, 300).ok());
  EXPECT_NE(ui.hover_text("hq/h1", 12, 7).find("eth0"), std::string::npos);
  EXPECT_EQ(ui.hover_text("hq/h1", 300, 300), "");
}

TEST_F(WebUiFixture, FullMouseDrivenSessionEndsInPings) {
  WebUiSession ui(bed.service(), "alice");
  ui.open_design("mouse-lab");
  ASSERT_TRUE(ui.drag_router_to_plane("hq/h1").ok());
  ASSERT_TRUE(ui.drag_router_to_plane("hq/h2").ok());
  // Click port on h1's image, drag to port on h2's image.
  ASSERT_TRUE(ui.draw_wire("hq/h1", 5, 5, "hq/h2", 5, 5).ok());
  // Wiring the same port twice fails (one wire per port).
  EXPECT_FALSE(ui.draw_wire("hq/h1", 5, 5, "hq/h2", 5, 5).ok());

  std::string plane = ui.render_design_plane();
  EXPECT_NE(plane.find("[router] hq/h1"), std::string::npos);
  EXPECT_NE(plane.find("[wire]"), std::string::npos);

  ASSERT_TRUE(ui.press_save_design().ok());
  auto reservation = ui.reserve_next_free(Duration::hours(1));
  ASSERT_TRUE(reservation.ok()) << reservation.error();
  auto deployment = ui.press_deploy();
  ASSERT_TRUE(deployment.ok()) << deployment.error();

  h1->ping(ip("10.0.0.2"), 2);
  bed.run_for(Duration::seconds(2));
  EXPECT_EQ(h1->ping_replies().size(), 2u);

  EXPECT_TRUE(ui.press_teardown().ok());
  EXPECT_FALSE(ui.press_teardown().ok());  // second press: nothing deployed
}

TEST_F(WebUiFixture, TracePageShowsSampledFrameTimelines) {
  WebUiSession ui(bed.service(), "alice");
  ui.open_design("traced-lab");
  ASSERT_TRUE(ui.drag_router_to_plane("hq/h1").ok());
  ASSERT_TRUE(ui.drag_router_to_plane("hq/h2").ok());
  ASSERT_TRUE(ui.draw_wire("hq/h1", 5, 5, "hq/h2", 5, 5).ok());
  ASSERT_TRUE(ui.press_save_design().ok());
  ASSERT_TRUE(ui.reserve_next_free(Duration::hours(1)).ok());
  ASSERT_TRUE(ui.press_deploy().ok());

  std::string idle = ui.render_trace();
  EXPECT_NE(idle.find("tracing: off"), std::string::npos);

  bed.tracer().set_enabled(true);
  bed.tracer().set_head_sample_period(1);
  h1->ping(ip("10.0.0.2"), 2);
  bed.run_for(Duration::seconds(2));
  ASSERT_EQ(h1->ping_replies().size(), 2u);

  std::string page = ui.render_trace();
  EXPECT_NE(page.find("tracing: on   head sampling: 1-in-1"),
            std::string::npos);
  // Every sampled frame's path reads together under its trace id: capture
  // at the RIS, forward at the route server, replay back at the RIS.
  EXPECT_NE(page.find("trace 0x"), std::string::npos);
  EXPECT_NE(page.find("[ris/hq] capture"), std::string::npos);
  EXPECT_NE(page.find("[routeserver/server] forward"), std::string::npos);
  EXPECT_NE(page.find("[ris/hq] replay"), std::string::npos);
  EXPECT_NE(page.find("-- slow frames"), std::string::npos);

  // max_events bounds the span listing and reports what it dropped.
  std::string bounded = ui.render_trace(/*max_events=*/1);
  EXPECT_NE(bounded.find("(1 shown"), std::string::npos);
}

TEST_F(WebUiFixture, CalendarRendersBookings) {
  WebUiSession alice(bed.service(), "alice");
  alice.open_design("cal");
  ASSERT_TRUE(alice.drag_router_to_plane("hq/h1").ok());
  util::SimTime now = bed.net().now();
  // Bob books h1 for hours [2,4).
  auto bob_booking = bed.service().calendar().reserve(
      "bob", {bed.router_id("hq/h1")}, now + Duration::hours(2),
      now + Duration::hours(4));
  ASSERT_TRUE(bob_booking.ok());
  std::string calendar = alice.render_calendar(now, 6);
  // Row for h1: free, free, B, B, free, free.
  EXPECT_NE(calendar.find("..BB.."), std::string::npos) << calendar;

  // "select the next free period": alice wants 3 hours; the gap before bob
  // is only 2, so her slot starts at hour 4.
  auto reservation = alice.reserve_next_free(Duration::hours(3));
  ASSERT_TRUE(reservation.ok());
  auto details = bed.service().calendar().get(*reservation);
  ASSERT_TRUE(details.has_value());
  EXPECT_EQ((details->start - now).nanos, Duration::hours(4).nanos);
}

TEST_F(WebUiFixture, TerminalPaneRendersConsoleSession) {
  WebUiSession ui(bed.service(), "alice");
  wire::RouterId h1_id = bed.router_id("hq/h1");
  ui.type_into_terminal(h1_id, "enable");
  ui.type_into_terminal(h1_id, "show running-config");
  std::string screen = ui.terminal(h1_id).render();
  EXPECT_NE(screen.find("show running-config"), std::string::npos);  // echo
  EXPECT_NE(screen.find("hostname h1"), std::string::npos);          // output
  EXPECT_NE(screen.find("h1#"), std::string::npos);                  // prompt
}

TEST_F(WebUiFixture, TwoTabsTwoUsersNoInterference) {
  WebUiSession alice(bed.service(), "alice");
  WebUiSession bob(bed.service(), "bob");
  alice.open_design("alice-lab");
  bob.open_design("bob-lab");
  ASSERT_TRUE(alice.drag_router_to_plane("hq/h1").ok());
  // Bob's inventory still shows h1: the column reflects HIS design only.
  EXPECT_NE(bob.render_inventory().find("hq/h1"), std::string::npos);
  ASSERT_TRUE(bob.drag_router_to_plane("hq/h1").ok());
  // But the calendar serializes them: alice books, bob's overlapping
  // reservation fails.
  ASSERT_TRUE(alice.reserve_next_free(Duration::hours(1)).ok());
  util::SimTime now = bed.net().now();
  EXPECT_FALSE(bed.service()
                   .calendar()
                   .reserve("bob", {bed.router_id("hq/h1")}, now,
                            now + Duration::minutes(30))
                   .ok());
}

TEST_F(WebUiFixture, MetricsPageRendersCountersAndHistogramPercentiles) {
  ASSERT_TRUE(bed.server()
                  .connect_ports(bed.port_id("hq/h1", "eth0"),
                                 bed.port_id("hq/h2", "eth0"))
                  .ok());
  h1->ping(ip("10.0.0.2"), 5);
  bed.net().run_for(Duration::seconds(1));
  ASSERT_EQ(h1->ping_replies().size(), 5u);

  const std::uint64_t routed = bed.server().stats().frames_routed;
  const util::Histogram& forward =
      bed.server().metrics().histogram("routeserver.forward_ns");
  ASSERT_GT(routed, 0u);
  ASSERT_GT(forward.count(), 0u);

  WebUiSession ui(bed.service(), "alice");
  const std::string page = ui.render_metrics();
  EXPECT_NE(page.find(util::format(
                "  %-44s %llu\n", "routeserver.frames_routed",
                static_cast<unsigned long long>(routed))),
            std::string::npos)
      << page;
  EXPECT_NE(page.find(util::format(
                "  %-44s %llu / %llu / %llu\n", "routeserver.forward_ns",
                static_cast<unsigned long long>(forward.count()),
                static_cast<unsigned long long>(forward.percentile(50)),
                static_cast<unsigned long long>(forward.percentile(99)))),
            std::string::npos)
      << page;
}

}  // namespace
}  // namespace rnl::core
