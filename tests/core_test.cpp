#include <gtest/gtest.h>

#include "core/design.h"
#include "core/reservation.h"
#include "core/vt100.h"
#include "util/rng.h"

namespace rnl::core {
namespace {

using util::Duration;
using util::SimTime;

TEST(Design, RouterAppearsOnceOnThePlane) {
  TopologyDesign design("lab");
  EXPECT_TRUE(design.add_router(1).ok());
  EXPECT_FALSE(design.add_router(1).ok());  // one physical instance
  EXPECT_TRUE(design.has_router(1));
  EXPECT_TRUE(design.remove_router(1).ok());
  EXPECT_FALSE(design.remove_router(1).ok());
}

TEST(Design, OneWirePerPort) {
  TopologyDesign design("lab");
  EXPECT_TRUE(design.connect(1, 2).ok());
  EXPECT_FALSE(design.connect(1, 3).ok());
  EXPECT_FALSE(design.connect(4, 2).ok());
  EXPECT_FALSE(design.connect(5, 5).ok());
  EXPECT_EQ(design.peer_of(1), std::optional<wire::PortId>(2));
  EXPECT_EQ(design.peer_of(9), std::nullopt);
  EXPECT_TRUE(design.disconnect(2).ok());
  EXPECT_TRUE(design.connect(1, 3).ok());
}

TEST(Design, JsonRoundTripIncludingWan) {
  TopologyDesign design("fig5");
  ASSERT_TRUE(design.add_router(1).ok());
  ASSERT_TRUE(design.add_router(2).ok());
  wire::NetemProfile wan;
  wan.delay = Duration::milliseconds(40);
  wan.jitter = Duration::milliseconds(3);
  wan.loss_probability = 0.001;
  wan.jitter_smoothing = 4;
  ASSERT_TRUE(design.connect(10, 20, wan).ok());
  ASSERT_TRUE(design.connect(11, 21).ok());

  auto back = TopologyDesign::from_json(design.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "fig5");
  EXPECT_EQ(back->routers(), design.routers());
  ASSERT_EQ(back->links().size(), 2u);
  EXPECT_EQ(back->links()[0].wan.delay.nanos, wan.delay.nanos);
  EXPECT_DOUBLE_EQ(back->links()[0].wan.loss_probability, 0.001);
  EXPECT_EQ(back->links()[1].wan.delay.nanos, 0);
}

TEST(Design, FromJsonRejectsCorruptDesigns) {
  EXPECT_FALSE(TopologyDesign::from_json(*util::Json::parse("[]")).ok());
  // duplicate router
  EXPECT_FALSE(TopologyDesign::from_json(
                   *util::Json::parse(
                       R"({"name":"x","routers":[1,1],"links":[]})"))
                   .ok());
  // port used twice
  EXPECT_FALSE(
      TopologyDesign::from_json(
          *util::Json::parse(
              R"({"name":"x","routers":[1],"links":[{"a":1,"b":2},{"a":2,"b":3}]})"))
          .ok());
}

TEST(Calendar, ReserveAndConflict) {
  ReservationCalendar calendar;
  auto r1 = calendar.reserve("alice", {1, 2}, SimTime{0},
                             SimTime{} + Duration::hours(1));
  ASSERT_TRUE(r1.ok());
  // Overlapping on router 2: rejected atomically.
  auto r2 = calendar.reserve("bob", {2, 3}, SimTime{} + Duration::minutes(30),
                             SimTime{} + Duration::minutes(90));
  EXPECT_FALSE(r2.ok());
  // Router 3 must NOT have been booked by the failed attempt.
  auto r3 = calendar.reserve("bob", {3}, SimTime{} + Duration::minutes(30),
                             SimTime{} + Duration::minutes(90));
  EXPECT_TRUE(r3.ok());
  // Back-to-back (half-open intervals) is fine.
  auto r4 = calendar.reserve("bob", {1, 2}, SimTime{} + Duration::hours(1),
                             SimTime{} + Duration::hours(2));
  EXPECT_TRUE(r4.ok());
}

TEST(Calendar, NextCommonFreeSlot) {
  ReservationCalendar calendar;
  ASSERT_TRUE(calendar.reserve("a", {1}, SimTime{0}, SimTime{} + Duration::hours(1)).ok());
  ASSERT_TRUE(calendar.reserve("b", {2}, SimTime{} + Duration::minutes(30),
                               SimTime{} + Duration::hours(2)).ok());
  SimTime slot =
      calendar.next_common_free_slot({1, 2}, Duration::hours(1), SimTime{0});
  EXPECT_EQ(slot, SimTime{} + Duration::hours(2));
  // A single free router can start immediately.
  EXPECT_EQ(calendar.next_common_free_slot({9}, Duration::hours(4), SimTime{0}),
            SimTime{0});
  // Slot fits in a gap.
  ReservationCalendar gappy;
  ASSERT_TRUE(gappy.reserve("a", {1}, SimTime{} + Duration::hours(2),
                            SimTime{} + Duration::hours(3)).ok());
  EXPECT_EQ(gappy.next_common_free_slot({1}, Duration::hours(1), SimTime{0}),
            SimTime{0});
}

TEST(Calendar, CoveringChecksUserAndWindow) {
  ReservationCalendar calendar;
  auto id = calendar.reserve("alice", {1, 2}, SimTime{0},
                             SimTime{} + Duration::hours(1));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(
      calendar.covering("alice", {1}, SimTime{} + Duration::minutes(10))
          .has_value());
  EXPECT_FALSE(
      calendar.covering("bob", {1}, SimTime{} + Duration::minutes(10))
          .has_value());
  EXPECT_FALSE(
      calendar.covering("alice", {1, 3}, SimTime{} + Duration::minutes(10))
          .has_value());
  EXPECT_FALSE(
      calendar.covering("alice", {1}, SimTime{} + Duration::hours(2))
          .has_value());
}

TEST(Calendar, CancelAndExpire) {
  ReservationCalendar calendar;
  auto id = calendar.reserve("a", {1}, SimTime{0},
                             SimTime{} + Duration::hours(1));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(calendar.cancel(*id).ok());
  EXPECT_FALSE(calendar.cancel(999).ok());
  // Cancelled slot is free again.
  EXPECT_TRUE(calendar.reserve("b", {1}, SimTime{0},
                               SimTime{} + Duration::hours(1))
                  .ok());
  auto expired = calendar.expire(SimTime{} + Duration::hours(5));
  EXPECT_EQ(expired.size(), 2u);
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(Calendar, ScheduleForSortsByStart) {
  ReservationCalendar calendar;
  ASSERT_TRUE(calendar.reserve("a", {7}, SimTime{} + Duration::hours(3),
                               SimTime{} + Duration::hours(4)).ok());
  ASSERT_TRUE(calendar.reserve("b", {7}, SimTime{} + Duration::hours(1),
                               SimTime{} + Duration::hours(2)).ok());
  auto schedule = calendar.schedule_for(7);
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0].user, "b");
  EXPECT_EQ(schedule[1].user, "a");
  EXPECT_TRUE(calendar.schedule_for(42).empty());
}

// Property: whatever the random reservation mix, no two active reservations
// for the same router ever overlap.
class CalendarProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalendarProperty, NoDoubleBookingEver) {
  util::Rng rng(GetParam());
  ReservationCalendar calendar;
  std::vector<Reservation> accepted;
  for (int i = 0; i < 300; ++i) {
    std::vector<wire::RouterId> routers;
    std::size_t n = 1 + rng.below(4);
    for (std::size_t k = 0; k < n; ++k) {
      routers.push_back(static_cast<wire::RouterId>(1 + rng.below(6)));
    }
    SimTime start{static_cast<std::int64_t>(rng.below(1000)) * 1'000'000'000};
    SimTime end = start + Duration::seconds(
                              static_cast<std::int64_t>(1 + rng.below(100)));
    auto id = calendar.reserve("u" + std::to_string(rng.below(3)), routers,
                               start, end);
    if (id.ok()) {
      accepted.push_back(*calendar.get(*id));
    }
  }
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    for (std::size_t j = i + 1; j < accepted.size(); ++j) {
      const auto& a = accepted[i];
      const auto& b = accepted[j];
      bool share_router = false;
      for (auto r : a.routers) {
        for (auto r2 : b.routers) {
          if (r == r2) share_router = true;
        }
      }
      if (share_router) {
        bool overlap = a.start < b.end && b.start < a.end;
        EXPECT_FALSE(overlap) << "double booking of a router";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarProperty,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// VT100
// ---------------------------------------------------------------------------

TEST(Vt100, PlainTextAndNewlines) {
  Vt100Terminal term(20, 4);
  term.feed("router>\nrouter# show\n");
  EXPECT_EQ(term.line(0), "router>");
  EXPECT_EQ(term.line(1), "router# show");
  EXPECT_EQ(term.cursor_row(), 2);
}

TEST(Vt100, CarriageReturnOverwrites) {
  Vt100Terminal term(20, 4);
  term.feed("ABCDEF\rxy");
  EXPECT_EQ(term.line(0), "xyCDEF");
}

TEST(Vt100, BackspaceAndTab) {
  Vt100Terminal term(20, 4);
  term.feed("ab\b\bX\tY");
  // X overwrote 'a'; tab jumps to column 8.
  EXPECT_EQ(term.line(0).substr(0, 2), "Xb");
  EXPECT_EQ(term.line(0)[8], 'Y');
}

TEST(Vt100, CursorPositioningCsi) {
  Vt100Terminal term(20, 5);
  term.feed("\x1b[3;5HZ");
  EXPECT_EQ(term.line(2), "    Z");
  term.feed("\x1b[1;1Htop");
  EXPECT_EQ(term.line(0), "top");
}

TEST(Vt100, EraseDisplayAndLine) {
  Vt100Terminal term(10, 3);
  term.feed("aaaa\nbbbb\ncccc");
  term.feed("\x1b[2J");
  EXPECT_EQ(term.render(), "");
  term.feed("hello");
  term.feed("\x1b[1;3H\x1b[K");  // erase from column 3 to end
  EXPECT_EQ(term.line(0), "he");
}

TEST(Vt100, ScrollingFillsScrollback) {
  Vt100Terminal term(10, 2);
  term.feed("one\ntwo\nthree\nfour");
  EXPECT_EQ(term.line(0), "three");
  EXPECT_EQ(term.line(1), "four");
  EXPECT_NE(term.scrollback().find("one"), std::string::npos);
  EXPECT_NE(term.scrollback().find("two"), std::string::npos);
}

TEST(Vt100, SgrAttributesAreSwallowed) {
  Vt100Terminal term(20, 2);
  term.feed("\x1b[1;31mRED\x1b[0m ok");
  EXPECT_EQ(term.line(0), "RED ok");
}

TEST(Vt100, LineWrapAtWidth) {
  Vt100Terminal term(5, 3);
  term.feed("abcdefgh");
  EXPECT_EQ(term.line(0), "abcde");
  EXPECT_EQ(term.line(1), "fgh");
}

}  // namespace
}  // namespace rnl::core
