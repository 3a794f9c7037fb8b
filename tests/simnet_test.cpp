#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "simnet/network.h"

namespace rnl::simnet {
namespace {

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_after(util::Duration::seconds(3), [&] { order.push_back(3); });
  sched.schedule_after(util::Duration::seconds(1), [&] { order.push_back(1); });
  sched.schedule_after(util::Duration::seconds(2), [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now().nanos, 3'000'000'000);
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_after(util::Duration::seconds(1),
                         [&order, i] { order.push_back(i); });
  }
  sched.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_after(util::Duration::seconds(1), [&] {
    ++fired;
    sched.schedule_after(util::Duration::seconds(1), [&] { ++fired; });
  });
  sched.run_until(util::SimTime{} + util::Duration::seconds(5));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now().nanos, 5'000'000'000);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_after(util::Duration::seconds(10), [&] { ++fired; });
  sched.run_for(util::Duration::seconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_for(util::Duration::seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler sched;
  sched.run_for(util::Duration::seconds(5));
  int fired = 0;
  sched.schedule_at(util::SimTime{1}, [&] { ++fired; });
  sched.run_for(util::Duration::nanoseconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, DispatchMovesTheActionInsteadOfCopyingIt) {
  // A copied std::function clones its closure: a SimStream delivery would
  // copy its whole chunk, a Netem hand-off its whole frame. Moves are free.
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* out) : copies(out) {}
    CopyCounter(const CopyCounter& other) : copies(other.copies) {
      ++*copies;
    }
    CopyCounter(CopyCounter&&) noexcept = default;
    CopyCounter& operator=(const CopyCounter&) = delete;
    CopyCounter& operator=(CopyCounter&&) = delete;
  };
  Scheduler sched;
  int copies = 0;
  int fired = 0;
  // Several events in reverse time order, so the heap reorders them too.
  for (int i = 0; i < 8; ++i) {
    sched.schedule_after(util::Duration::seconds(8 - i),
                         [counter = CopyCounter(&copies), &fired] {
                           (void)counter;
                           ++fired;
                         });
  }
  sched.run_for(util::Duration::seconds(4));
  sched.run_all();
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(copies, 0);
}

TEST(Timer, FiringsInterleaveWithPlainEventsInWhenSeqOrder) {
  Scheduler sched;
  std::vector<std::string> order;
  Timer timer(sched, [&] { order.push_back("timer"); });
  auto plain = [&](const char* name) {
    sched.schedule_after(util::Duration::seconds(1),
                         [&order, name] { order.push_back(name); });
  };
  plain("a");
  timer.arm_after(util::Duration::seconds(1));
  plain("b");
  timer.arm_after(util::Duration::milliseconds(500));
  EXPECT_EQ(sched.run_all(), 4u);
  EXPECT_EQ(order, (std::vector<std::string>{"timer", "a", "timer", "b"}));
}

TEST(Timer, EachArmQueuesItsOwnFiring) {
  // The RIS uplink flush is armed again while an earlier firing is still
  // queued at the same instant; both run.
  Scheduler sched;
  int fired = 0;
  Timer timer(sched, [&] { ++fired; });
  timer.arm_after(util::Duration{});
  timer.arm_after(util::Duration{});
  EXPECT_EQ(sched.pending(), 2u);
  sched.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Timer, CancelDropsEarlierArmsButNotLaterOnes) {
  Scheduler sched;
  std::vector<std::int64_t> fired_at;
  Timer timer(sched, [&] { fired_at.push_back(sched.now().nanos); });
  timer.arm_after(util::Duration::seconds(1));
  timer.arm_after(util::Duration::seconds(2));
  timer.cancel();
  timer.arm_after(util::Duration::seconds(3));
  // A dropped firing still pops at its time and counts as executed.
  EXPECT_EQ(sched.run_all(), 3u);
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{3'000'000'000}));
}

TEST(Timer, DestroyingFreesTheCallbackAtOnceAndItsFiringRunsNothing) {
  Scheduler sched;
  auto captured = std::make_shared<int>(0);
  {
    Timer timer(sched, [captured] { ++*captured; });
    timer.arm_after(util::Duration::seconds(1));
    EXPECT_EQ(captured.use_count(), 2);
  }
  EXPECT_EQ(captured.use_count(), 1);
  EXPECT_EQ(sched.run_all(), 1u);
  EXPECT_EQ(*captured, 0);
}

TEST(Timer, CallbackMayRearmCancelOrDestroyItsOwnTimer) {
  Scheduler sched;
  int ticks = 0;
  std::unique_ptr<Timer> periodic;
  periodic = std::make_unique<Timer>(sched, [&] {
    if (++ticks < 3) periodic->arm_after(util::Duration::seconds(1));
  });
  periodic->arm_after(util::Duration::seconds(1));
  sched.run_all();
  EXPECT_EQ(ticks, 3);

  int cancels = 0;
  std::unique_ptr<Timer> cancelling;
  cancelling = std::make_unique<Timer>(sched, [&] {
    ++cancels;
    cancelling->cancel();
  });
  cancelling->arm_after(util::Duration::seconds(1));
  cancelling->arm_after(util::Duration::seconds(2));
  sched.run_all();
  EXPECT_EQ(cancels, 1);

  // The callback outlives its Timer until it returns: its captures stay
  // readable after the reset, and are freed right after.
  auto captured = std::make_shared<int>(0);
  std::unique_ptr<Timer> doomed;
  doomed = std::make_unique<Timer>(sched, [&doomed, captured] {
    doomed.reset();
    ++*captured;
  });
  doomed->arm_after(util::Duration::seconds(1));
  doomed->arm_after(util::Duration::seconds(2));
  EXPECT_EQ(sched.run_all(), 2u);
  EXPECT_EQ(doomed, nullptr);
  EXPECT_EQ(*captured, 1);
  EXPECT_EQ(captured.use_count(), 1);
}

class CableTest : public ::testing::Test {
 protected:
  Network net{42};
};

TEST_F(CableTest, DeliversWithDelay) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b, CableProperties{.delay = util::Duration::milliseconds(5)});
  util::SimTime arrival{};
  b.set_receive_handler([&](util::BytesView) { arrival = net.now(); });
  util::Bytes frame{1, 2, 3};
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(arrival.nanos, 5'000'000);
  EXPECT_EQ(a.stats().tx_frames, 1u);
  EXPECT_EQ(b.stats().rx_frames, 1u);
  EXPECT_EQ(b.stats().rx_bytes, 3u);
}

TEST_F(CableTest, NeverReordersUnderJitter) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b,
              CableProperties{.delay = util::Duration::milliseconds(10),
                              .jitter = util::Duration::milliseconds(9)});
  std::vector<std::uint8_t> received;
  b.set_receive_handler(
      [&](util::BytesView bytes) { received.push_back(bytes[0]); });
  for (std::uint8_t i = 0; i < 100; ++i) {
    util::Bytes frame{i};
    a.transmit(frame);
    net.run_for(util::Duration::microseconds(100));
  }
  net.run_all();
  ASSERT_EQ(received.size(), 100u);
  for (std::uint8_t i = 0; i < 100; ++i) EXPECT_EQ(received[i], i);
}

TEST_F(CableTest, BandwidthAddsSerializationDelay) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  // 8 kbit/s: a 1000-byte frame takes 1 s to serialize.
  net.connect(a, b, CableProperties{.bandwidth_bps = 8000});
  util::SimTime arrival{};
  b.set_receive_handler([&](util::BytesView) { arrival = net.now(); });
  util::Bytes frame(1000, 0);
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(arrival.nanos, 1'000'000'000);
}

TEST_F(CableTest, LossDropsFraction) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b, CableProperties{.loss_probability = 0.5});
  int received = 0;
  b.set_receive_handler([&](util::BytesView) { ++received; });
  util::Bytes frame{7};
  for (int i = 0; i < 1000; ++i) a.transmit(frame);
  net.run_all();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_EQ(a.stats().drops + static_cast<std::uint64_t>(received), 1000u);
}

TEST_F(CableTest, DownPortDropsTraffic) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b);
  int received = 0;
  b.set_receive_handler([&](util::BytesView) { ++received; });
  b.set_up(false);
  EXPECT_FALSE(a.has_carrier());
  util::Bytes frame{1};
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(received, 0);
  b.set_up(true);
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(received, 1);
}

TEST_F(CableTest, UnpluggedPortDropsAtSource) {
  Port& a = net.make_port("a");
  util::Bytes frame{1};
  a.transmit(frame);
  EXPECT_EQ(a.stats().drops, 1u);
  EXPECT_FALSE(a.has_carrier());
}

TEST_F(CableTest, InFlightFramesDieWhenCablePulled) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b, CableProperties{.delay = util::Duration::seconds(1)});
  int received = 0;
  b.set_receive_handler([&](util::BytesView) { ++received; });
  util::Bytes frame{1};
  a.transmit(frame);
  net.disconnect(a);  // photon is mid-fiber
  net.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.cable_count(), 0u);
}

TEST_F(CableTest, RewiringAfterDisconnectWorks) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  Port& c = net.make_port("c");
  net.connect(a, b);
  net.disconnect(a);
  net.connect(a, c);
  int c_received = 0;
  c.set_receive_handler([&](util::BytesView) { ++c_received; });
  util::Bytes frame{1};
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(c_received, 1);
}

TEST_F(CableTest, DoubleWireThrows) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  Port& c = net.make_port("c");
  net.connect(a, b);
  EXPECT_THROW(net.connect(a, c), std::logic_error);
}

TEST_F(CableTest, TapSeesBothDirections) {
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b);
  int tx_seen = 0;
  int rx_seen = 0;
  a.set_tap([&](bool is_tx, util::BytesView) { is_tx ? ++tx_seen : ++rx_seen; });
  b.set_receive_handler([&](util::BytesView bytes) {
    util::Bytes echo(bytes.begin(), bytes.end());
    b.transmit(echo);
  });
  util::Bytes frame{1};
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(tx_seen, 1);
  EXPECT_EQ(rx_seen, 1);
}

TEST_F(CableTest, HandlerTransmittingOnTheSameCableKeepsOrder) {
  // A burst lands at one instant and drains in one event. The receiver
  // echoes each frame back (the other direction) straight from the view it
  // was handed, and the first frames make the sender transmit again in the
  // direction being drained. Every frame still arrives once, in order, and
  // the world runs dry.
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b);
  std::vector<std::uint8_t> at_b;
  std::vector<std::uint8_t> at_a;
  b.set_receive_handler([&](util::BytesView frame) {
    at_b.push_back(frame[0]);
    if (frame[0] <= 3) {
      util::Bytes follow_up(1500, static_cast<std::uint8_t>(frame[0] + 10));
      a.transmit(follow_up);  // appended to the direction mid-drain
    }
    b.transmit(frame);  // echoed from the view itself
    EXPECT_EQ(frame.size(), 1500u);  // the view survived both transmits
  });
  a.set_receive_handler([&](util::BytesView frame) {
    at_a.push_back(frame[0]);
  });
  for (std::uint8_t i = 1; i <= 5; ++i) a.transmit(util::Bytes(1500, i));
  net.run_all();
  const std::vector<std::uint8_t> expected = {1, 2, 3, 4, 5, 11, 12, 13};
  EXPECT_EQ(at_b, expected);
  EXPECT_EQ(at_a, expected);
  EXPECT_EQ(b.stats().rx_frames, 8u);
  EXPECT_EQ(a.stats().rx_frames, 8u);
  EXPECT_TRUE(net.scheduler().empty());
}

TEST_F(CableTest, HandlerUnpluggingMidDrainStopsCleanly) {
  // The second frame of a same-instant burst unplugs the cable from inside
  // the receive handler, then keeps reading its frame: the view must stay
  // valid, the rest of the burst dies in the fiber, and nothing runs later.
  Port& a = net.make_port("a");
  Port& b = net.make_port("b");
  net.connect(a, b, CableProperties{.delay = util::Duration::milliseconds(1)});
  std::vector<std::uint8_t> at_b;
  std::size_t bytes_after_unplug = 0;
  b.set_receive_handler([&](util::BytesView frame) {
    at_b.push_back(frame[0]);
    if (frame[0] == 2) {
      net.disconnect(b);
      util::Bytes copy(frame.begin(), frame.end());
      bytes_after_unplug = copy.size();
    }
  });
  for (std::uint8_t i = 1; i <= 5; ++i) a.transmit(util::Bytes(600, i));
  net.run_all();
  const std::vector<std::uint8_t> expected = {1, 2};
  EXPECT_EQ(at_b, expected);
  EXPECT_EQ(bytes_after_unplug, 600u);
  EXPECT_EQ(net.cable_count(), 0u);
  EXPECT_TRUE(net.scheduler().empty());
  // The ports stay usable: a fresh cable carries traffic again.
  net.connect(a, b);
  a.transmit(util::Bytes(64, 9));
  net.run_all();
  EXPECT_EQ(at_b.back(), 9);
}

}  // namespace
}  // namespace rnl::simnet
