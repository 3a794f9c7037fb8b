#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rnl::simnet
