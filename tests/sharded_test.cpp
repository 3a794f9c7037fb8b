// Shard-per-core route server: the SPSC cross-shard wire ring, cooperative
// and threaded sharding, hash placement through the dispatch layer, and the
// kill-mid-traffic rejoin that crosses a shard boundary (DESIGN.md §12).

#include "routeserver/sharded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "devices/host.h"
#include "devices/traffgen.h"
#include "ris/ris.h"
#include "simnet/network.h"
#include "transport/sim_stream.h"
#include "util/spsc.h"

namespace rnl {
namespace {

using packet::Ipv4Address;
using packet::Ipv4Prefix;
using routeserver::ShardedRouteServer;

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix prefix(const char* s) { return *Ipv4Prefix::parse(s); }

// ---------------------------------------------------------------------------
// SpscRing: the lock-free cross-shard wire
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(util::SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(util::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(util::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(util::SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(util::SpscRing<int>(4097).capacity(), 8192u);
}

TEST(SpscRing, PathologicalCapacityClampsInsteadOfSpinningForever) {
  // Rounding up a capacity past the top power of two used to shift `size`
  // to zero and loop forever (`size < capacity` stays true once size
  // overflows). The constructor now clamps at kMaxCapacity and stays a
  // working ring.
  constexpr std::size_t kMax = util::SpscRing<int>::kMaxCapacity;
  util::SpscRing<int> huge(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(huge.capacity(), kMax);
  util::SpscRing<int> above(kMax + 1);
  EXPECT_EQ(above.capacity(), kMax);
  EXPECT_TRUE(above.push(7));
  int out = 0;
  EXPECT_TRUE(above.pop(out));
  EXPECT_EQ(out, 7);
}

TEST(SpscRing, FifoOrderSurvivesWraparound) {
  // Tiny ring, many items: head and tail wrap hundreds of times, and every
  // slot's sequence number must keep the pop order identical to push order.
  util::SpscRing<std::uint64_t> ring(4);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t out = 0;
  for (int round = 0; round < 300; ++round) {
    ASSERT_TRUE(ring.push(pushed));
    ++pushed;
    ASSERT_TRUE(ring.push(pushed));
    ++pushed;
    ASSERT_TRUE(ring.push(pushed));
    ++pushed;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.pop(out));
      ASSERT_EQ(out, popped);
      ++popped;
    }
  }
  EXPECT_FALSE(ring.pop(out));  // drained
  EXPECT_EQ(ring.pushed(), pushed);
  EXPECT_EQ(ring.popped(), popped);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRing, FullRingDropsAndCountsInsteadOfBlocking) {
  util::SpscRing<int> ring(2);
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_FALSE(ring.push(3));  // full: a congested wire drops, never blocks
  EXPECT_FALSE(ring.push(4));
  EXPECT_EQ(ring.dropped(), 2u);
  int out = 0;
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.push(5));  // the popped slot is immediately reusable
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(ring.pop(out));
  EXPECT_EQ(ring.pushed(), 3u);
  EXPECT_EQ(ring.popped(), 3u);
}

/// Torn-write detection: a producer thread streams checksummed payloads
/// through a deliberately tiny ring while the consumer validates every byte
/// and the sequence ordering. Run under --tsan this also proves the
/// acquire/release protocol publishes whole elements, never partial ones.
TEST(SpscRing, ConcurrentHammerDeliversUntornPayloadsInOrder) {
  struct Item {
    std::uint64_t seq = 0;
    util::Bytes payload;
  };
  constexpr std::uint64_t kItems = 20'000;
  util::SpscRing<Item> ring(16);
  std::atomic<bool> done{false};
  std::uint64_t received = 0;
  std::uint64_t torn = 0;
  std::uint64_t out_of_order = 0;

  auto expected_byte = [](std::uint64_t seq, std::size_t i) {
    return static_cast<std::uint8_t>(seq * 131 + i * 7 + 3);
  };
  auto consume = [&](Item& item) {
    ++received;
    if (received != item.seq + 1) ++out_of_order;
    const std::size_t want = static_cast<std::size_t>(item.seq % 61) + 1;
    if (item.payload.size() != want) {
      ++torn;
      return;
    }
    for (std::size_t i = 0; i < item.payload.size(); ++i) {
      if (item.payload[i] != expected_byte(item.seq, i)) {
        ++torn;
        return;
      }
    }
  };

  std::thread consumer([&] {
    Item item;
    while (!done.load(std::memory_order_acquire)) {
      if (ring.pop(item)) {
        consume(item);
      } else {
        std::this_thread::yield();
      }
    }
    while (ring.pop(item)) consume(item);  // final drain after the producer
  });

  for (std::uint64_t seq = 0; seq < kItems; ++seq) {
    Item item;
    item.seq = seq;
    item.payload.resize(static_cast<std::size_t>(seq % 61) + 1);
    for (std::size_t i = 0; i < item.payload.size(); ++i) {
      item.payload[i] = expected_byte(seq, i);
    }
    while (!ring.push(std::move(item))) {
      // Full ring counts a drop; rebuild and retry so every seq arrives.
      item.seq = seq;
      item.payload.resize(static_cast<std::size_t>(seq % 61) + 1);
      for (std::size_t i = 0; i < item.payload.size(); ++i) {
        item.payload[i] = expected_byte(seq, i);
      }
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(received, kItems);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(ring.pushed(), kItems);
  EXPECT_EQ(ring.popped(), kItems);
}

// ---------------------------------------------------------------------------
// Cooperative sharding: two shards, one test thread, shared sim world
// ---------------------------------------------------------------------------

/// Two sites pinned to different shards of one ShardedRouteServer, both
/// worlds driven by a single scheduler (cooperative mode): deterministic,
/// and every cross-shard mechanism still runs for real.
class ShardedStack : public ::testing::Test {
 protected:
  ShardedStack()
      : server(make_options(net, /*shards=*/2)),
        site1(net, "us-west"),
        site2(net, "eu-central"),
        h1(net, "h1"),
        h2(net, "h2") {
    h1.configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
    h2.configure(prefix("10.0.0.2/24"), ip("10.0.0.254"));
    std::size_t r1 = site1.add_router(&h1, "server h1", "host.png");
    site1.map_port(r1, 0, "eth0");
    std::size_t r2 = site2.add_router(&h2, "server h2", "host.png");
    site2.map_port(r2, 0, "eth0");
  }

  static ShardedRouteServer::Options make_options(simnet::Network& net,
                                                  std::size_t shards) {
    ShardedRouteServer::Options options;
    options.shards = shards;
    // Every shard runs on the shared sim scheduler: cooperative mode is
    // single-threaded, so the SPSC contract trivially holds and the test
    // stays deterministic.
    options.schedulers.assign(shards, &net.scheduler());
    return options;
  }

  /// Joins `site` onto an explicitly chosen shard (bypassing the hash) so
  /// cross-shard tests control the placement.
  void join_on(std::size_t shard, ris::RouterInterface& site) {
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net.scheduler());
    server.accept(shard, std::move(server_end));
    site.join(std::move(ris_end));
    settle();
  }

  /// Advances the shared sim world and pumps dispatch, commands, and the
  /// cross-shard rings. Each pump only moves frames one ring hop, so a
  /// round trip needs several iterations.
  void settle(int iterations = 20) {
    for (int i = 0; i < iterations; ++i) {
      net.run_for(util::Duration::milliseconds(50));
      server.pump_all();
    }
  }

  wire::PortId port_of(const std::string& router_name) {
    for (const auto& router : server.inventory()) {
      if (router.name == router_name) return router.ports.at(0).id;
    }
    return 0;
  }

  simnet::Network net{31};
  ShardedRouteServer server;
  ris::RouterInterface site1;
  ris::RouterInterface site2;
  devices::Host h1;
  devices::Host h2;
};

TEST_F(ShardedStack, IdStripingMapsEveryPortToItsOwnerShard) {
  join_on(0, site1);
  join_on(1, site2);
  ASSERT_TRUE(site1.joined());
  ASSERT_TRUE(site2.joined());
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");
  ASSERT_NE(p1, 0u);
  ASSERT_NE(p2, 0u);
  // Shard s allocates ids s+1, s+1+N, ...: ownership is one modulo away.
  EXPECT_EQ(server.shard_of_port(p1), 0u);
  EXPECT_EQ(server.shard_of_port(p2), 1u);
  EXPECT_NE(p1, p2);  // striped id spaces never collide across shards
}

TEST_F(ShardedStack, CrossShardWireCarriesPingAndMergesStats) {
  join_on(0, site1);
  join_on(1, site2);
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");
  ASSERT_TRUE(server.connect_ports(p1, p2).ok());
  EXPECT_EQ(server.wire_count(), 1u);

  h1.ping(ip("10.0.0.2"), 5);
  settle(40);
  EXPECT_EQ(h1.ping_replies().size(), 5u);

  auto stats = server.stats();
  // Request and echo each cross the ring once; nothing may be lost.
  EXPECT_GE(stats.cross_shard_frames_out, 10u);
  EXPECT_EQ(stats.cross_shard_frames_in, stats.cross_shard_frames_out);
  EXPECT_EQ(server.cross_shard_ring_drops(), 0u);
  EXPECT_GE(stats.frames_routed, 10u);
  EXPECT_EQ(stats.sites_joined, 2u);

  // The merged registry dump tells the same story as the merged structs.
  auto dump = server.metrics_json();
  EXPECT_EQ(dump["counters"]["routeserver.frames_routed"].as_int(),
            static_cast<std::int64_t>(stats.frames_routed));
  EXPECT_EQ(dump["counters"]["routeserver.cross_shard_frames_out"].as_int(),
            static_cast<std::int64_t>(stats.cross_shard_frames_out));
}

TEST_F(ShardedStack, SameShardSitesNeverTouchTheRings) {
  join_on(0, site1);
  join_on(0, site2);
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");
  ASSERT_TRUE(server.connect_ports(p1, p2).ok());
  h1.ping(ip("10.0.0.2"), 5);
  settle();
  EXPECT_EQ(h1.ping_replies().size(), 5u);
  EXPECT_EQ(server.stats().cross_shard_frames_out, 0u);
  EXPECT_EQ(server.cross_shard_ring_drops(), 0u);
}

TEST_F(ShardedStack, DisconnectTearsDownBothEndsOfACrossShardWire) {
  join_on(0, site1);
  join_on(1, site2);
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");
  ASSERT_TRUE(server.connect_ports(p1, p2).ok());
  ASSERT_EQ(server.wire_count(), 1u);
  // Tearing down one end must clear the peer shard's end too (it arrives
  // there as a posted command, drained synchronously in cooperative mode).
  server.disconnect_port(p1);
  EXPECT_EQ(server.wire_count(), 0u);
  h1.ping(ip("10.0.0.2"), 3);
  settle();
  EXPECT_EQ(h1.ping_replies().size(), 0u);
}

TEST_F(ShardedStack, ConnectPortsRejectsUnknownAndSelfPairs) {
  join_on(0, site1);
  wire::PortId p1 = port_of("us-west/h1");
  EXPECT_FALSE(server.connect_ports(p1, p1).ok());
  EXPECT_FALSE(server.connect_ports(p1, 9999).ok());  // unknown cross-shard
  EXPECT_EQ(server.wire_count(), 0u);
  // A failed far end must roll the near end back: the port stays wirable.
  wire::PortId p2 = 0;
  join_on(1, site2);
  p2 = port_of("eu-central/h2");
  EXPECT_TRUE(server.connect_ports(p1, p2).ok());
  EXPECT_EQ(server.wire_count(), 1u);
}

TEST_F(ShardedStack, FullWireRingDropsFramesLikeACongestedLink) {
  // A traffic-generator burst larger than the ring, with no pump while it
  // crosses: the producer shard keeps forwarding while nobody drains, so
  // the ring fills to its capacity and drops the rest.
  constexpr std::size_t kRing = ShardedRouteServer::kWireRingCapacity;
  constexpr std::uint32_t kBurst = kRing + 1000;
  devices::TrafficGenerator tx(net, "tx", 1);
  devices::TrafficGenerator rx(net, "rx", 1);
  rx.set_count_only(true);
  site1.map_port(site1.add_router(&tx, "generator", "ixia.png"), 0, "port1");
  site2.map_port(site2.add_router(&rx, "analyzer", "ixia.png"), 0, "port1");
  join_on(0, site1);
  join_on(1, site2);
  ASSERT_TRUE(
      server.connect_ports(port_of("us-west/tx"), port_of("eu-central/rx"))
          .ok());
  devices::TrafficGenerator::Stream stream;
  stream.template_frame = util::Bytes(64, 0x5A);
  stream.count = kBurst;
  stream.burst = kBurst;
  tx.start_stream(0, stream);
  net.run_for(util::Duration::seconds(1));  // no pump_all: the ring fills
  EXPECT_EQ(server.cross_shard_ring_drops(), kBurst - kRing);
  // Draining delivers exactly the queued frames; the dropped ones stay
  // dropped.
  settle();
  EXPECT_EQ(server.stats().cross_shard_frames_in, kRing);
  EXPECT_GT(rx.rx_count(0), 0u);
  EXPECT_LT(rx.rx_count(0), kBurst);
}

TEST_F(ShardedStack, DispatchSniffsTheJoinAndPlacesByHash) {
  auto [ris_end, server_end] = transport::make_sim_stream_pair(net.scheduler());
  server.dispatch(std::move(server_end));
  site1.join(std::move(ris_end));
  settle();
  ASSERT_TRUE(site1.joined());
  EXPECT_EQ(server.pending_dispatch(), 0u);
  wire::PortId p1 = port_of("us-west/h1");
  ASSERT_NE(p1, 0u);
  // The striped id proves which shard accepted the site: it must be the
  // hash of the site name, not an accident of arrival order.
  EXPECT_EQ(server.shard_of_port(p1), server.shard_of_site("us-west"));
}

TEST_F(ShardedStack, DispatchReapsGarbageStreamsBeforeTheByteCap) {
  auto [client, server_end] = transport::make_sim_stream_pair(net.scheduler());
  server.dispatch(std::move(server_end));
  EXPECT_EQ(server.pending_dispatch(), 1u);
  // A stream that never produces a JOIN must not pin dispatch memory.
  util::Bytes junk(16 * 1024, 0xFF);
  for (int i = 0; i < 8; ++i) {
    client->send(util::BytesView(junk.data(), junk.size()));
    net.run_for(util::Duration::milliseconds(50));
    server.pump_dispatch();
  }
  EXPECT_EQ(server.pending_dispatch(), 0u);
  EXPECT_EQ(server.stats().sites_joined, 0u);
}

// ---------------------------------------------------------------------------
// Kill-mid-traffic rejoin crossing a shard boundary (runs under --faults)
// ---------------------------------------------------------------------------

TEST_F(ShardedStack, KillMidTrafficRejoinRestoresTheCrossShardWire) {
  transport::SimLinkFault fault;
  auto dial = [&]() -> std::unique_ptr<transport::Transport> {
    transport::SimStreamOptions options;
    options.fault = &fault;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net.scheduler(), options);
    server.accept(0, std::move(server_end));
    return std::move(ris_end);
  };
  ris::ReconnectPolicy policy;
  policy.initial_backoff = util::Duration::milliseconds(100);
  policy.max_backoff = util::Duration::seconds(1);
  policy.jitter = 0.2;
  policy.max_attempts = 8;
  site1.set_reconnect_policy(policy);
  site1.set_transport_factory(dial);
  site1.join(dial());
  join_on(1, site2);
  settle();
  ASSERT_TRUE(site1.joined());
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");
  ASSERT_EQ(server.shard_of_port(p1), 0u);
  ASSERT_EQ(server.shard_of_port(p2), 1u);
  ASSERT_TRUE(server.connect_ports(p1, p2).ok());

  for (int round = 0; round < 3; ++round) {
    h1.ping(ip("10.0.0.2"), 5);  // traffic in flight when the link dies
    net.run_for(util::Duration::milliseconds(130 + 41 * round));
    server.pump_all();
    fault.cut();
    // Backoff budget: first redial lands well inside three virtual seconds.
    settle(60);
    ASSERT_TRUE(site1.joined()) << "round " << round;
  }

  auto stats = server.stats();
  EXPECT_EQ(stats.sites_rejoined, 3u);
  EXPECT_EQ(stats.sites_lost, 3u);
  // The remote wire end on the dead site's shard survives the loss and is
  // restored at rejoin — the far shard's end was never torn down at all.
  EXPECT_EQ(stats.matrix_entries_restored, 3u);
  EXPECT_EQ(server.wire_count(), 1u);
  EXPECT_EQ(port_of("us-west/h1"), p1);  // same striped ids after rejoin

  // After the last rejoin the cross-shard wire still round-trips a burst.
  std::size_t replies_before = h1.ping_replies().size();
  h1.ping(ip("10.0.0.2"), 5);
  settle(40);
  EXPECT_EQ(h1.ping_replies().size() - replies_before, 5u);
  EXPECT_EQ(server.stats().decode_errors, 0u);
}

TEST_F(ShardedStack, DispatchedRejoinTwoHundredTimesFreesEveryDeadSession) {
  // Every redial goes through the front door, whose sniffed JOIN the shard
  // reuses. Each cut kills one session; the next accept on the shard must
  // free it, so the shard never holds more than its live sessions plus the
  // one dead session awaiting that accept.
  transport::SimLinkFault fault;
  auto dial = [&]() -> std::unique_ptr<transport::Transport> {
    transport::SimStreamOptions options;
    options.fault = &fault;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net.scheduler(), options);
    server.dispatch(std::move(server_end));
    return std::move(ris_end);
  };
  ris::ReconnectPolicy policy;
  policy.initial_backoff = util::Duration::milliseconds(10);
  policy.jitter = 0;
  site1.set_reconnect_policy(policy);
  site1.set_transport_factory(dial);
  site1.join(dial());
  settle(4);
  ASSERT_TRUE(site1.joined());
  const wire::PortId p1 = port_of("us-west/h1");
  routeserver::RouteServer& shard =
      server.shard(server.shard_of_site("us-west"));

  constexpr std::uint32_t kCycles = 200;
  for (std::uint32_t cycle = 1; cycle <= kCycles; ++cycle) {
    fault.cut();
    settle(2);
    ASSERT_TRUE(site1.joined()) << "cycle " << cycle;
    ASSERT_EQ(site1.session_epoch(), cycle);
    ASSERT_LE(shard.site_count(), 2u) << "cycle " << cycle;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.sites_joined, kCycles + 1);
  EXPECT_EQ(stats.sites_lost, kCycles);
  EXPECT_EQ(stats.sites_rejoined, kCycles);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(port_of("us-west/h1"), p1);
  EXPECT_EQ(server.pending_dispatch(), 0u);
}

// ---------------------------------------------------------------------------
// Threaded mode (the TSan targets): shard loops, snapshots, teardown races
// ---------------------------------------------------------------------------

/// One thread per shard, each owning a private sim world (scheduler, RIS
/// site, host) so the SPSC rings and the command queues are the only things
/// crossing threads. The control thread hammers snapshot APIs while a
/// fault kills and rejoins the shard-1 site mid-traffic — under --tsan this
/// is the regression test for the teardown races the sharding forced out.
TEST(ShardedThreaded, CrossShardTrafficSurvivesKillRejoinAndSnapshots) {
  simnet::Network net0{7};
  simnet::Network net1{9};
  ShardedRouteServer::Options options;
  options.shards = 2;
  options.schedulers = {&net0.scheduler(), &net1.scheduler()};
  ShardedRouteServer server(options);

  ris::RouterInterface site1(net0, "alpha");
  ris::RouterInterface site2(net1, "beta");
  devices::Host h1(net0, "h1");
  devices::Host h2(net1, "h2");
  h1.configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
  h2.configure(prefix("10.0.0.2/24"), ip("10.0.0.254"));
  std::size_t r1 = site1.add_router(&h1, "server h1", "host.png");
  site1.map_port(r1, 0, "eth0");
  std::size_t r2 = site2.add_router(&h2, "server h2", "host.png");
  site2.map_port(r2, 0, "eth0");

  transport::SimLinkFault fault;
  auto dial2 = [&]() -> std::unique_ptr<transport::Transport> {
    // Runs on shard 1's thread once started (the RIS reconnect timer lives
    // on net1's scheduler), so the direct accept hits the owner thread.
    transport::SimStreamOptions sim_options;
    sim_options.fault = &fault;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net1.scheduler(), sim_options);
    server.accept(1, std::move(server_end));
    return std::move(ris_end);
  };
  ris::ReconnectPolicy policy;
  policy.initial_backoff = util::Duration::milliseconds(100);
  policy.max_backoff = util::Duration::seconds(1);
  policy.jitter = 0.2;
  policy.max_attempts = 8;
  site2.set_reconnect_policy(policy);
  site2.set_transport_factory(dial2);

  // Join both sites cooperatively before the threads exist.
  {
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net0.scheduler());
    server.accept(0, std::move(server_end));
    site1.join(std::move(ris_end));
  }
  site2.join(dial2());
  for (int i = 0; i < 10; ++i) {
    net0.run_for(util::Duration::milliseconds(100));
    net1.run_for(util::Duration::milliseconds(100));
    server.pump_all();
  }
  ASSERT_TRUE(site1.joined());
  ASSERT_TRUE(site2.joined());
  wire::PortId p1 = server.port_id("alpha/h1", "eth0");
  wire::PortId p2 = server.port_id("beta/h2", "eth0");
  ASSERT_NE(p1, 0u);
  ASSERT_NE(p2, 0u);
  ASSERT_TRUE(server.connect_ports(p1, p2).ok());

  server.start();
  ASSERT_TRUE(server.running());

  auto wait_until = [&](const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      // Snapshot APIs from the control thread while the shards run: these
      // hop onto the shard threads and must never race the data plane.
      (void)server.metrics_json();
      (void)server.inventory();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  };

  for (int round = 0; round < 3; ++round) {
    server.run_on_shard(0, [&] { h1.ping(ip("10.0.0.2"), 3); });
    const std::uint64_t lost_before = server.stats().sites_lost;
    ASSERT_TRUE(wait_until([&] {
      return server.stats().cross_shard_frames_in >=
             static_cast<std::uint64_t>(6 * (round + 1));
    })) << "cross-shard traffic stalled in round " << round;
    server.run_on_shard(1, [&] { fault.cut(); });
    ASSERT_TRUE(wait_until([&] {
      return server.stats().sites_rejoined > lost_before;
    })) << "site never rejoined in round " << round;
  }

  server.stop();
  EXPECT_FALSE(server.running());

  // Ownership returned to this thread: the wire still works cooperatively.
  std::size_t replies_before = 0;
  replies_before = h1.ping_replies().size();
  h1.ping(ip("10.0.0.2"), 3);
  for (int i = 0; i < 40; ++i) {
    net0.run_for(util::Duration::milliseconds(100));
    net1.run_for(util::Duration::milliseconds(100));
    server.pump_all();
  }
  EXPECT_EQ(h1.ping_replies().size() - replies_before, 3u);
  auto stats = server.stats();
  EXPECT_EQ(stats.sites_rejoined, 3u);
  EXPECT_GE(stats.cross_shard_frames_in, 24u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

/// stop() must drain queued commands and ring frames, not strand them: a
/// teardown posted just before stop still clears the far end.
TEST(ShardedThreaded, StopDrainsPostedCommandsAndRings) {
  ShardedRouteServer::Options options;
  options.shards = 2;
  ShardedRouteServer server(options);
  std::atomic<int> ran{0};
  server.start();
  for (int i = 0; i < 50; ++i) {
    server.post(i % 2, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  server.stop();
  EXPECT_EQ(ran.load(), 50);
}

}  // namespace
}  // namespace rnl
