#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>

#include "devices/host.h"
#include "devices/router.h"
#include "ris/ris.h"
#include "routeserver/routeserver.h"
#include "simnet/network.h"
#include "transport/sim_stream.h"

namespace rnl {
namespace {

using packet::Ipv4Address;
using packet::Ipv4Prefix;

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix prefix(const char* s) { return *Ipv4Prefix::parse(s); }

/// Median upper bound of only the samples recorded between two bucket
/// snapshots of a log2 histogram — the per-phase view the overload test
/// uses to compare forward latency with and without a stalled consumer. A
/// phase holds a few dozen frames, so its p99 would be its slowest frame,
/// which a single host preemption decides; the median is the typical one.
std::uint64_t phase_p50(
    const std::array<std::uint64_t, util::Histogram::kBucketCount>& before,
    const std::array<std::uint64_t, util::Histogram::kBucketCount>& after) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < before.size(); ++b) total += after[b] - before[b];
  if (total == 0) return 0;
  const std::uint64_t rank = (total + 1) / 2;  // ceil(total * 0.5)
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < before.size(); ++b) {
    seen += after[b] - before[b];
    if (seen >= rank) return util::Histogram::bucket_ceil(b);
  }
  return util::Histogram::bucket_ceil(before.size() - 1);
}

/// Lifecycle instants (drop reasons, evictions, epoch bumps) named `detail`
/// in the tracer's merged, timestamp-ordered dump.
std::vector<util::Json> instants_named(util::Tracer& tracer,
                                       const std::string& detail) {
  std::vector<util::Json> out;
  util::Json dump = tracer.to_json();
  for (const auto& e : dump["events"].as_array()) {
    if (e["detail"].as_string() == detail) out.push_back(e);
  }
  return out;
}

/// Two geographically separate sites, one host each, joined to one route
/// server — the minimal Fig 1 architecture.
class RnlStack : public ::testing::Test {
 protected:
  RnlStack()
      : server(net.scheduler()),
        site1(net, "us-west"),
        site2(net, "eu-central"),
        h1(net, "h1"),
        h2(net, "h2") {
    h1.configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
    h2.configure(prefix("10.0.0.2/24"), ip("10.0.0.254"));
    std::size_t r1 = site1.add_router(&h1, "server h1", "host.png");
    site1.map_port(r1, 0, "eth0");
    site1.attach_console(r1);
    std::size_t r2 = site2.add_router(&h2, "server h2", "host.png");
    site2.map_port(r2, 0, "eth0");
    site2.attach_console(r2);
  }

  void join(ris::RouterInterface& site, wire::NetemProfile wan = {},
            util::MetricsRegistry* link = nullptr) {
    transport::SimStreamOptions options;
    options.wan = wan;
    options.metrics = link;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net.scheduler(), options);
    server.accept(std::move(server_end));
    site.join(std::move(ris_end));
    net.run_for(util::Duration::milliseconds(500));
  }

  /// Joins through a fault-equipped tunnel. End a is the RIS side, so
  /// `fault.stall(/*toward_a=*/true, false)` freezes the *server's* egress
  /// toward this site (a zero-window consumer) while its own keepalives
  /// still reach the server.
  void join_with_fault(ris::RouterInterface& site,
                       transport::SimLinkFault& fault) {
    transport::SimStreamOptions options;
    options.fault = &fault;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net.scheduler(), options);
    server.accept(std::move(server_end));
    site.join(std::move(ris_end));
    net.run_for(util::Duration::milliseconds(500));
  }

  /// Hand-rolled wire-level site: raw transport, real JOIN, full control of
  /// chunk boundaries and epoch stamps. The decode-batch tests concatenate
  /// several encoded messages into one chunk (or split one across two) —
  /// exactly what a coalescing peer puts on the wire.
  struct RawClient {
    std::unique_ptr<transport::Transport> transport;
    wire::MessageDecoder decoder;
    std::optional<wire::JoinAck> ack;
    /// Message types in arrival order — the egress-ordering tests read this.
    std::vector<wire::MessageType> types;
  };

  /// Joins `raw` under `name` with one single-port router. `fault`, when
  /// given, is armed on the tunnel (end a is the client side, so
  /// `fault.stall(/*toward_a=*/true, false)` freezes the server's egress
  /// toward this client). `link`, when given, receives the tunnel's
  /// transport counters ("transport.sends" counts send() calls).
  void raw_join(RawClient& raw, const std::string& name,
                transport::SimLinkFault* fault = nullptr,
                util::MetricsRegistry* link = nullptr) {
    transport::SimStreamOptions options;
    options.fault = fault;
    options.metrics = link;
    auto [client, server_end] =
        transport::make_sim_stream_pair(net.scheduler(), options);
    server.accept(std::move(server_end));
    raw.transport = std::move(client);
    raw.transport->set_receive_handler([&raw](util::BytesView chunk) {
      for (const auto& view : raw.decoder.feed_views(chunk)) {
        raw.types.push_back(view.type);
        if (view.type != wire::MessageType::kJoinAck) continue;
        auto json = util::Json::parse(
            std::string(view.payload.begin(), view.payload.end()));
        if (!json.ok()) continue;
        auto parsed = wire::JoinAck::from_json(*json);
        if (parsed.ok()) raw.ack = *parsed;
      }
    });
    wire::JoinRequest request;
    request.site_name = name;
    wire::RouterDeclaration router;
    router.name = "r1";
    router.ports.emplace_back();
    router.ports.back().name = "p0";
    request.routers.push_back(router);
    std::string join_json = request.to_json().dump();
    util::ByteWriter join_frame;
    wire::encode_message_into(
        join_frame, wire::MessageType::kJoin, 0, 0,
        util::BytesView(
            reinterpret_cast<const std::uint8_t*>(join_json.data()),
            join_json.size()));
    raw.transport->send(join_frame.view());
    net.run_for(util::Duration::milliseconds(100));
  }

  /// Appends one uncompressed kData frame from `raw`'s router to `w`.
  void encode_raw_data(RawClient& raw, util::ByteWriter& w,
                       const util::Bytes& frame, std::uint8_t epoch = 0) {
    encode_raw_data_to(raw, w, raw.ack->routers[0].port_ids.at(0), frame,
                       epoch);
  }
  void encode_raw_data_to(RawClient& raw, util::ByteWriter& w,
                          wire::PortId source_port, const util::Bytes& frame,
                          std::uint8_t epoch = 0) {
    wire::encode_message_into(w, wire::MessageType::kData,
                              raw.ack->routers[0].router_id, source_port,
                              frame, /*compressed=*/false, epoch);
  }

  wire::PortId port_of(const std::string& router_name) {
    for (const auto& router : server.inventory()) {
      if (router.name == router_name) return router.ports.at(0).id;
    }
    throw std::out_of_range(router_name);
  }
  wire::RouterId router_of(const std::string& router_name) {
    for (const auto& router : server.inventory()) {
      if (router.name == router_name) return router.id;
    }
    throw std::out_of_range(router_name);
  }

  simnet::Network net{31};
  /// Transport counters for the one tunnel a test passes as `link` to
  /// join/raw_join. Declared before the server and sites so it outlives
  /// every stream end that writes to it.
  util::MetricsRegistry link_metrics;
  routeserver::RouteServer server;
  ris::RouterInterface site1;
  ris::RouterInterface site2;
  devices::Host h1;
  devices::Host h2;
};

TEST_F(RnlStack, JoinPopulatesInventoryWithUniqueIds) {
  join(site1);
  join(site2);
  EXPECT_TRUE(site1.joined());
  EXPECT_TRUE(site2.joined());
  auto inventory = server.inventory();
  ASSERT_EQ(inventory.size(), 2u);
  EXPECT_NE(inventory[0].id, inventory[1].id);
  EXPECT_NE(inventory[0].ports[0].id, inventory[1].ports[0].id);
  EXPECT_TRUE(inventory[0].has_console);
  EXPECT_EQ(server.site_count(), 2u);
}

TEST_F(RnlStack, VirtualWireCarriesPingAcrossSites) {
  join(site1);
  join(site2);
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());
  h1.ping(ip("10.0.0.2"), 5);
  net.run_for(util::Duration::seconds(3));
  EXPECT_EQ(h1.ping_replies().size(), 5u);
  EXPECT_GT(server.stats().frames_routed, 0u);
  EXPECT_GT(site1.stats().frames_up, 0u);
  EXPECT_GT(site1.stats().frames_down, 0u);
}

TEST_F(RnlStack, SteadyStateFastPathAllocatesNothing) {
  join(site1);
  join(site2);
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());
  // Warm up: ARP resolution plus enough echo traffic for the per-site send
  // buffers and decoder buffers to reach their steady-state capacity.
  h1.ping(ip("10.0.0.2"), 10);
  net.run_for(util::Duration::seconds(2));
  ASSERT_EQ(h1.ping_replies().size(), 10u);

  const auto& dp = server.stats().dataplane;
  const std::uint64_t allocs_before = dp.payload_allocs;
  const std::uint64_t fast_before = dp.fast_path_frames;
  const std::uint64_t slow_before = dp.slow_path_frames;
  const std::uint64_t routed_before = server.stats().frames_routed;
  const std::uint64_t ris_allocs_before =
      site1.stats().payload_allocs + site2.stats().payload_allocs;

  h1.ping(ip("10.0.0.2"), 50);  // one echo every 100 ms
  net.run_for(util::Duration::seconds(7));
  ASSERT_EQ(h1.ping_replies().size(), 60u);

  // 50 echo requests + 50 replies crossed the server, all on the fast path:
  // zero heap allocations on the per-frame path, server and RIS side both.
  const std::uint64_t routed = server.stats().frames_routed - routed_before;
  EXPECT_GE(routed, 100u);
  EXPECT_EQ(dp.payload_allocs - allocs_before, 0u);
  EXPECT_EQ(dp.fast_path_frames - fast_before, routed);
  EXPECT_EQ(dp.slow_path_frames - slow_before, 0u);
  EXPECT_EQ(site1.stats().payload_allocs + site2.stats().payload_allocs -
                ris_allocs_before,
            0u);
}

TEST_F(RnlStack, CaptureAndCompressionForceSlowPath) {
  join(site1);
  join(site2);
  wire::PortId p1 = port_of("us-west/h1");
  ASSERT_TRUE(server.connect_ports(p1, port_of("eu-central/h2")).ok());
  h1.ping(ip("10.0.0.2"), 5);
  net.run_for(util::Duration::seconds(2));
  ASSERT_EQ(h1.ping_replies().size(), 5u);

  // An active capture takes every frame off the fast path (it must copy).
  server.start_capture(p1);
  const auto& dp = server.stats().dataplane;
  std::uint64_t fast_before = dp.fast_path_frames;
  std::uint64_t slow_before = dp.slow_path_frames;
  h1.ping(ip("10.0.0.2"), 5);
  net.run_for(util::Duration::seconds(2));
  EXPECT_EQ(dp.fast_path_frames, fast_before);
  EXPECT_GT(dp.slow_path_frames, slow_before);
  server.stop_capture(p1);

  // So does compression (it materializes an encoded payload per frame).
  server.set_compression_enabled(true);
  site1.set_compression_enabled(true);
  site2.set_compression_enabled(true);
  fast_before = dp.fast_path_frames;
  slow_before = dp.slow_path_frames;
  std::uint64_t allocs_before = dp.payload_allocs;
  h1.ping(ip("10.0.0.2"), 5);
  net.run_for(util::Duration::seconds(2));
  ASSERT_EQ(h1.ping_replies().size(), 15u);
  EXPECT_EQ(dp.fast_path_frames, fast_before);
  EXPECT_GT(dp.slow_path_frames, slow_before);
  EXPECT_GT(dp.payload_allocs, allocs_before);
}

TEST_F(RnlStack, WanDelayShowsUpInRtt) {
  join(site1, wire::NetemProfile{.delay = util::Duration::milliseconds(50)});
  join(site2, wire::NetemProfile{.delay = util::Duration::milliseconds(50)});
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());
  h1.ping(ip("10.0.0.2"), 1);
  net.run_for(util::Duration::seconds(5));
  ASSERT_EQ(h1.ping_replies().size(), 1u);
  // Each direction crosses both site WANs: RTT >= 4 x 50 ms (ARP adds more).
  EXPECT_GE(h1.ping_replies()[0].rtt.nanos,
            util::Duration::milliseconds(200).nanos);
}

TEST_F(RnlStack, PortExclusivityEnforced) {
  join(site1);
  join(site2);
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");
  ASSERT_TRUE(server.connect_ports(p1, p2).ok());
  EXPECT_FALSE(server.connect_ports(p1, p2).ok());  // both busy
  EXPECT_FALSE(server.connect_ports(p2, p1).ok());
  EXPECT_FALSE(server.connect_ports(p1, p1).ok());
  server.disconnect_port(p1);
  EXPECT_EQ(server.wire_count(), 0u);
  EXPECT_TRUE(server.connect_ports(p1, p2).ok());
}

TEST_F(RnlStack, UnknownPortsRejected) {
  join(site1);
  EXPECT_FALSE(server.connect_ports(9999, port_of("us-west/h1")).ok());
  EXPECT_FALSE(server.inject_frame(9999, util::Bytes{1}).ok());
  // Capturing an uninventoried port is a no-op: it must neither grow the
  // dense port tables to cover arbitrary ids (a 2^31 id would allocate
  // gigabytes) nor wrap the table size to zero for UINT32_MAX.
  server.start_capture(9999);
  EXPECT_EQ(server.capture_size(9999), 0u);
  EXPECT_TRUE(server.stop_capture(9999).empty());
  server.start_capture(std::uint32_t{1} << 31);
  server.start_capture(std::numeric_limits<wire::PortId>::max());
  wire::PortId p1 = port_of("us-west/h1");
  EXPECT_TRUE(server.port_exists(p1));  // tables survived intact
  server.start_capture(p1);
  EXPECT_EQ(server.capture_size(p1), 0u);
  EXPECT_TRUE(server.stop_capture(p1).empty());
}

TEST_F(RnlStack, CaptureSeesBothDirections) {
  join(site1);
  join(site2);
  wire::PortId p1 = port_of("us-west/h1");
  ASSERT_TRUE(server.connect_ports(p1, port_of("eu-central/h2")).ok());
  server.start_capture(p1);
  h1.ping(ip("10.0.0.2"), 2);
  net.run_for(util::Duration::seconds(2));
  auto frames = server.stop_capture(p1);
  bool saw_from = false;
  bool saw_to = false;
  for (const auto& captured : frames) {
    (captured.to_port ? saw_to : saw_from) = true;
    // Every captured frame is a complete, parseable L2 frame.
    EXPECT_TRUE(packet::EthernetFrame::parse(captured.frame).ok());
  }
  EXPECT_TRUE(saw_from);
  EXPECT_TRUE(saw_to);
  EXPECT_TRUE(server.stop_capture(p1).empty());  // stopped
}

TEST_F(RnlStack, InjectDeliversIntoRouterPort) {
  join(site1);
  // No wire needed: injection targets the port directly (§2.3).
  wire::PortId p1 = port_of("us-west/h1");
  packet::EthernetFrame frame = packet::make_icmp_echo(
      packet::MacAddress::local(77), h1.mac(), ip("10.0.0.99"),
      ip("10.0.0.1"), 5, 1);
  ASSERT_TRUE(server.inject_frame(p1, frame.serialize()).ok());
  net.run_for(util::Duration::seconds(1));
  // The host tried to reply (ARP for 10.0.0.99 since no wire: up-count).
  EXPECT_GT(site1.stats().frames_up, 0u);
}

TEST_F(RnlStack, ConsoleRelayExecutesCommands) {
  join(site1);
  std::string output;
  server.set_console_output_handler(
      [&](wire::RouterId, util::BytesView bytes) {
        output.append(bytes.begin(), bytes.end());
      });
  std::string command = "show running-config\n";
  ASSERT_TRUE(server
                  .console_send(router_of("us-west/h1"),
                                util::BytesView(
                                    reinterpret_cast<const std::uint8_t*>(
                                        command.data()),
                                    command.size()))
                  .ok());
  net.run_for(util::Duration::seconds(1));
  EXPECT_NE(output.find("hostname h1"), std::string::npos);
  EXPECT_NE(output.find("h1>"), std::string::npos);  // prompt came back
}

TEST_F(RnlStack, SiteDisconnectCleansInventoryAndWires) {
  join(site1);
  join(site2);
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());
  site1.leave();
  net.run_for(util::Duration::seconds(1));
  EXPECT_EQ(server.inventory().size(), 1u);
  EXPECT_EQ(server.wire_count(), 0u);  // wire torn down with the site
  EXPECT_EQ(server.stats().sites_lost, 1u);
  // Traffic from the surviving site is dropped, not crashed.
  h2.ping(ip("10.0.0.1"), 1);
  net.run_for(util::Duration::seconds(1));
}

TEST_F(RnlStack, CompressionEndToEndTransparent) {
  site1.set_compression_enabled(true);
  server.set_compression_enabled(true);
  join(site1);
  join(site2);
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());
  // Repetitive traffic (same ping template) should compress, and still
  // arrive byte-perfect (checksums verify end to end).
  h1.ping(ip("10.0.0.2"), 20);
  net.run_for(util::Duration::seconds(5));
  EXPECT_EQ(h1.ping_replies().size(), 20u);
  EXPECT_GT(site1.compression_stats().frames_compressed, 0u);
  EXPECT_GT(site1.compression_stats().ratio(), 1.2);
}

TEST_F(RnlStack, MalformedStreamPoisonsOnlyThatSite) {
  join(site1);
  join(site2);
  // Hand the server garbage pretending to be site1's stream... we simulate
  // by a third raw connection.
  auto [attacker, server_end] =
      transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(server_end));
  util::Bytes garbage(64, 0xEE);
  attacker->send(garbage);
  net.run_for(util::Duration::seconds(1));
  EXPECT_GT(server.stats().decode_errors, 0u);
  // The legitimate sites still work.
  EXPECT_EQ(server.inventory().size(), 2u);
}

TEST_F(RnlStack, SpoofedSourcePortDropped) {
  join(site1);
  join(site2);
  wire::PortId p1 = port_of("us-west/h1");
  ASSERT_TRUE(server.connect_ports(p1, port_of("eu-central/h2")).ok());

  // An attacker opens a raw connection and — without ever joining — sends a
  // well-formed kData frame claiming site1's assigned port as its source.
  // The frame passes the framing layer and, at epoch 0, the epoch gate; the
  // ownership gate must drop it before it reaches the wire matrix.
  auto [attacker, server_end] =
      transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(server_end));
  const std::uint64_t routed_before = server.stats().frames_routed;
  wire::TunnelMessage spoof;
  spoof.type = wire::MessageType::kData;
  spoof.router_id = router_of("us-west/h1");
  spoof.port_id = p1;
  spoof.payload = util::Bytes(64, 0xAA);
  attacker->send(wire::encode_message(spoof));
  net.run_for(util::Duration::seconds(1));
  EXPECT_EQ(server.stats().spoofed_port_drops, 1u);
  EXPECT_EQ(server.stats().frames_routed, routed_before);
  EXPECT_EQ(server.stats().decode_errors, 0u);

  // A joined site spoofing another site's port id is dropped the same way,
  // even with a valid epoch stamp for its own session.
  auto [joined_spoofer, joined_end] =
      transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(joined_end));
  wire::JoinRequest hello;
  hello.site_name = "rogue";
  wire::TunnelMessage join_msg;
  join_msg.type = wire::MessageType::kJoin;
  const std::string join_payload = hello.to_json().dump();
  join_msg.payload.assign(join_payload.begin(), join_payload.end());
  joined_spoofer->send(wire::encode_message(join_msg));
  net.run_for(util::Duration::milliseconds(500));
  ASSERT_EQ(server.inventory().size(), 2u);  // rogue declared no routers
  joined_spoofer->send(wire::encode_message(spoof));
  net.run_for(util::Duration::seconds(1));
  EXPECT_EQ(server.stats().spoofed_port_drops, 2u);
  EXPECT_EQ(server.stats().frames_routed, routed_before);

  // Legitimate traffic still flows between the real sites.
  h1.ping(ip("10.0.0.2"), 1);
  net.run_for(util::Duration::seconds(2));
  EXPECT_GT(server.stats().frames_routed, routed_before);
}

// ---------------------------------------------------------------------------
// Session fault tolerance: site death, reconnect with backoff, clean rejoin
// ---------------------------------------------------------------------------

TEST_F(RnlStack, LivenessTimeoutReplaceCancelsOldSweep) {
  // Regression: each set_liveness_timeout call must cancel the previous
  // sweep loop. The old bug stacked loops, so a server reconfigured from a
  // tight timeout to a loose one kept sweeping at the tight cadence forever.
  server.set_liveness_timeout(util::Duration::seconds(1));   // sweep / 250ms
  server.set_liveness_timeout(util::Duration::seconds(10));  // sweep / 2.5s
  std::size_t events = net.run_for(util::Duration::seconds(10));
  // Only the replacement loop runs: ~4 sweeps (plus the first loop's one
  // already-scheduled tick firing as a cancelled no-op), not ~44.
  EXPECT_GE(events, 3u);
  EXPECT_LE(events, 10u);
  // Disabling cancels outright: nothing but the last loop's dead tick.
  server.set_liveness_timeout(util::Duration{});
  EXPECT_LE(net.run_for(util::Duration::seconds(10)), 1u);
}

TEST_F(RnlStack, EvictedSiteRejoinsWithSameIdsAndRestoredWires) {
  site1.set_keepalive_interval(util::Duration::seconds(3600));  // hung RIS
  site2.set_keepalive_interval(util::Duration::milliseconds(500));
  join(site1);
  join(site2);
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");
  wire::RouterId r1 = router_of("us-west/h1");
  ASSERT_TRUE(server.connect_ports(p1, p2).ok());

  // Site 1 goes silent past the liveness timeout: evicted, but its identity
  // and the deployed wire survive for a rejoin.
  server.set_liveness_timeout(util::Duration::seconds(2));
  net.run_for(util::Duration::seconds(4));
  EXPECT_EQ(server.stats().sites_lost, 1u);
  EXPECT_EQ(server.inventory().size(), 1u);  // parked, not listed
  EXPECT_FALSE(server.port_exists(p1));
  EXPECT_EQ(server.wire_count(), 1u);  // the matrix entry was NOT torn down
  EXPECT_FALSE(site1.joined());        // server closed the tunnel

  server.set_liveness_timeout(util::Duration{});
  auto [ris_end, server_end] =
      transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(server_end));
  site1.join(std::move(ris_end));
  net.run_for(util::Duration::seconds(1));

  ASSERT_TRUE(site1.joined());
  EXPECT_EQ(site1.session_epoch(), 1u);
  EXPECT_EQ(server.stats().sites_rejoined, 1u);
  EXPECT_EQ(server.stats().matrix_entries_restored, 1u);
  EXPECT_EQ(port_of("us-west/h1"), p1);  // same ids as the first session
  EXPECT_EQ(router_of("us-west/h1"), r1);
  EXPECT_EQ(server.inventory().size(), 2u);
  // The surviving wire carries traffic with no reconfiguration.
  h1.ping(ip("10.0.0.2"), 3);
  net.run_for(util::Duration::seconds(2));
  EXPECT_EQ(h1.ping_replies().size(), 3u);
}

TEST_F(RnlStack, KillAndRejoinTenTimesMidTraffic) {
  // The acceptance scenario: the site's WAN link dies mid-traffic ten times;
  // each time the RIS redials within its backoff budget, rejoins as the same
  // identity at a fresh epoch, and the deployed wire keeps working.
  transport::SimLinkFault fault;
  auto dial = [&]() -> std::unique_ptr<transport::Transport> {
    transport::SimStreamOptions options;
    options.fault = &fault;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net.scheduler(), options);
    server.accept(std::move(server_end));
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
  join(site2);
  net.run_for(util::Duration::milliseconds(500));
  ASSERT_TRUE(site1.joined());
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());

  for (int round = 0; round < 10; ++round) {
    h1.ping(ip("10.0.0.2"), 5);  // traffic in flight when the link dies
    net.run_for(util::Duration::milliseconds(130 + 41 * round));
    fault.cut();
    // Worst case within the policy: 8 attempts, 100ms * 2^n capped at 1s,
    // +/-20% jitter — comfortably under 3 s when the first dial succeeds.
    net.run_for(util::Duration::seconds(3));
    ASSERT_TRUE(site1.joined()) << "round " << round;
  }

  EXPECT_EQ(fault.cuts(), 10u);
  EXPECT_EQ(site1.stats().reconnects, 10u);
  EXPECT_EQ(site1.stats().reconnect_giveups, 0u);
  EXPECT_EQ(site1.session_epoch(), 10u);
  EXPECT_EQ(server.stats().sites_rejoined, 10u);
  EXPECT_EQ(server.stats().sites_lost, 10u);
  EXPECT_EQ(server.stats().decode_errors, 0u);
  EXPECT_EQ(site1.stats().decode_errors, 0u);

  // After the last rejoin the wire still round-trips a full burst.
  std::size_t replies_before = h1.ping_replies().size();
  h1.ping(ip("10.0.0.2"), 5);
  net.run_for(util::Duration::seconds(3));
  EXPECT_EQ(h1.ping_replies().size() - replies_before, 5u);

  // The dump tells the same story as the structs (reconnects and stale-epoch
  // accounting come from the same single-writer ledgers).
  auto dump = server.metrics().to_json();
  EXPECT_EQ(dump["counters"]["routeserver.sites_rejoined"].as_int(), 10);
  EXPECT_EQ(dump["counters"]["ris.us-west.reconnects"].as_int(), 10);
  EXPECT_EQ(dump["counters"]["routeserver.stale_epoch_drops"].as_int(),
            static_cast<std::int64_t>(server.stats().stale_epoch_drops));
}

TEST_F(RnlStack, ReconnectGivesUpAfterTheAttemptBudget) {
  transport::SimLinkFault fault;
  transport::SimStreamOptions options;
  options.fault = &fault;
  auto [ris_end, server_end] =
      transport::make_sim_stream_pair(net.scheduler(), options);
  server.accept(std::move(server_end));
  ris::ReconnectPolicy policy;
  policy.initial_backoff = util::Duration::milliseconds(100);
  policy.max_backoff = util::Duration::milliseconds(400);
  policy.max_attempts = 3;
  site1.set_reconnect_policy(policy);
  site1.set_transport_factory([] { return nullptr; });  // server unreachable
  site1.join(std::move(ris_end));
  net.run_for(util::Duration::milliseconds(500));
  ASSERT_TRUE(site1.joined());

  fault.cut();
  net.run_for(util::Duration::seconds(10));
  EXPECT_FALSE(site1.joined());
  EXPECT_EQ(site1.stats().reconnect_failures, 3u);
  EXPECT_EQ(site1.stats().reconnect_giveups, 1u);
  EXPECT_EQ(site1.stats().reconnects, 0u);
}

TEST_F(RnlStack, StaleEpochFramesAreCountedAndDroppedAtTheGate) {
  join(site2);
  wire::PortId p2 = port_of("eu-central/h2");

  // A hand-rolled site: raw connection, real JOIN, then kData with a forged
  // session epoch — the wire-level shape of a dead incarnation's late
  // traffic arriving after its name rejoined.
  auto [client, server_end] = transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(server_end));
  wire::MessageDecoder decoder;
  std::optional<wire::JoinAck> ack;
  client->set_receive_handler([&](util::BytesView chunk) {
    for (const auto& view : decoder.feed_views(chunk)) {
      if (view.type != wire::MessageType::kJoinAck) continue;
      auto json = util::Json::parse(
          std::string(view.payload.begin(), view.payload.end()));
      ASSERT_TRUE(json.ok());
      auto parsed = wire::JoinAck::from_json(*json);
      ASSERT_TRUE(parsed.ok());
      ack = *parsed;
    }
  });
  wire::JoinRequest request;
  request.site_name = "crafty";
  wire::RouterDeclaration router;
  router.name = "r1";
  router.ports.emplace_back();
  router.ports.back().name = "p0";
  request.routers.push_back(router);
  std::string join_json = request.to_json().dump();
  util::ByteWriter join_frame;
  wire::encode_message_into(
      join_frame, wire::MessageType::kJoin, 0, 0,
      util::BytesView(reinterpret_cast<const std::uint8_t*>(join_json.data()),
                      join_json.size()));
  client->send(join_frame.view());
  net.run_for(util::Duration::milliseconds(100));
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->epoch, 0u);  // first session under this name
  ASSERT_EQ(ack->routers.size(), 1u);
  wire::PortId crafted_port = ack->routers[0].port_ids.at(0);
  ASSERT_TRUE(server.connect_ports(crafted_port, p2).ok());
  server.start_capture(p2);

  util::Bytes frame(64, 0xAB);
  auto send_with_epoch = [&](std::uint8_t epoch) {
    util::ByteWriter w;
    wire::encode_message_into(w, wire::MessageType::kData,
                              ack->routers[0].router_id, crafted_port, frame,
                              /*compressed=*/false, epoch);
    client->send(w.view());
    net.run_for(util::Duration::milliseconds(50));
  };

  const std::uint64_t routed_before = server.stats().frames_routed;
  // Wrong epoch: counted and dropped before the matrix, the compression
  // rings, and the user port.
  send_with_epoch(3);
  EXPECT_EQ(server.stats().stale_epoch_drops, 1u);
  EXPECT_EQ(server.stats().frames_routed, routed_before);
  EXPECT_EQ(server.capture_size(p2), 0u);
  // The current epoch routes normally.
  send_with_epoch(0);
  EXPECT_EQ(server.stats().frames_routed, routed_before + 1);
  EXPECT_EQ(server.capture_size(p2), 1u);
  EXPECT_EQ(server.stats().stale_epoch_drops, 1u);
  EXPECT_EQ(server.stats().decode_errors, 0u);
}

TEST_F(RnlStack, RejoinUnderLiveNameSupersedesTheZombieSession) {
  join(site1);
  join(site2);
  wire::PortId p1 = port_of("us-west/h1");
  ASSERT_TRUE(server.connect_ports(p1, port_of("eu-central/h2")).ok());

  // The "same" site dials in again — the RIS host rebooted, but the old TCP
  // session never got a FIN and still looks established to the server. The
  // new JOIN must win; the zombie must not keep the identity hostage.
  devices::Host h1b(net, "h1");
  h1b.configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
  ris::RouterInterface replacement(net, "us-west");
  std::size_t r = replacement.add_router(&h1b, "server h1", "host.png");
  replacement.map_port(r, 0, "eth0");
  replacement.attach_console(r);
  join(replacement);

  EXPECT_TRUE(replacement.joined());
  EXPECT_EQ(replacement.session_epoch(), 1u);
  EXPECT_EQ(server.stats().sites_rejoined, 1u);
  EXPECT_EQ(server.stats().sites_lost, 1u);  // the zombie
  EXPECT_EQ(server.inventory().size(), 2u);
  EXPECT_EQ(port_of("us-west/h1"), p1);  // identity preserved
  EXPECT_EQ(server.wire_count(), 1u);    // deployed wire survived
  EXPECT_FALSE(site1.joined());          // old session was closed under it

  // Traffic now reaches the replacement's device over the surviving wire.
  h1b.ping(ip("10.0.0.2"), 3);
  net.run_for(util::Duration::seconds(2));
  EXPECT_EQ(h1b.ping_replies().size(), 3u);
}

TEST_F(RnlStack, RejoinAfterOrderlyLeaveAndPurgeStartsTheNextEpoch) {
  // The name's registry entry outlives the session that left in order; by
  // the time the name joins again, another connection's accept has freed
  // that session. The JOIN must find no live session to supersede (ASan
  // catches any read of the freed one).
  join(site1);
  join(site2);
  site1.leave();
  net.run_for(util::Duration::milliseconds(500));
  ASSERT_EQ(server.stats().sites_lost, 1u);
  ASSERT_EQ(server.site_count(), 2u);  // the departed session, not yet freed

  RawClient other;
  raw_join(other, "branch");  // its accept frees the departed session
  ASSERT_TRUE(other.ack.has_value());
  EXPECT_EQ(server.site_count(), 2u);

  join(site1);
  ASSERT_TRUE(site1.joined());
  EXPECT_EQ(site1.session_epoch(), 1u);
  EXPECT_EQ(server.stats().sites_lost, 1u);      // the leave, no supersession
  EXPECT_EQ(server.stats().sites_rejoined, 0u);  // a leave retains no ids
  EXPECT_EQ(server.stats().decode_errors, 0u);
  EXPECT_EQ(server.inventory().size(), 3u);
}

TEST_F(RnlStack, ReconnectAfterMapPortDeclaresTheNewPort) {
  // A port mapped after the first join changes the declared inventory, so
  // the reconnect JOIN must carry it: the retained shape no longer
  // matches, and the server assigns fresh ids covering both ports.
  transport::SimLinkFault fault;
  auto dial = [&]() -> std::unique_ptr<transport::Transport> {
    transport::SimStreamOptions options;
    options.fault = &fault;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net.scheduler(), options);
    server.accept(std::move(server_end));
    return std::move(ris_end);
  };
  devices::Ipv4Router device(net, "edge", 2);
  ris::RouterInterface lab(net, "lab");
  const std::size_t r = lab.add_router(&device, "edge router", "edge.png");
  lab.map_port(r, 0, "uplink");
  ris::ReconnectPolicy policy;
  policy.initial_backoff = util::Duration::milliseconds(100);
  policy.jitter = 0;
  lab.set_reconnect_policy(policy);
  lab.set_transport_factory(dial);
  lab.join(dial());
  net.run_for(util::Duration::milliseconds(500));
  ASSERT_TRUE(lab.joined());
  const wire::RouterId first_id = router_of("lab/edge");

  lab.map_port(r, 1, "downlink");
  fault.cut();
  net.run_for(util::Duration::seconds(1));
  ASSERT_TRUE(lab.joined());
  EXPECT_EQ(lab.session_epoch(), 1u);
  EXPECT_EQ(lab.stats().reconnects, 1u);
  EXPECT_EQ(lab.stats().decode_errors, 0u);  // the ack covers both ports
  EXPECT_EQ(server.stats().sites_rejoined, 0u);
  auto router = server.find_router(router_of("lab/edge"));
  ASSERT_TRUE(router.has_value());
  EXPECT_NE(router->id, first_id);
  ASSERT_EQ(router->ports.size(), 2u);
  EXPECT_EQ(router->ports[0].description, "uplink");
  EXPECT_EQ(router->ports[1].description, "downlink");
}

// ---------------------------------------------------------------------------
// Overload protection: bounded egress, priority shedding, slow-consumer
// eviction (ROADMAP: a stalled RIS must not exhaust the shared route server)
// ---------------------------------------------------------------------------

TEST_F(RnlStack, StalledConsumerIsShedBoundedEvictedAndRejoinsCleanly) {
  // The acceptance scenario: site3 wedges (zero-window tunnel) while the
  // healthy site1<->site2 pair keeps carrying traffic. The server must (a)
  // bound the memory parked for site3 under the hard cap, (b) never shed
  // control, (c) keep forward latency for the healthy pair unchanged, and
  // (d) evict site3 at the stall deadline so it can rejoin cleanly. The
  // server's tracer keeps the story as lifecycle instants.
  util::Tracer tracer;
  tracer.set_enabled(true);
  server.set_tracer(&tracer);
  devices::Host h3(net, "h3");
  h3.configure(prefix("10.0.0.3/24"), ip("10.0.0.254"));
  ris::RouterInterface site3(net, "ap-south");
  std::size_t r3 = site3.add_router(&h3, "server h3", "host.png");
  site3.map_port(r3, 0, "eth0");
  site3.attach_console(r3);
  site1.set_keepalive_interval(util::Duration::milliseconds(250));
  site2.set_keepalive_interval(util::Duration::milliseconds(250));
  site3.set_keepalive_interval(util::Duration::milliseconds(250));

  constexpr std::size_t kHigh = 32 * 1024;
  constexpr std::size_t kHardCap = 96 * 1024;
  server.set_egress_watermarks(kHigh, 8 * 1024);
  server.set_egress_hard_cap(kHardCap);
  server.set_stall_deadline(util::Duration::seconds(2));

  join(site1);
  join(site2);
  transport::SimLinkFault fault;
  join_with_fault(site3, fault);
  ASSERT_TRUE(site3.joined());
  wire::PortId p3 = port_of("ap-south/h3");
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());
  // Liveness on only after all three joins: its sweep doubles as the stall
  // deadline check, and site3's keepalives must keep it off the silent list.
  server.set_liveness_timeout(util::Duration::seconds(1));

  // Baseline phase: forward p50 for the healthy pair, nobody stalled.
  const util::Histogram& forward =
      server.metrics().histogram("routeserver.forward_ns");
  auto baseline_start = forward.buckets();
  h1.ping(ip("10.0.0.2"), 10);
  net.run_for(util::Duration::seconds(2));
  ASSERT_EQ(h1.ping_replies().size(), 10u);
  const std::uint64_t baseline_p50 = phase_p50(baseline_start,
                                               forward.buckets());
  ASSERT_GT(baseline_p50, 0u);

  // Stall the server->site3 direction and flood data toward site3 while the
  // healthy pair's pings run concurrently.
  fault.stall(/*toward_a=*/true, /*toward_b=*/false);
  auto stall_start = forward.buckets();
  h1.ping(ip("10.0.0.2"), 15);
  const util::Bytes junk(1400, 0xAA);
  for (int i = 0; i < 200 && !server.overloaded(); ++i) {
    ASSERT_TRUE(server.inject_frame(p3, junk).ok());
    net.run_for(util::Duration::milliseconds(10));
  }
  ASSERT_TRUE(server.overloaded());
  EXPECT_EQ(server.sites_shedding(), 1u);
  EXPECT_EQ(server.stats().shed_entries, 1u);

  // (b) Control toward the shed site defers — it is never shed.
  std::string command = "show version\n";
  ASSERT_TRUE(server
                  .console_send(router_of("ap-south/h3"),
                                util::BytesView(
                                    reinterpret_cast<const std::uint8_t*>(
                                        command.data()),
                                    command.size()))
                  .ok());
  EXPECT_EQ(server.stats().control_frames_deferred, 1u);

  // Keep flooding past the stall deadline, tracking the parked memory.
  std::size_t peak_queued = 0;
  for (int i = 0; i < 400 && server.stats().stalled_evictions == 0; ++i) {
    (void)server.inject_frame(p3, junk);
    net.run_for(util::Duration::milliseconds(10));
    if (server.stats().stalled_evictions == 0 && site3.joined()) {
      util::Json gauges = server.metrics().to_json()["gauges"];
      peak_queued = std::max(
          peak_queued,
          static_cast<std::size_t>(
              gauges["routeserver.site.ap-south.egress_queued_bytes"]
                  .as_int()));
    }
  }

  // (d) Evicted for stalling — not for the hard cap, and NOT by the liveness
  // sweep: its keepalives kept arriving the whole time (timeout 1 s < the
  // 2 s stall deadline, so a false liveness eviction would have come first).
  EXPECT_EQ(server.stats().stalled_evictions, 1u);
  EXPECT_EQ(server.stats().hard_cap_evictions, 0u);
  EXPECT_EQ(server.stats().sites_lost, 1u);
  EXPECT_GT(server.stats().shed_data_frames, 50u);
  // (a) The parked memory crossed the watermark but stayed under the cap:
  // shedding held the line long before eviction.
  EXPECT_GE(peak_queued, kHigh);
  EXPECT_LE(peak_queued, kHardCap);
  net.run_for(util::Duration::milliseconds(500));
  EXPECT_FALSE(site3.joined());
  EXPECT_EQ(server.inventory().size(), 2u);  // parked, not listed

  // (c) The healthy pair never noticed: every ping completed and its
  // typical stall-phase forward is in the same band as the baseline's.
  net.run_for(util::Duration::seconds(2));
  EXPECT_EQ(h1.ping_replies().size(), 25u);
  const std::uint64_t stall_p50 = phase_p50(stall_start, forward.buckets());
  EXPECT_GT(stall_p50, 0u);
  EXPECT_LE(stall_p50,
            std::max<std::uint64_t>(baseline_p50 * 8, 20'000));

  // The tracer kept the story: shed drops toward p3, then one eviction.
  const auto sheds = instants_named(tracer, "shed_drop");
  const auto evictions = instants_named(tracer, "eviction");
  ASSERT_FALSE(sheds.empty());
  ASSERT_EQ(evictions.size(), 1u);
  EXPECT_EQ(sheds.front()["arg"].as_int(), static_cast<std::int64_t>(p3));
  EXPECT_LT(sheds.front()["ts_ns"].as_int(), evictions[0]["ts_ns"].as_int());

  // (d) Clean rejoin through the epoch machinery, same identity.
  server.set_liveness_timeout(util::Duration{});
  auto [ris_end, server_end] =
      transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(server_end));
  site3.join(std::move(ris_end));
  net.run_for(util::Duration::seconds(1));
  ASSERT_TRUE(site3.joined());
  EXPECT_EQ(site3.session_epoch(), 1u);
  EXPECT_EQ(server.stats().sites_rejoined, 1u);
  EXPECT_EQ(port_of("ap-south/h3"), p3);  // identity preserved
  EXPECT_EQ(server.inventory().size(), 3u);
  EXPECT_FALSE(server.overloaded());
  EXPECT_EQ(server.sites_shedding(), 0u);
}

TEST_F(RnlStack, ShedSiteRecoversAndDeferredControlIsDelivered) {
  // A stall that clears before the deadline: data is shed while it lasts,
  // control is deferred, and the priority flush delivers the control frame
  // the moment the transport drains — nothing control was ever dropped.
  server.set_egress_watermarks(16 * 1024, 4 * 1024);
  server.set_stall_deadline(util::Duration::seconds(60));
  transport::SimLinkFault fault;
  join_with_fault(site1, fault);
  join(site2);
  ASSERT_TRUE(site1.joined());
  wire::PortId p1 = port_of("us-west/h1");
  std::string output;
  server.set_console_output_handler(
      [&](wire::RouterId, util::BytesView bytes) {
        output.append(bytes.begin(), bytes.end());
      });

  fault.stall(/*toward_a=*/true, /*toward_b=*/false);
  const util::Bytes junk(1400, 0xAA);
  for (int i = 0; i < 50 && !server.overloaded(); ++i) {
    ASSERT_TRUE(server.inject_frame(p1, junk).ok());
    net.run_for(util::Duration::milliseconds(5));
  }
  ASSERT_TRUE(server.overloaded());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.inject_frame(p1, junk).ok());
  }
  EXPECT_GE(server.stats().shed_data_frames, 5u);

  // The console command parks behind the stall instead of being shed.
  std::string command = "show running-config\n";
  ASSERT_TRUE(server
                  .console_send(router_of("us-west/h1"),
                                util::BytesView(
                                    reinterpret_cast<const std::uint8_t*>(
                                        command.data()),
                                    command.size()))
                  .ok());
  EXPECT_EQ(server.stats().control_frames_deferred, 1u);
  net.run_for(util::Duration::milliseconds(200));
  EXPECT_TRUE(output.empty());  // stalled: nothing reached the device yet

  // The consumer wakes up: parked chunks flush, the drain callback runs the
  // priority flush, and the deferred command executes on the device.
  fault.resume();
  net.run_for(util::Duration::seconds(1));
  EXPECT_FALSE(server.overloaded());
  EXPECT_EQ(server.sites_shedding(), 0u);
  EXPECT_NE(output.find("hostname h1"), std::string::npos);
  EXPECT_EQ(server.stats().stalled_evictions, 0u);
  EXPECT_EQ(server.stats().hard_cap_evictions, 0u);
  EXPECT_TRUE(site1.joined());  // shed, drained, never evicted
}

TEST_F(RnlStack, DecodeBatchHandlesPartialFrameAtTheChunkBoundary) {
  // A coalescing peer puts N whole frames in one write, but TCP segmentation
  // may still tear the last frame across two readable events. The batch
  // decode must route every complete frame immediately and hold the torn
  // tail for the next chunk — no error, no frame lost, no frame doubled.
  join(site2);
  wire::PortId p2 = port_of("eu-central/h2");
  RawClient raw;
  raw_join(raw, "crafty");
  ASSERT_TRUE(raw.ack.has_value());
  ASSERT_TRUE(
      server.connect_ports(raw.ack->routers[0].port_ids.at(0), p2).ok());

  const util::Histogram& decode_batches =
      server.metrics().histogram("routeserver.decode_batch_frames");
  const std::uint64_t batches_before = decode_batches.count();
  const std::uint64_t routed_before = server.stats().frames_routed;
  const std::uint64_t down_before = site2.stats().frames_down;

  util::ByteWriter batch;
  encode_raw_data(raw, batch, util::Bytes(64, 0x11));
  encode_raw_data(raw, batch, util::Bytes(64, 0x22));
  util::ByteWriter third;
  encode_raw_data(raw, third, util::Bytes(64, 0x33));
  const std::size_t split = third.view().size() / 2;
  util::Bytes first_chunk(batch.view().begin(), batch.view().end());
  first_chunk.insert(first_chunk.end(), third.view().begin(),
                     third.view().begin() + split);
  raw.transport->send(first_chunk);
  net.run_for(util::Duration::milliseconds(50));

  // Two complete frames routed as one decode batch; the torn tail waits.
  EXPECT_EQ(server.stats().frames_routed, routed_before + 2);
  EXPECT_EQ(decode_batches.count(), batches_before + 1);
  EXPECT_EQ(server.stats().decode_errors, 0u);

  raw.transport->send(util::BytesView(third.view().data() + split,
                                      third.view().size() - split));
  net.run_for(util::Duration::milliseconds(200));
  EXPECT_EQ(server.stats().frames_routed, routed_before + 3);
  EXPECT_EQ(decode_batches.count(), batches_before + 2);
  EXPECT_EQ(server.stats().decode_errors, 0u);
  // All three arrived whole at the destination site.
  EXPECT_EQ(site2.stats().frames_down, down_before + 3);
  EXPECT_EQ(site2.stats().decode_errors, 0u);
}

TEST_F(RnlStack, StaleEpochFrameMidDecodeBatchDropsWithoutTearingTheBatch) {
  // One coalesced chunk carrying good frames around a stale-epoch frame and
  // a spoofed-port frame: both bad frames drop at their gates mid-batch,
  // the good frames around them route, and nothing downstream tears.
  join(site2);
  wire::PortId p2 = port_of("eu-central/h2");
  RawClient raw;
  raw_join(raw, "crafty");
  ASSERT_TRUE(raw.ack.has_value());
  ASSERT_TRUE(
      server.connect_ports(raw.ack->routers[0].port_ids.at(0), p2).ok());

  const std::uint64_t routed_before = server.stats().frames_routed;
  const std::uint64_t stale_before = server.stats().stale_epoch_drops;
  const std::uint64_t spoofed_before = server.stats().spoofed_port_drops;
  const std::uint64_t down_before = site2.stats().frames_down;

  util::ByteWriter batch;
  encode_raw_data(raw, batch, util::Bytes(64, 0x01));
  encode_raw_data(raw, batch, util::Bytes(64, 0x02), /*epoch=*/3);  // stale
  encode_raw_data(raw, batch, util::Bytes(64, 0x03));
  // Sourced from site2's port — spoofed: a port this site does not own.
  encode_raw_data_to(raw, batch, p2, util::Bytes(64, 0x04));
  encode_raw_data(raw, batch, util::Bytes(64, 0x05));
  raw.transport->send(batch.view());
  net.run_for(util::Duration::milliseconds(200));

  EXPECT_EQ(server.stats().frames_routed, routed_before + 3);
  EXPECT_EQ(server.stats().stale_epoch_drops, stale_before + 1);
  EXPECT_EQ(server.stats().spoofed_port_drops, spoofed_before + 1);
  EXPECT_EQ(server.stats().decode_errors, 0u);
  EXPECT_EQ(site2.stats().frames_down, down_before + 3);
  EXPECT_EQ(site2.stats().decode_errors, 0u);
}

TEST_F(RnlStack, WatermarkCrossedMidFlushShedsWholeFramesOnly) {
  // A decode batch big enough to push the destination's egress over the
  // high watermark mid-flush: the batch flushes early the moment the
  // watermark is crossed, the remaining frames shed per-frame, and every
  // frame that was accepted arrives whole — batching never splits a frame.
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  server.set_stall_deadline(util::Duration::seconds(60));
  transport::SimLinkFault fault;
  join_with_fault(site1, fault);
  ASSERT_TRUE(site1.joined());
  wire::PortId p1 = port_of("us-west/h1");
  RawClient raw;
  raw_join(raw, "crafty");
  ASSERT_TRUE(raw.ack.has_value());
  ASSERT_TRUE(
      server.connect_ports(raw.ack->routers[0].port_ids.at(0), p1).ok());

  const std::uint64_t shed_before = server.stats().shed_data_frames;
  const std::uint64_t flushes_before = server.stats().dataplane.egress_flushes;
  const std::uint64_t down_before = site1.stats().frames_down;

  // Freeze the server->site1 direction, then deliver 16 x 1420B frames in
  // ONE chunk: the batch crosses 8 KiB around the sixth frame, flushes, and
  // the rest shed against the now-parked egress.
  fault.stall(/*toward_a=*/true, /*toward_b=*/false);
  util::ByteWriter batch;
  for (int i = 0; i < 16; ++i) {
    encode_raw_data(raw, batch, util::Bytes(1400, 0xAA));
  }
  raw.transport->send(batch.view());
  net.run_for(util::Duration::milliseconds(100));

  const std::uint64_t shed = server.stats().shed_data_frames - shed_before;
  EXPECT_GE(shed, 5u);
  EXPECT_LT(shed, 16u);  // the pre-watermark frames were accepted
  EXPECT_GE(server.stats().dataplane.egress_flushes, flushes_before + 1);
  EXPECT_EQ(server.sites_shedding(), 1u);

  // The consumer wakes up: every accepted frame arrives intact — a split
  // frame would be a decode error at the site.
  fault.resume();
  net.run_for(util::Duration::seconds(1));
  EXPECT_EQ(site1.stats().frames_down, down_before + (16 - shed));
  EXPECT_EQ(site1.stats().decode_errors, 0u);
  EXPECT_EQ(server.stats().stalled_evictions, 0u);
  EXPECT_TRUE(site1.joined());
  EXPECT_EQ(server.sites_shedding(), 0u);
}

TEST_F(RnlStack, DeferredControlUnderBatchingFollowsParkedData) {
  // Deferred-control ordering under batching: data already accepted into
  // coalesced writes drains first, the deferred control frame follows on
  // the drain callback — priority never overtakes parked data, and the
  // receiver sees whole frames in order.
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  server.set_stall_deadline(util::Duration::seconds(60));
  transport::SimLinkFault fault;
  RawClient dst;
  raw_join(dst, "dst", &fault);
  ASSERT_TRUE(dst.ack.has_value());
  RawClient src;
  raw_join(src, "src");
  ASSERT_TRUE(src.ack.has_value());
  ASSERT_TRUE(server
                  .connect_ports(src.ack->routers[0].port_ids.at(0),
                                 dst.ack->routers[0].port_ids.at(0))
                  .ok());
  dst.types.clear();  // drop the JoinAck; watch only the stalled phase

  // Freeze server->dst, then forward five frames in one coalesced write
  // (under the watermark: parked, not shed) ...
  fault.stall(/*toward_a=*/true, /*toward_b=*/false);
  util::ByteWriter first;
  for (int i = 0; i < 5; ++i) {
    encode_raw_data(src, first, util::Bytes(1400, 0xBB));
  }
  src.transport->send(first.view());
  net.run_for(util::Duration::milliseconds(50));

  // ... then a second batch that crosses the watermark: one more frame is
  // accepted (flushed alone, whole), the rest shed.
  util::ByteWriter second;
  for (int i = 0; i < 5; ++i) {
    encode_raw_data(src, second, util::Bytes(1400, 0xCC));
  }
  src.transport->send(second.view());
  net.run_for(util::Duration::milliseconds(50));
  ASSERT_EQ(server.sites_shedding(), 1u);
  const std::uint64_t accepted =
      10 - (server.stats().shed_data_frames);

  // Control toward the shed site defers instead of jumping the queue.
  std::string command = "show version\n";
  ASSERT_TRUE(server
                  .console_send(dst.ack->routers[0].router_id,
                                util::BytesView(
                                    reinterpret_cast<const std::uint8_t*>(
                                        command.data()),
                                    command.size()))
                  .ok());
  EXPECT_EQ(server.stats().control_frames_deferred, 1u);
  EXPECT_TRUE(dst.types.empty());  // stalled: nothing arrived yet

  fault.resume();
  net.run_for(util::Duration::seconds(1));
  // Every accepted data frame drains (other parked control — e.g. an
  // inventory update — may ride along), and the deferred console frame
  // comes AFTER the last data frame: priority never overtakes parked data.
  std::size_t data_seen = 0;
  std::size_t last_data = 0;
  std::size_t console_at = 0;
  std::size_t console_seen = 0;
  for (std::size_t i = 0; i < dst.types.size(); ++i) {
    if (dst.types[i] == wire::MessageType::kData) {
      ++data_seen;
      last_data = i;
    } else if (dst.types[i] == wire::MessageType::kConsoleData) {
      ++console_seen;
      console_at = i;
    }
  }
  EXPECT_EQ(data_seen, accepted);
  ASSERT_EQ(console_seen, 1u);
  EXPECT_GT(console_at, last_data);
  EXPECT_FALSE(dst.decoder.failed());
  EXPECT_EQ(server.sites_shedding(), 0u);
}

TEST_F(RnlStack, EgressCoalescingLedgerCountsFlushesAndCoalescedFrames) {
  // Observability of the fast path itself: a four-frame decode batch ends
  // in ONE egress flush carrying four frames — three writes avoided, and
  // both batch histograms record it.
  join(site2);
  wire::PortId p2 = port_of("eu-central/h2");
  RawClient raw;
  raw_join(raw, "crafty");
  ASSERT_TRUE(raw.ack.has_value());
  ASSERT_TRUE(
      server.connect_ports(raw.ack->routers[0].port_ids.at(0), p2).ok());

  const util::Histogram& egress_batches =
      server.metrics().histogram("routeserver.egress_batch_frames");
  const std::uint64_t flushes_before = server.stats().dataplane.egress_flushes;
  const std::uint64_t coalesced_before =
      server.stats().dataplane.frames_coalesced;
  const std::uint64_t egress_count_before = egress_batches.count();

  util::ByteWriter batch;
  for (int i = 0; i < 4; ++i) {
    encode_raw_data(raw, batch, util::Bytes(256, 0x5A));
  }
  raw.transport->send(batch.view());
  net.run_for(util::Duration::milliseconds(200));

  EXPECT_EQ(server.stats().dataplane.egress_flushes, flushes_before + 1);
  EXPECT_EQ(server.stats().dataplane.frames_coalesced, coalesced_before + 3);
  EXPECT_EQ(egress_batches.count(), egress_count_before + 1);
  EXPECT_EQ(site2.stats().frames_down, 4u);
  EXPECT_EQ(site2.stats().decode_errors, 0u);
}

TEST_F(RnlStack, ControlResidueNeverReplaysAtTheHeadOfABatch) {
  // Regression: send_control serializes into the site's shared send buffer
  // and leaves the encoded frame behind on both its send and defer paths.
  // Opening the next egress batch must clear that residue, or the control
  // frame — the JoinAck after join, a console frame later — is re-sent at
  // the head of the site's next coalesced data write.
  RawClient dst;
  raw_join(dst, "dst");
  ASSERT_TRUE(dst.ack.has_value());
  RawClient src;
  raw_join(src, "src");
  ASSERT_TRUE(src.ack.has_value());
  ASSERT_TRUE(server
                  .connect_ports(src.ack->routers[0].port_ids.at(0),
                                 dst.ack->routers[0].port_ids.at(0))
                  .ok());
  net.run_for(util::Duration::milliseconds(50));
  dst.types.clear();  // the JoinAck has been consumed

  // First coalesced batch after the JoinAck: data frames only.
  util::ByteWriter first;
  for (int i = 0; i < 4; ++i) {
    encode_raw_data(src, first, util::Bytes(256, 0xA1));
  }
  src.transport->send(first.view());
  net.run_for(util::Duration::milliseconds(100));
  ASSERT_EQ(dst.types.size(), 4u);
  for (wire::MessageType type : dst.types) {
    EXPECT_EQ(type, wire::MessageType::kData);
  }

  // A console frame between batches arrives exactly once, and the batch
  // that follows it again carries only data.
  dst.types.clear();
  std::string command = "show version\n";
  ASSERT_TRUE(server
                  .console_send(dst.ack->routers[0].router_id,
                                util::BytesView(
                                    reinterpret_cast<const std::uint8_t*>(
                                        command.data()),
                                    command.size()))
                  .ok());
  net.run_for(util::Duration::milliseconds(50));
  util::ByteWriter second;
  for (int i = 0; i < 4; ++i) {
    encode_raw_data(src, second, util::Bytes(256, 0xB2));
  }
  src.transport->send(second.view());
  net.run_for(util::Duration::milliseconds(100));
  std::size_t console_seen = 0;
  std::size_t data_seen = 0;
  for (wire::MessageType type : dst.types) {
    if (type == wire::MessageType::kConsoleData) ++console_seen;
    if (type == wire::MessageType::kData) ++data_seen;
  }
  EXPECT_EQ(console_seen, 1u);
  EXPECT_EQ(data_seen, 4u);
  EXPECT_EQ(dst.types.size(), 5u);
  EXPECT_FALSE(dst.decoder.failed());
}

TEST_F(RnlStack, EgressBurstIsOneWriteAndOneFlushSpanForItsFirstTrace) {
  // A four-frame decode batch of traced frames leaves the server as one
  // write. Its single egress_flush span is attributed to the batch's first
  // traced frame and carries the frame count.
  util::Tracer tracer;
  tracer.set_enabled(true);
  server.set_tracer(&tracer);
  RawClient dst;
  raw_join(dst, "dst", nullptr, &link_metrics);
  ASSERT_TRUE(dst.ack.has_value());
  RawClient src;
  raw_join(src, "src");
  ASSERT_TRUE(src.ack.has_value());
  ASSERT_TRUE(server
                  .connect_ports(src.ack->routers[0].port_ids.at(0),
                                 dst.ack->routers[0].port_ids.at(0))
                  .ok());
  net.run_for(util::Duration::milliseconds(50));
  dst.types.clear();

  const auto& dp = server.stats().dataplane;
  const std::uint64_t flushes_before = dp.egress_flushes;
  const std::uint64_t coalesced_before = dp.frames_coalesced;
  const util::Histogram& batches =
      server.metrics().histogram("routeserver.egress_batch_frames");
  const std::uint64_t batches_before = batches.count();
  const std::uint64_t batched_frames_before = batches.sum();
  // dst sends nothing after its JOIN: every send on its link is the
  // server's.
  const std::uint64_t sends_before =
      link_metrics.counter("transport.sends").value();
  util::ByteWriter batch;
  for (std::uint64_t trace_id = 1; trace_id <= 4; ++trace_id) {
    wire::encode_message_into(batch, wire::MessageType::kData,
                              src.ack->routers[0].router_id,
                              src.ack->routers[0].port_ids.at(0),
                              util::Bytes(256, 0xC3), /*compressed=*/false,
                              /*epoch=*/0, trace_id);
  }
  src.transport->send(batch.view());
  net.run_for(util::Duration::milliseconds(100));

  ASSERT_EQ(dst.types.size(), 4u);
  EXPECT_EQ(link_metrics.counter("transport.sends").value() - sends_before,
            1u);
  EXPECT_EQ(dp.egress_flushes - flushes_before, 1u);
  EXPECT_EQ(dp.frames_coalesced - coalesced_before, 3u);
  EXPECT_EQ(batches.count() - batches_before, 1u);
  EXPECT_EQ(batches.sum() - batched_frames_before, 4u);
  std::vector<std::string> flushed;
  const util::Json dump = tracer.to_json();
  for (const auto& e : dump["events"].as_array()) {
    if (e["stage"].as_string() != "egress_flush") continue;
    EXPECT_EQ(e["arg"].as_int(), 4);  // frames in the flush
    flushed.push_back(e["trace_id"].as_string());
  }
  EXPECT_EQ(flushed, (std::vector<std::string>{"0x1"}));
}

TEST_F(RnlStack, UplinkFlushesEachLoneCapturedFrameInItsOwnWrite) {
  // Ping traffic captures one frame per instant, so each captured frame is
  // a batch of one: the end-of-burst task flushes it as one uplink flush
  // and one transport write, nothing coalesced. Keepalives are out of the
  // window, so site1's link carries exactly its captured frames up and the
  // replies down.
  site1.set_keepalive_interval(util::Duration::seconds(3600));
  site2.set_keepalive_interval(util::Duration::seconds(3600));
  join(site1, {}, &link_metrics);
  join(site2);
  ASSERT_TRUE(server
                  .connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
                  .ok());
  const ris::RisStats before = site1.stats();
  const std::uint64_t sends_before =
      link_metrics.counter("transport.sends").value();
  h1.ping(ip("10.0.0.2"), 5);
  net.run_for(util::Duration::seconds(2));
  ASSERT_EQ(h1.ping_replies().size(), 5u);

  const ris::RisStats& after = site1.stats();
  const std::uint64_t up = after.frames_up - before.frames_up;
  const std::uint64_t down = after.frames_down - before.frames_down;
  EXPECT_GE(up, 5u);
  EXPECT_EQ(after.egress_flushes - before.egress_flushes, up);
  EXPECT_EQ(after.frames_coalesced, before.frames_coalesced);
  EXPECT_EQ(link_metrics.counter("transport.sends").value() - sends_before,
            up + down);
  // Every frame the server routed was captured by exactly one site: a
  // frame re-sent from a stale send buffer would push frames_routed above
  // the captured sum.
  EXPECT_EQ(server.stats().frames_routed,
            site1.stats().frames_up + site2.stats().frames_up);
  EXPECT_EQ(server.stats().unrouted_drops, 0u);
}

TEST_F(RnlStack, ShedDataFramesPreserveCompressionLockstep) {
  // Shed frames must be dropped BEFORE the compressor notes them: if the
  // template ring advanced for a frame the site never receives, every later
  // compressed frame would decompress against the wrong ring state.
  server.set_compression_enabled(true);
  site1.set_compression_enabled(true);
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  server.set_stall_deadline(util::Duration::seconds(60));
  transport::SimLinkFault fault;
  join_with_fault(site1, fault);
  ASSERT_TRUE(site1.joined());
  wire::PortId p1 = port_of("us-west/h1");
  const util::Histogram& ratio =
      server.metrics().histogram("wire.compression_ratio_x100");
  const std::uint64_t ratio_count_before = ratio.count();
  const std::uint64_t down_before = site1.stats().frames_down;
  std::uint64_t injected = 0;

  // Warm the template ring with compressible traffic.
  const util::Bytes compressible(1024, 0x42);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.inject_frame(p1, compressible).ok());
    ++injected;
    net.run_for(util::Duration::milliseconds(10));
  }

  // Stall, then flood with poorly-compressible frames until shedding kicks
  // in; everything past the watermark is shed (and must skip the ring).
  fault.stall(/*toward_a=*/true, /*toward_b=*/false);
  for (int i = 0; i < 40; ++i) {
    util::Bytes noise(1400);
    for (std::size_t j = 0; j < noise.size(); ++j) {
      noise[j] = static_cast<std::uint8_t>((i * 131 + j * 7) & 0xFF);
    }
    ASSERT_TRUE(server.inject_frame(p1, noise).ok());
    ++injected;
    net.run_for(util::Duration::milliseconds(5));
  }
  ASSERT_TRUE(server.overloaded());
  ASSERT_GT(server.stats().shed_data_frames, 0u);

  // Drain, then push more compressed traffic across the shed gap.
  fault.resume();
  net.run_for(util::Duration::milliseconds(500));
  ASSERT_FALSE(server.overloaded());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.inject_frame(p1, compressible).ok());
    ++injected;
    net.run_for(util::Duration::milliseconds(10));
  }
  net.run_for(util::Duration::milliseconds(500));

  // Lockstep held: every non-shed frame arrived and decoded — the shed gap
  // is invisible to the decompressor.
  EXPECT_EQ(site1.stats().decode_errors, 0u);
  EXPECT_EQ(site1.stats().frames_down - down_before,
            injected - server.stats().shed_data_frames);
  EXPECT_GT(ratio.count(), ratio_count_before);  // compression was engaged
  EXPECT_EQ(server.stats().stalled_evictions, 0u);
}

TEST_F(RnlStack, ControlSpamToStalledSiteIsBoundedByTheHardCap) {
  // Control is never shed — but its deferred bytes still count against the
  // hard cap, so even control spam toward a wedged site cannot grow server
  // memory without bound: the site is evicted instead.
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  server.set_egress_hard_cap(64 * 1024);
  server.set_stall_deadline(util::Duration::minutes(10));
  transport::SimLinkFault fault;
  join_with_fault(site1, fault);
  ASSERT_TRUE(site1.joined());
  wire::PortId p1 = port_of("us-west/h1");
  wire::RouterId r1 = router_of("us-west/h1");

  fault.stall(/*toward_a=*/true, /*toward_b=*/false);
  const util::Bytes junk(1400, 0xAA);
  for (int i = 0; i < 20 && !server.overloaded(); ++i) {
    ASSERT_TRUE(server.inject_frame(p1, junk).ok());
  }
  ASSERT_TRUE(server.overloaded());

  const util::Bytes command(2048, 'x');
  int sends = 0;
  while (server.stats().hard_cap_evictions == 0 && sends < 100) {
    (void)server.console_send(r1, command);
    ++sends;
  }
  EXPECT_EQ(server.stats().hard_cap_evictions, 1u);
  EXPECT_EQ(server.stats().stalled_evictions, 0u);
  EXPECT_GT(server.stats().control_frames_deferred, 0u);
  EXPECT_LT(sends, 100);
  net.run_for(util::Duration::milliseconds(500));
  EXPECT_FALSE(site1.joined());
  EXPECT_EQ(server.stats().sites_lost, 1u);
}

TEST_F(RnlStack, LivenessSweepEvictsTwoSilentSitesInOnePass) {
  // Both sites go silent together, so one sweep collects both. Eviction
  // runs close handlers that reenter the server (remove_site); the sweep
  // must finish iterating sites_ before it closes anything.
  site1.set_keepalive_interval(util::Duration::seconds(3600));
  site2.set_keepalive_interval(util::Duration::seconds(3600));
  // Join both in the same event batch so their JOINs (the last thing the
  // server ever hears from them) land at the same sim instant — one sweep
  // then times them both out together.
  auto [ris1, srv1] = transport::make_sim_stream_pair(net.scheduler());
  auto [ris2, srv2] = transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(srv1));
  server.accept(std::move(srv2));
  site1.join(std::move(ris1));
  site2.join(std::move(ris2));
  net.run_for(util::Duration::milliseconds(500));
  ASSERT_TRUE(site1.joined());
  ASSERT_TRUE(site2.joined());
  ASSERT_EQ(server.site_count(), 2u);
  server.set_liveness_timeout(util::Duration::seconds(1));
  net.run_for(util::Duration::seconds(3));
  EXPECT_EQ(server.stats().sites_lost, 2u);
  EXPECT_EQ(server.inventory().size(), 0u);
  EXPECT_FALSE(site1.joined());
  EXPECT_FALSE(site2.joined());

  // Both parked identities rejoin cleanly.
  server.set_liveness_timeout(util::Duration{});
  join(site1);
  join(site2);
  EXPECT_TRUE(site1.joined());
  EXPECT_TRUE(site2.joined());
  EXPECT_EQ(server.stats().sites_rejoined, 2u);
  EXPECT_EQ(site1.session_epoch(), 1u);
  EXPECT_EQ(site2.session_epoch(), 1u);
  EXPECT_EQ(server.inventory().size(), 2u);
}

TEST_F(RnlStack, SweepEvictsTwoEgressIdleStalledSitesInOnePass) {
  // A stalled site with no new traffic toward it never has its verdict
  // probed by the data path — the liveness sweep must apply the stall
  // deadline, and must survive evicting two such sites in one pass.
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  server.set_stall_deadline(util::Duration::seconds(1));
  site1.set_keepalive_interval(util::Duration::milliseconds(250));
  site2.set_keepalive_interval(util::Duration::milliseconds(250));
  transport::SimLinkFault fault1;
  transport::SimLinkFault fault2;
  join_with_fault(site1, fault1);
  join_with_fault(site2, fault2);
  wire::PortId p1 = port_of("us-west/h1");
  wire::PortId p2 = port_of("eu-central/h2");

  fault1.stall(/*toward_a=*/true, /*toward_b=*/false);
  fault2.stall(/*toward_a=*/true, /*toward_b=*/false);
  const util::Bytes junk(1400, 0xAA);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.inject_frame(p1, junk).ok());
    ASSERT_TRUE(server.inject_frame(p2, junk).ok());
  }
  ASSERT_EQ(server.sites_shedding(), 2u);

  // Egress-idle from here on: only the sweep can notice the deadline. The
  // keepalives (250 ms << 4 s) keep both sites off the silent list, so the
  // evictions can only be stall-deadline ones.
  server.set_liveness_timeout(util::Duration::seconds(4));
  net.run_for(util::Duration::seconds(3));
  EXPECT_EQ(server.stats().stalled_evictions, 2u);
  EXPECT_EQ(server.stats().sites_lost, 2u);
  EXPECT_EQ(server.sites_shedding(), 0u);
  EXPECT_FALSE(site1.joined());
  EXPECT_FALSE(site2.joined());
}

TEST_F(RnlStack, ShedCountFollowsEveryRegimeTransition) {
  // overloaded() reads a count kept at each regime transition rather than
  // scanning the shard. Drive every transition and check the count after
  // each: entering, draining, watermarks disabled, loss while shedding,
  // stall eviction, and a rejoined session entering again.
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  server.set_stall_deadline(util::Duration::seconds(60));
  transport::SimLinkFault fault1;
  transport::SimLinkFault fault2;
  join_with_fault(site1, fault1);
  join_with_fault(site2, fault2);
  ASSERT_TRUE(site1.joined());
  ASSERT_TRUE(site2.joined());
  const wire::PortId p1 = port_of("us-west/h1");
  const wire::PortId p2 = port_of("eu-central/h2");
  const util::Bytes junk(1400, 0xAA);
  auto flood = [&](wire::PortId port) {
    for (int i = 0; i < 20; ++i) (void)server.inject_frame(port, junk);
  };
  EXPECT_EQ(server.sites_shedding(), 0u);

  // Entering: each stalled site crosses the high watermark.
  fault1.stall(/*toward_a=*/true, /*toward_b=*/false);
  flood(p1);
  EXPECT_EQ(server.sites_shedding(), 1u);
  EXPECT_TRUE(server.overloaded());
  fault2.stall(/*toward_a=*/true, /*toward_b=*/false);
  flood(p2);
  EXPECT_EQ(server.sites_shedding(), 2u);

  // Draining: site1's consumer wakes up and its queue empties.
  fault1.resume();
  net.run_for(util::Duration::milliseconds(100));
  EXPECT_EQ(server.sites_shedding(), 1u);

  // Watermarks disabled: every episode ends at once. Re-enabled, the
  // still-stalled site2 enters again on its next frame.
  server.set_egress_watermarks(0, 0);
  EXPECT_EQ(server.sites_shedding(), 0u);
  EXPECT_FALSE(server.overloaded());
  server.set_egress_watermarks(8 * 1024, 2 * 1024);
  flood(p2);
  EXPECT_EQ(server.sites_shedding(), 1u);

  // Loss while shedding: site2's link dies under it.
  fault2.cut();
  net.run_for(util::Duration::milliseconds(100));
  EXPECT_FALSE(site2.joined());
  EXPECT_EQ(server.sites_shedding(), 0u);

  // Eviction: site1 stalls again and outlives the stall deadline; the next
  // frame toward it evicts it.
  server.set_stall_deadline(util::Duration::seconds(1));
  fault1.stall(/*toward_a=*/true, /*toward_b=*/false);
  flood(p1);
  EXPECT_EQ(server.sites_shedding(), 1u);
  net.run_for(util::Duration::seconds(2));
  flood(p1);
  EXPECT_EQ(server.stats().stalled_evictions, 1u);
  EXPECT_EQ(server.sites_shedding(), 0u);
  net.run_for(util::Duration::milliseconds(100));
  EXPECT_FALSE(site1.joined());

  // Rejoin: the evicted identity returns on a fresh link, and its new
  // session counts like any other.
  transport::SimLinkFault fault3;
  join_with_fault(site1, fault3);
  ASSERT_TRUE(site1.joined());
  EXPECT_EQ(port_of("us-west/h1"), p1);
  EXPECT_EQ(server.sites_shedding(), 0u);
  fault3.stall(/*toward_a=*/true, /*toward_b=*/false);
  flood(p1);
  EXPECT_EQ(server.sites_shedding(), 1u);
  fault3.resume();
  net.run_for(util::Duration::milliseconds(100));
  EXPECT_EQ(server.sites_shedding(), 0u);
  EXPECT_FALSE(server.overloaded());
}

TEST(RisSlices, LogicalRoutersShareOneDevice) {
  simnet::Network net(41);
  routeserver::RouteServer server(net.scheduler());
  ris::RouterInterface site(net, "lab");
  devices::Ipv4Router router(net, "bigrouter", 4);
  std::size_t index = site.add_router(&router, "virtualizable router", "r.png");
  for (std::size_t p = 0; p < 4; ++p) {
    site.map_port(index, p, "port");
  }
  ASSERT_TRUE(site.declare_slices(index, {{0, 1}, {2, 3}}).ok());
  // Disjointness enforced:
  EXPECT_FALSE(site.declare_slices(index, {{0}, {0}}).ok());

  auto [ris_end, server_end] =
      transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(server_end));
  site.join(std::move(ris_end));
  net.run_for(util::Duration::seconds(1));

  // Inventory shows the physical router AND two logical slices (§4).
  auto inventory = server.inventory();
  ASSERT_EQ(inventory.size(), 3u);
  int slices = 0;
  for (const auto& r : inventory) {
    if (r.name.find(":slice") != std::string::npos) ++slices;
  }
  EXPECT_EQ(slices, 2);
}

// ---------------------------------------------------------------------------
// End-to-end frame tracing (util/trace.h): propagated span contexts across
// the tunnel, terminal instants for every drop verdict, and lifecycle events.
// ---------------------------------------------------------------------------

/// All events of `tracer` whose lifecycle detail matches `detail`.
TEST_F(RnlStack, TracedForwardSharesOneIdAcrossComponents) {
  util::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_head_sample_period(1);  // trace every frame: small burst
  server.set_tracer(&tracer);
  site1.set_tracer(&tracer);
  site2.set_tracer(&tracer);
  join(site1);
  join(site2);
  ASSERT_TRUE(
      server.connect_ports(port_of("us-west/h1"), port_of("eu-central/h2"))
          .ok());
  h1.ping(ip("10.0.0.2"), 3);
  net.run_for(util::Duration::seconds(3));
  ASSERT_EQ(h1.ping_replies().size(), 3u);

  // At least one id must appear in all three places: the sending site's
  // capture ring, the server's forward ring, and the receiving site's
  // replay ring — proof the id travelled inside the tunnel frames.
  struct Seen {
    bool capture = false, forward = false, replay = false;
  };
  std::map<std::string, Seen> by_id;
  util::Json dump = tracer.to_json();
  for (const auto& e : dump["events"].as_array()) {
    Seen& seen = by_id[e["trace_id"].as_string()];
    const std::string& stage = e["stage"].as_string();
    if (stage == "capture") seen.capture = true;
    if (stage == "forward") seen.forward = true;
    if (stage == "replay") seen.replay = true;
  }
  int complete = 0;
  for (const auto& [id, seen] : by_id) {
    if (seen.capture && seen.forward && seen.replay) ++complete;
  }
  EXPECT_GE(complete, 3) << "each ping should yield a complete trace";
  // The JOIN handshakes emitted epoch-bump lifecycle instants.
  EXPECT_GE(instants_named(tracer, "epoch_bump").size(), 2u);
}

TEST_F(RnlStack, TracedFrameAcrossEpochBumpEmitsTerminalDropSpan) {
  util::Tracer tracer;
  tracer.set_enabled(true);
  server.set_tracer(&tracer);
  RawClient first;
  raw_join(first, "crafty");
  ASSERT_TRUE(first.ack.has_value());
  ASSERT_EQ(first.ack->epoch, 0u);
  // The same site name rejoins: the server bumps the session epoch, so the
  // first incarnation's in-flight frames are now stale.
  RawClient second;
  raw_join(second, "crafty");
  ASSERT_TRUE(second.ack.has_value());
  ASSERT_EQ(second.ack->epoch, 1u);

  // A trace-flagged frame encoded before the bump arrives after it: stamped
  // with the old epoch on the live session (the rejoin killed the first
  // transport, but late frames queued under epoch 0 look exactly like
  // this). It must die at the epoch gate — and because it was traced, its
  // trace must end in a terminal stale-epoch instant carrying its id, not
  // evaporate mid-flight.
  const std::uint64_t trace_id = 0x77;
  util::Bytes frame(64, 0xAB);
  util::ByteWriter w;
  wire::encode_message_into(w, wire::MessageType::kData,
                            second.ack->routers[0].router_id,
                            second.ack->routers[0].port_ids.at(0), frame,
                            /*compressed=*/false, /*epoch=*/0, trace_id);
  second.transport->send(w.view());
  net.run_for(util::Duration::milliseconds(200));

  EXPECT_EQ(server.stats().stale_epoch_drops, 1u);
  auto drops = instants_named(tracer, "stale_epoch_drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0]["trace_id"].as_string(), "0x77");
  EXPECT_EQ(drops[0]["component"].as_string(), "routeserver");
  EXPECT_EQ(drops[0]["arg"].as_int(), 0);  // the stale epoch it carried
  // The rejoin produced epoch-bump (and rejoin) lifecycle instants too.
  EXPECT_GE(instants_named(tracer, "epoch_bump").size(), 2u);
  EXPECT_EQ(instants_named(tracer, "rejoin").size(), 1u);
}

TEST_F(RnlStack, SpoofedPortDropEmitsDropReasonInstant) {
  util::Tracer tracer;
  tracer.set_enabled(true);
  server.set_tracer(&tracer);
  join(site1);
  join(site2);
  wire::PortId p1 = port_of("us-west/h1");
  ASSERT_TRUE(server.connect_ports(p1, port_of("eu-central/h2")).ok());

  // A never-joined attacker claims site1's port as its kData source; the
  // ownership gate drops the frame and the tracer records the verdict as a
  // drop-reason instant carrying the spoofed port id.
  auto [attacker, server_end] =
      transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(server_end));
  const std::uint64_t trace_id = 0xBAD;
  util::Bytes frame(64, 0xAA);
  util::ByteWriter w;
  wire::encode_message_into(w, wire::MessageType::kData, router_of("us-west/h1"),
                            p1, frame, /*compressed=*/false, /*epoch=*/0,
                            trace_id);
  attacker->send(w.view());
  net.run_for(util::Duration::seconds(1));

  EXPECT_EQ(server.stats().spoofed_port_drops, 1u);
  auto drops = instants_named(tracer, "spoofed_port_drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0]["trace_id"].as_string(), "0xbad");
  EXPECT_EQ(drops[0]["arg"].as_int(), static_cast<std::int64_t>(p1));
}

TEST_F(RnlStack, UnroutedDropEmitsInstantCarryingItsSourcePort) {
  // A frame from an unwired port dies at the matrix lookup. Sampled or not,
  // the drop reaches the tracer as an unrouted_drop instant whose arg is
  // the port the frame came from.
  util::Tracer tracer;
  tracer.set_enabled(true);
  server.set_tracer(&tracer);
  RawClient raw;
  raw_join(raw, "crafty");
  ASSERT_TRUE(raw.ack.has_value());
  util::ByteWriter w;
  encode_raw_data(raw, w, util::Bytes(64, 0x3C));
  raw.transport->send(w.view());
  net.run_for(util::Duration::milliseconds(100));

  EXPECT_EQ(server.stats().unrouted_drops, 1u);
  auto drops = instants_named(tracer, "unrouted_drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0]["arg"].as_int(),
            static_cast<std::int64_t>(raw.ack->routers[0].port_ids.at(0)));
  EXPECT_EQ(drops[0]["trace_id"].as_string(), "0x0");  // not head-sampled
}

TEST_F(RnlStack, RetentionSweepForgetsAbandonedSitesAndBoundsMemory) {
  // Churn regression for the RetainedSite retention bound: a site that is
  // lost un-orderly and never redials must not pin its parked inventory
  // forever. Three abandon/rejoin generations — each time the sweep forgets
  // the parked identity, releases its ports and wires, and the eventual
  // rejoin gets fresh ids with the monotonic epoch preserved.
  site1.set_keepalive_interval(util::Duration::seconds(3600));  // hangs after
  site2.set_keepalive_interval(util::Duration::milliseconds(500));
  join(site2);
  wire::PortId previous_port = 0;
  for (std::uint64_t generation = 1; generation <= 3; ++generation) {
    server.set_liveness_timeout(util::Duration{});  // quiet while joining
    join(site1);
    ASSERT_TRUE(site1.joined()) << "generation " << generation;
    EXPECT_EQ(site1.session_epoch(), generation - 1);
    wire::PortId p1 = port_of("us-west/h1");
    EXPECT_NE(p1, previous_port);  // forgotten identity -> fresh ids
    previous_port = p1;
    ASSERT_TRUE(server.connect_ports(p1, port_of("eu-central/h2")).ok());

    server.set_liveness_timeout(util::Duration::seconds(2));
    server.set_retention_deadline(util::Duration::seconds(5));
    net.run_for(util::Duration::seconds(4));  // silent -> evicted, parked
    EXPECT_EQ(server.stats().sites_lost, generation);
    EXPECT_EQ(server.retained_site_count(), 1u);
    EXPECT_GE(server.retained_port_count(), 1u);
    EXPECT_EQ(server.stats().sites_forgotten, generation - 1);
    EXPECT_EQ(server.wire_count(), 1u);  // retained for a timely rejoin

    net.run_for(util::Duration::seconds(6));  // past the retention deadline
    EXPECT_EQ(server.stats().sites_forgotten, generation);
    EXPECT_EQ(server.retained_site_count(), 0u);
    EXPECT_EQ(server.retained_port_count(), 0u);
    EXPECT_EQ(server.wire_count(), 0u);  // forget released the wire too
  }
  // Forgetting never reset the stale-frame gate: each rejoin kept advancing
  // the same monotonic epoch counter.
  server.set_liveness_timeout(util::Duration{});
  join(site1);
  EXPECT_EQ(site1.session_epoch(), 3u);
  EXPECT_EQ(server.stats().sites_rejoined, 0u);  // fresh ids, not rebinds
}

}  // namespace
}  // namespace rnl
