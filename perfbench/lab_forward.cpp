// lab_forward: the data plane (§4 names the central route server as the
// bottleneck). Four RIS sites reach a two-shard ShardedRouteServer over
// real TCP loopback (four connections, placed through dispatch). Three
// wires run over them:
//   - a shard-local bulk flow and a cross-shard bulk flow, each a closed
//     loop holding kInFlight frames with simple-IMIX sizes (64/594/1518 B
//     in 7:4:1), so the run measures forwarding rather than a drop policy;
//   - a cross-shard 64 B ping-pong probe, which shows what bulk batching
//     costs a flow that waits on each frame.
// Throughput counts delivered bulk frames; latency is the probe's one-way
// time from one device port to the other. Joins, the API and the journal
// stay idle.

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ris/ris.h"
#include "routeserver/sharded.h"
#include "simnet/network.h"
#include "transport/tcp.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using namespace rnl;

constexpr std::size_t kShards = 2;
constexpr std::size_t kSites = 4;
constexpr std::uint64_t kInFlight = 32;
/// Set-ups per run; the timed phase is split evenly between them and
/// setup_s is their median. Each set-up draws its own names and IMIX
/// phases, and the closed loops settle into batching patterns that differ
/// by seed (probe p50 up to 15% apart), so many short set-ups average the
/// patterns out where a few long ones would not.
constexpr int kWorlds = 16;
constexpr std::uint64_t kWindowNs = 250'000'000;
constexpr std::uint64_t kWarmupFrames = 50'000;
constexpr std::uint64_t kWarmupProbes = 500;
/// Virtual time each harness round advances the sites' world. Cables and
/// tunnels have no delay, so this only paces timers (keepalives).
constexpr util::Duration kSlice = util::Duration::microseconds(10);
constexpr std::uint64_t kMaxDrainRounds = 200'000;
constexpr std::uint64_t kMaxJoinRounds = 200'000;

/// Simple IMIX: 7 x 64 B, 4 x 594 B, 1 x 1518 B per 12 frames, interleaved.
constexpr std::array<std::size_t, 12> kImix = {64, 594, 64,  64, 1518, 64,
                                               594, 64, 64, 594, 64,   594};
constexpr std::size_t kProbeBytes = 64;
constexpr std::size_t kSeqOffset = 14;    // after the Ethernet header
constexpr std::size_t kStampOffset = 22;  // probe send time

util::Bytes frame_template(std::size_t bytes, std::uint8_t source) {
  util::Bytes frame(bytes, 0x5A);
  // Locally administered MACs, EtherType 0x88B5 (IEEE local experimental).
  const std::uint8_t header[14] = {0x02, 0, 0, 0, 0, 0xFF, 0x02,
                                   0,    0, 0, 0, source, 0x88, 0xB5};
  std::memcpy(frame.data(), header, sizeof header);
  return frame;
}

std::uint64_t read_u64(util::BytesView frame, std::size_t offset) {
  std::uint64_t value = 0;
  std::memcpy(&value, frame.data() + offset, sizeof value);
  return value;
}

void write_u64(util::Bytes& frame, std::size_t offset, std::uint64_t value) {
  std::memcpy(frame.data() + offset, &value, sizeof value);
}

/// One bulk flow, a closed loop: every frame that arrives in order, once
/// and with its IMIX size intact releases the next one.
struct BulkFlow {
  simnet::Port* tx = nullptr;
  std::size_t phase = 0;
  util::Bytes buffer = frame_template(1518, 1);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;  // also the next expected sequence number
  std::uint64_t errors = 0;
  bool open = true;  // false while draining: send nothing new

  [[nodiscard]] std::size_t size_of(std::uint64_t seq) const {
    return kImix[(phase + seq) % kImix.size()];
  }
  void send() {
    write_u64(buffer, kSeqOffset, sent);
    tx->transmit(util::BytesView(buffer.data(), size_of(sent)));
    ++sent;
  }
  bool on_frame(util::BytesView frame) {
    if (frame.size() != size_of(received) ||
        read_u64(frame, kSeqOffset) != received) {
      ++errors;
      return false;
    }
    ++received;
    if (open) send();
    return true;
  }
};

/// Cross-shard ping-pong: one 64 B frame bounced between two device
/// ports; every crossing is one one-way latency sample.
struct Probe {
  util::Bytes buffer = frame_template(kProbeBytes, 3);
  std::uint64_t seq = 0;
  std::uint64_t sent_at = 0;
  std::uint64_t sent_round = 0;
  std::uint64_t crossings = 0;
  std::uint64_t errors = 0;
  bool in_flight = false;
  bool open = true;

  void send(simnet::Port& from, std::uint64_t round) {
    sent_at = now_ns();
    sent_round = round;
    write_u64(buffer, kSeqOffset, seq);
    write_u64(buffer, kStampOffset, sent_at);
    in_flight = true;
    from.transmit(buffer);
  }
};

/// Counters the traced run turns into per-layer ratios.
struct ForwardCounts {
  std::uint64_t frames = 0;  // bulk + probe frames delivered
  std::uint64_t probes = 0;
  std::uint64_t probe_rounds = 0;
  std::uint64_t events = 0;
  std::uint64_t routed = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t server_flushes = 0;
  std::uint64_t server_coalesced = 0;
  std::uint64_t ris_flushes = 0;
  std::uint64_t ris_coalesced = 0;
};

class ForwardWorld {
 public:
  ForwardWorld(std::uint64_t seed, bool traced)
      : seed_(seed),
        traced_(traced),
        net_(util::derive_seed(seed, "lab_forward.net")),
        server_(server_options(seed)),
        listener_(loop_) {}

  ForwardWorld(const ForwardWorld&) = delete;
  ForwardWorld& operator=(const ForwardWorld&) = delete;

  /// World construction, TCP joins through dispatch, and wiring.
  bool build(std::string* error) {
    auto status = listener_.listen(
        0, [this](std::unique_ptr<transport::TcpTransport> accepted) {
          std::unique_ptr<transport::Transport> end = std::move(accepted);
          if (traced_) end = traced(std::move(end), Side::kServer);
          Span span(Kind::kServerDispatch);
          server_.dispatch(std::move(end));
        });
    if (!status.ok()) return fail(error, "listen: " + status.error());

    // Seeded names; two land on each shard so the wire plan below holds.
    util::Rng rng(util::derive_seed(seed_, "lab_forward.names"));
    std::array<std::vector<std::string>, kShards> by_shard;
    while (by_shard[0].size() < 2 || by_shard[1].size() < 2) {
      std::string name = random_name(rng, "fwd-");
      auto& bucket = by_shard[server_.shard_of_site(name)];
      if (bucket.size() < 2) bucket.push_back(std::move(name));
    }
    names_ = {by_shard[0][0], by_shard[0][1], by_shard[1][0], by_shard[1][1]};
    for (std::size_t i = 0; i < kSites; ++i) {
      devices_.push_back(std::make_unique<HarnessDevice>(net_, "h", 2));
      sites_.push_back(std::make_unique<ris::RouterInterface>(
          net_, names_[i], &ris_metrics_));
      const std::size_t index =
          sites_[i]->add_router(devices_[i].get(), "harness device", "h.png");
      sites_[i]->map_port(index, 0, "p0");
      sites_[i]->map_port(index, 1, "p1");
    }
    for (auto& site : sites_) {
      std::unique_ptr<transport::Transport> end;
      {
        Span span(Kind::kTransportDial);
        auto client = transport::tcp_connect(loop_, listener_.port());
        if (!client.ok()) return fail(error, "connect: " + client.error());
        end = std::move(*client);
      }
      if (traced_) end = traced(std::move(end), Side::kRis);
      site->join(std::move(end));
    }
    for (std::uint64_t r = 0; !all_joined(); ++r) {
      if (r == kMaxJoinRounds) return fail(error, "TCP joins did not complete");
      round();
    }

    // Wire plan (sites 0,1 on shard 0; 2,3 on shard 1):
    //   local bulk  0.p0 -> 1.p0   cross bulk  2.p0 -> 0.p1
    //   probe       1.p1 <-> 3.p0 (cross-shard)
    const std::array<std::array<int, 4>, 3> plan = {
        {{0, 0, 1, 0}, {2, 0, 0, 1}, {1, 1, 3, 0}}};
    for (const auto& wire : plan) {
      const wire::PortId a = port_id(wire[0], wire[1]);
      const wire::PortId b = port_id(wire[2], wire[3]);
      if (a == 0 || b == 0) return fail(error, "port missing from inventory");
      Span span(Kind::kServerControl);
      auto connected = server_.connect_ports(a, b);
      if (!connected.ok()) {
        return fail(error, "connect_ports: " + connected.error());
      }
    }

    util::Rng phase_rng(util::derive_seed(seed_, "lab_forward.imix"));
    flows_[0].tx = &devices_[0]->port(0);
    flows_[1].tx = &devices_[2]->port(0);
    for (BulkFlow& flow : flows_) flow.phase = phase_rng.below(kImix.size());
    watch(*devices_[1], 0, flows_[0]);
    watch(*devices_[0], 1, flows_[1]);
    probe_a_ = &devices_[1]->port(1);
    probe_b_ = &devices_[3]->port(0);
    probe_a_->set_receive_handler(
        [this](util::BytesView frame) { on_probe(frame, *probe_a_); });
    probe_b_->set_receive_handler(
        [this](util::BytesView frame) { on_probe(frame, *probe_b_); });
    return true;
  }

  void start_traffic() {
    for (BulkFlow& flow : flows_) {
      for (std::uint64_t i = 0; i < kInFlight; ++i) flow.send();
    }
    probe_.send(*probe_a_, round_);
  }

  void warm_up() {
    while (bulk_received() < kWarmupFrames ||
           probe_.crossings < kWarmupProbes) {
      round();
    }
  }

  /// Runs the timed phase; returns its wall time in ns.
  std::uint64_t run_timed(WindowedSeries& series, std::uint64_t duration_ns) {
    series_ = &series;
    const std::uint64_t start = now_ns();
    series.start(start);
    std::uint64_t t = start;
    while (t - start < duration_ns) {
      round();
      t = now_ns();
      series.tick(t);
    }
    series.stop(t);
    series_ = nullptr;
    return t - start;
  }

  ForwardCounts counts() {
    ForwardCounts c;
    c.frames = bulk_received() + probe_.crossings;
    c.probes = probe_.crossings;
    c.probe_rounds = probe_rounds_;
    c.events = events_;
    const auto stats = server_.stats();
    c.routed = stats.frames_routed;
    c.slow_path = stats.dataplane.slow_path_frames;
    c.server_flushes = stats.dataplane.egress_flushes;
    c.server_coalesced = stats.dataplane.frames_coalesced;
    for (const auto& site : sites_) {
      c.ris_flushes += site->stats().egress_flushes;
      c.ris_coalesced += site->stats().frames_coalesced;
    }
    return c;
  }

  /// Stops the traffic, lets every frame in flight land, and checks the
  /// outputs. Returns {attempted, failed}.
  std::pair<std::uint64_t, std::uint64_t> drain_and_check(
      WorkloadResult& result) {
    for (BulkFlow& flow : flows_) flow.open = false;
    probe_.open = false;
    for (std::uint64_t r = 0; r < kMaxDrainRounds && in_flight(); ++r) round();

    std::uint64_t attempted = probe_.crossings + probe_.errors;
    std::uint64_t failed = probe_.errors;
    if (probe_.in_flight) {
      ++attempted;
      ++failed;
    }
    for (const BulkFlow& flow : flows_) {
      attempted += flow.sent;
      failed += flow.errors + (flow.sent - std::min(flow.sent, flow.received));
    }
    if (failed != 0) {
      result.problem("lab_forward: " + std::to_string(failed) +
                     " frames lost, duplicated, reordered or resized");
    }
    const std::uint64_t ring_drops = server_.cross_shard_ring_drops();
    std::uint64_t shed = server_.stats().shed_data_frames;
    for (const auto& site : sites_) shed += site->stats().shed_frames;
    if (ring_drops != 0 || shed != 0) {
      result.problem("lab_forward: " + std::to_string(ring_drops) +
                     " cross-shard ring drops, " + std::to_string(shed) +
                     " shed frames");
      failed += ring_drops + shed;
    }
    return {attempted, failed};
  }

 private:
  static routeserver::ShardedRouteServer::Options server_options(
      std::uint64_t seed) {
    routeserver::ShardedRouteServer::Options options;
    options.shards = kShards;
    options.seed = util::derive_seed(seed, "lab_forward.shards");
    return options;
  }

  static bool fail(std::string* error, std::string what) {
    *error = "lab_forward set-up: " + std::move(what);
    return false;
  }

  /// One cooperative harness round: the sites' world (device traffic and
  /// RIS capture), the poll loop (both tunnel ends), the shards (ring
  /// drains and placement).
  void round() {
    ++round_;
    {
      Span span(Kind::kSimnetRun);
      events_ += net_.run_for(kSlice);
    }
    {
      Span span(Kind::kTransportPoll);
      loop_.run_once(0);
    }
    {
      Span span(Kind::kServerPump);
      server_.pump_all();
    }
  }

  bool all_joined() const {
    for (const auto& site : sites_) {
      if (!site->joined()) return false;
    }
    return server_.pending_dispatch() == 0;
  }

  wire::PortId port_id(int site, int port) {
    std::string port_name = "p";
    port_name += std::to_string(port);
    return server_.port_id(names_[static_cast<std::size_t>(site)] + "/h",
                           port_name);
  }

  void watch(HarnessDevice& device, std::size_t port, BulkFlow& flow) {
    device.port(port).set_receive_handler(
        [this, &flow](util::BytesView frame) {
          Span span(Kind::kHarnessDevice);
          if (flow.on_frame(frame) && series_ != nullptr) series_->add_ops(1);
        });
  }

  void on_probe(util::BytesView frame, simnet::Port& at) {
    Span span(Kind::kHarnessDevice);
    const std::uint64_t now = now_ns();
    if (!probe_.in_flight || frame.size() != kProbeBytes ||
        read_u64(frame, kSeqOffset) != probe_.seq ||
        read_u64(frame, kStampOffset) != probe_.sent_at) {
      ++probe_.errors;
      return;
    }
    probe_.in_flight = false;
    ++probe_.crossings;
    probe_rounds_ += round_ - probe_.sent_round;
    if (series_ != nullptr) series_->add_latency_ns(now - probe_.sent_at);
    ++probe_.seq;
    if (probe_.open) probe_.send(at, round_);
  }

  [[nodiscard]] std::uint64_t bulk_received() const {
    return flows_[0].received + flows_[1].received;
  }
  [[nodiscard]] bool in_flight() const {
    return probe_.in_flight || flows_[0].received < flows_[0].sent ||
           flows_[1].received < flows_[1].sent;
  }

  std::uint64_t seed_;
  bool traced_;
  // Declaration order is teardown order reversed: sites close their
  // tunnels before the server and the poll loop go away.
  simnet::Network net_;
  util::MetricsRegistry ris_metrics_;
  transport::TcpEventLoop loop_;
  routeserver::ShardedRouteServer server_;
  transport::TcpListener listener_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<HarnessDevice>> devices_;
  std::vector<std::unique_ptr<ris::RouterInterface>> sites_;
  std::array<BulkFlow, 2> flows_{};
  Probe probe_;
  simnet::Port* probe_a_ = nullptr;
  simnet::Port* probe_b_ = nullptr;
  WindowedSeries* series_ = nullptr;
  std::uint64_t round_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t probe_rounds_ = 0;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

WorkloadResult run_lab_forward(const RunOptions& options) {
  WorkloadResult result;
  auto plain = WindowedSeries::by_time(kWindowNs);
  auto traced_series = WindowedSeries::by_time(kWindowNs);
  Setups setups;
  SpanTotals totals;
  ForwardCounts traced_counts;
  double traced_wall_ns = 0;
  const auto phase_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9 / kWorlds);

  for (int w = 0; w < kWorlds && result.problems.empty(); ++w) {
    // The traced run alternates untraced and traced worlds, so
    // trace_overhead compares like with like.
    const bool traced_world = options.trace && w % 2 == 1;
    g_spans.set_on(traced_world);
    const std::uint64_t t0 = now_ns();
    const std::string tag = "lab_forward.world" + std::to_string(w);
    auto world = std::make_unique<ForwardWorld>(
        util::derive_seed(options.seed, tag), traced_world);
    std::string error;
    if (!world->build(&error)) {
      result.problem(error);
      break;
    }
    world->start_traffic();
    world->warm_up();
    setups.add(now_ns() - t0);
    (void)g_spans.take();  // set-up spans are not part of the per-op table

    const ForwardCounts before = world->counts();
    g_spans.set_keep(traced_world);
    const std::uint64_t wall =
        world->run_timed(traced_world ? traced_series : plain, phase_ns);
    g_spans.set_keep(false);
    // Memory of one world at its stated size, before later worlds add
    // allocator fragmentation.
    if (w == 0) result.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (traced_world) {
      totals.add(g_spans.take());
      traced_wall_ns += static_cast<double>(wall);
      const ForwardCounts after = world->counts();
      traced_counts.frames += after.frames - before.frames;
      traced_counts.probes += after.probes - before.probes;
      traced_counts.probe_rounds += after.probe_rounds - before.probe_rounds;
      traced_counts.events += after.events - before.events;
      traced_counts.routed += after.routed - before.routed;
      traced_counts.slow_path += after.slow_path - before.slow_path;
      traced_counts.server_flushes +=
          after.server_flushes - before.server_flushes;
      traced_counts.server_coalesced +=
          after.server_coalesced - before.server_coalesced;
      traced_counts.ris_flushes += after.ris_flushes - before.ris_flushes;
      traced_counts.ris_coalesced += after.ris_coalesced - before.ris_coalesced;
    }
    g_spans.set_on(false);
    const auto [attempted, failed] = world->drain_and_check(result);
    result.attempted += attempted;
    result.failed += failed;
  }

  plain.finish();
  traced_series.finish();
  result.notes["transport"] = "TCP over loopback (127.0.0.1)";
  result.notes["connections"] = std::to_string(kSites);
  result.notes["shards"] =
      std::to_string(kShards) + " (cooperative, one thread)";
  result.notes["setups"] = std::to_string(setups.size());
  result.notes["windows"] = std::to_string(plain.windows());
  result.notes["latency_samples"] = std::to_string(plain.total_samples());
  result.notes["frames_timed"] = std::to_string(plain.total_ops());

  if (!options.trace) {
    book_end_to_end(result, plain, setups);
    return result;
  }

  const double frames = static_cast<double>(traced_counts.frames);
  auto per_frame = [&](Kind kind) {
    return frames == 0 ? 0.0 : totals.self_of(kind) / frames;
  };
  result.set("transport.send_ns_per_frame", per_frame(Kind::kTransportSend),
             "ns");
  result.set("transport.sends_per_frame",
             ratio(totals.calls_of(Kind::kTransportSend), traced_counts.frames),
             "count");
  result.set("transport.poll_ns_per_frame", per_frame(Kind::kTransportPoll),
             "ns");
  result.set("routeserver.rx_ns_per_frame", per_frame(Kind::kServerRx), "ns");
  result.set("routeserver.xshard_ns_per_frame", per_frame(Kind::kServerPump),
             "ns");
  result.set("ris.capture_ns_per_frame", per_frame(Kind::kSimnetRun), "ns");
  result.set("ris.replay_ns_per_frame", per_frame(Kind::kRisRx), "ns");
  result.set("routeserver.frames_per_egress_flush",
             ratio(traced_counts.server_flushes +
                       traced_counts.server_coalesced,
                   traced_counts.server_flushes),
             "count");
  result.set("ris.frames_per_uplink_flush",
             ratio(traced_counts.ris_flushes + traced_counts.ris_coalesced,
                   traced_counts.ris_flushes),
             "count");
  result.set("routeserver.slow_path_share",
             ratio(traced_counts.slow_path, traced_counts.routed), "ratio");
  result.set("simnet.events_per_frame",
             ratio(traced_counts.events, traced_counts.frames), "count");
  result.set("harness.loop_rounds_per_probe",
             ratio(traced_counts.probe_rounds, traced_counts.probes), "count");
  book_traced_run(result, plain, traced_series, totals, traced_wall_ns,
                  frames);
  return result;
}

}  // namespace perfbench
