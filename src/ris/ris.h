#pragma once

// Router Interface Software (§2.2, Fig 3) — the agent on the PC that sits in
// front of each router.
//
// The lab manager wires device ports to the PC's NICs (here: simnet cables),
// describes each router (description, back-panel image, port rectangles),
// optionally attaches the console COM port, and clicks "Join Labs". From
// then on RIS:
//   - captures every frame a router port emits (full L2, libpcap-style),
//     wraps it with the server-assigned router/port ids, and ships it up the
//     tunnel (always dialing out, so firewalls don't matter);
//   - unwraps frames arriving from the route server and replays them into
//     the right router port;
//   - proxies console bytes between the tunnel and the device CLI;
//   - can advertise *slices* of a virtualization-capable router as separate
//     inventory entries (§4 logical routers), multiplexing their traffic.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "devices/device.h"
#include "simnet/network.h"
#include "transport/transport.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"
#include "wire/session.h"
#include "wire/tunnel.h"

namespace rnl::ris {

struct RisStats {
  std::uint64_t frames_up = 0;      // router port -> tunnel
  std::uint64_t frames_down = 0;    // tunnel -> router port
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t unknown_port_drops = 0;
  std::uint64_t decode_errors = 0;
  /// Zero-copy fast path observability (mirrors the route server's
  /// DataPlaneStats): frames relayed without any per-frame heap allocation.
  std::uint64_t fast_path_frames = 0;
  std::uint64_t payload_allocs = 0;
  /// Console relay volume: device output shipped up the tunnel / keystrokes
  /// arriving from the web terminal.
  std::uint64_t console_bytes_up = 0;
  std::uint64_t console_bytes_down = 0;
  /// Session fault tolerance: completed reconnects (JOIN re-acked after an
  /// outage), dial attempts that failed, outages abandoned after the retry
  /// budget, and kData frames dropped for carrying a stale session epoch.
  std::uint64_t reconnects = 0;
  std::uint64_t reconnect_failures = 0;
  std::uint64_t reconnect_giveups = 0;
  std::uint64_t stale_epoch_drops = 0;
  /// Captured kData frames the RIS dropped instead of sending. Nothing
  /// sheds on the uplink (the tunnel has no egress watermarks on the RIS
  /// side), so this stays 0; kept because the benchmark harness reads it.
  std::uint64_t shed_frames = 0;
  /// Uplink coalescing: transport writes that carried at least one data
  /// frame, and the writes avoided by batching (frames beyond the first of
  /// each flush).
  std::uint64_t egress_flushes = 0;
  std::uint64_t frames_coalesced = 0;
};

/// Backoff policy for the reconnect state machine. Delays grow
/// `initial_backoff * multiplier^n` capped at `max_backoff`, with a
/// symmetric +/- `jitter` fraction drawn from the scheduler's deterministic
/// RNG so a farm of sites losing one server doesn't redial in phase.
struct ReconnectPolicy {
  util::Duration initial_backoff{util::Duration::milliseconds(500)};
  util::Duration max_backoff{util::Duration::seconds(30)};
  double multiplier = 2.0;
  double jitter = 0.2;
  /// Dial attempts per outage before giving up; 0 = retry forever.
  int max_attempts = 8;
};

class RouterInterface {
 public:
  /// `metrics` is the registry this site publishes into (nullptr: the
  /// process-wide global). Every RisStats field appears as a probe under
  /// "ris.<site>.", plus two owned latency histograms: capture_ns (router
  /// port -> tunnel) and replay_ns (tunnel -> router port). The registry
  /// must outlive the RIS.
  RouterInterface(simnet::Network& net, std::string site_name,
                  util::MetricsRegistry* metrics = nullptr);
  ~RouterInterface();
  RouterInterface(const RouterInterface&) = delete;
  RouterInterface& operator=(const RouterInterface&) = delete;

  // -- Lab-manager configuration (Fig 3) --

  /// Registers a router with its description and back-panel image. The
  /// device pointer is non-owning and must outlive the RIS.
  std::size_t add_router(devices::Device* device, std::string description,
                         std::string image_file);

  /// Wires `device_port` of router `router_index` to a fresh PC NIC and
  /// declares the port (description + clickable rectangle on the image).
  void map_port(std::size_t router_index, std::size_t device_port,
                std::string description, int rect_x = 0, int rect_y = 0,
                int rect_w = 40, int rect_h = 20);

  /// Declares the console COM connection for a router so web users can log
  /// in to the CLI through the tunnel.
  void attach_console(std::size_t router_index, std::string com_port = "COM1");

  /// §4 logical routers: advertise `slices` (disjoint sets of already-mapped
  /// device port indices) as separate inventory routers named
  /// "<name>:sliceN". The underlying device is shared; RIS multiplexes.
  util::Status declare_slices(std::size_t router_index,
                              const std::vector<std::vector<std::size_t>>& slices);

  void set_server_address(std::string address) { server_address_ = std::move(address); }

  /// Fig 3 "save the current configuration": the whole RIS setup as JSON.
  [[nodiscard]] util::Json config_json() const;

  // -- Joining the labs (§2.2) --

  /// "Join Labs": sends the JOIN over `transport` and starts forwarding once
  /// the ack arrives. RIS keeps the transport for its lifetime and sends a
  /// keepalive every `keepalive_interval` (§2.2: RIS "initiates and
  /// maintains a TCP connection to the route server").
  void join(std::unique_ptr<transport::Transport> transport);
  void set_keepalive_interval(util::Duration interval) {
    keepalive_interval_ = interval;
  }
  [[nodiscard]] bool joined() const { return joined_; }
  /// Orderly departure (kLeave + close). Cancels any reconnect in flight.
  void leave();

  // -- Session fault tolerance --

  /// How RIS dials the route server again after losing the tunnel. Without
  /// a factory the RIS behaves as before: a lost tunnel is terminal. The
  /// factory may return nullptr (dial failed); that counts as a failed
  /// attempt and the backoff continues.
  using TransportFactory =
      std::function<std::unique_ptr<transport::Transport>()>;
  void set_transport_factory(TransportFactory factory) {
    transport_factory_ = std::move(factory);
  }
  void set_reconnect_policy(ReconnectPolicy policy) {
    reconnect_policy_ = policy;
  }
  [[nodiscard]] const ReconnectPolicy& reconnect_policy() const {
    return reconnect_policy_;
  }
  /// Epoch of the current session as assigned by the route server's last
  /// JOIN ack (0 before the first ack and for a site's first session).
  [[nodiscard]] std::uint32_t session_epoch() const { return epoch_; }

  /// Template compression of uplink data frames (§4), off by default. It
  /// may be switched at any time: only frames sent while it is on enter
  /// the codec history, and they carry wire::kFlagRecorded so the server
  /// records them too.
  void set_compression_enabled(bool enabled) { compression_enabled_ = enabled; }

  // -- Uplink batching --
  // Captured data frames accumulate in the reusable send buffer and go to
  // the transport in one write. A batch flushes when it reaches
  // kUplinkBatchFrames frames or kUplinkBatchBytes buffered bytes, before
  // any control frame (JOIN, keepalive, console, leave — FIFO across
  // classes), and at a zero-delay scheduled task armed when an append
  // leaves a one-frame batch open, i.e. after every event already queued at
  // the current instant has run — so a burst of captures coalesces but a
  // lone frame never waits for wall time. Frames are never split across
  // writes.
  static constexpr std::size_t kUplinkBatchFrames = 32;
  static constexpr std::size_t kUplinkBatchBytes = 16 * 1024;

  [[nodiscard]] const RisStats& stats() const { return stats_; }
  /// Uplink codec counters for the current session; frames sent with
  /// compression off are not in them. Zero until the session's first frame
  /// sent with compression on creates the compressor.
  [[nodiscard]] const wire::CompressionStats& compression_stats() const {
    return session_.compression_stats();
  }

  /// Attaches this site to a trace sink (nullptr detaches). While the
  /// tracer is enabled, the capture path head-samples frames (the tracer's
  /// shared 1-in-N period), stamps the sampled trace id into the uplink
  /// tunnel header, and emits capture / uplink-flush spans into the
  /// "ris"/<site> ring; inbound traced frames emit replay spans (and a
  /// terminal stale-epoch instant when the epoch gate drops them). The
  /// tracer must outlive the RIS.
  void set_tracer(util::Tracer* tracer);
  [[nodiscard]] util::Tracer* tracer() const { return tracer_; }

 private:
  struct MappedPort {
    std::size_t device_port = 0;
    simnet::Port* nic = nullptr;  // the PC adapter wired to the device port
    wire::PortDeclaration declaration;
    wire::PortId assigned_id = 0;
  };
  struct Router {
    devices::Device* device = nullptr;
    wire::RouterDeclaration declaration;
    std::vector<MappedPort> ports;
    bool console = false;
    wire::RouterId assigned_id = 0;
    /// For slices: index into routers_ of the physical parent, or npos.
    std::size_t parent = npos;
    std::vector<std::size_t> slice_ports;  // parent-port indices
    std::string console_line_buffer;
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Installs `transport` as the session connection (detaching and closing
  /// any previous one), starts a fresh wire::Session and sends the JOIN.
  /// Used by join() and by every reconnect attempt.
  void start_session(std::unique_ptr<transport::Transport> transport);
  /// Close-handler path: decides whether this loss starts (or continues) an
  /// outage and schedules the next dial.
  void on_tunnel_lost();
  void schedule_reconnect();
  void attempt_reconnect();

  /// Flushes the open uplink batch, then sends one control frame (epoch 0)
  /// framed in the session's send buffer. No-op while the tunnel is down.
  void send_control(wire::MessageType type, wire::RouterId router,
                    util::BytesView payload);
  /// Zero-copy data-frame send: frames `frame` straight into the session's
  /// open uplink batch (no TunnelMessage, no payload copy). The counterpart
  /// of RouteServer::deliver_to_port.
  /// A nonzero `trace_id` rides the tunnel header (kFlagTraced) so the
  /// route server's spans for this frame join the same trace.
  void send_data(wire::RouterId router_id, wire::PortId port_id,
                 util::BytesView frame, std::uint64_t trace_id = 0);
  /// Hands the open uplink batch (if any) to the transport in one write.
  /// No-op on an empty batch; discards it if the tunnel is gone.
  void flush_uplink();
  void on_transport_data(util::BytesView chunk);
  void handle_message(const wire::MessageDecoder::DecodedView& decoded);
  void on_nic_frame(std::size_t router_index, std::size_t port_slot,
                    util::BytesView frame);
  void handle_console_input(Router& router, util::BytesView bytes);
  /// True while spans/instants should be emitted (tracer attached and
  /// enabled: one pointer test + one relaxed load).
  [[nodiscard]] bool tracing() const {
    return trace_ring_ != nullptr && tracer_->enabled();
  }

  simnet::Network& net_;
  std::string site_name_;
  /// Private deterministic stream for reconnect jitter, seeded from
  /// (world seed, site name) via util::derive_seed. Never the scheduler's
  /// shared rng(): with shard-per-core worlds, threads interleaving draws
  /// from a shared generator would make --faults replays nondeterministic.
  util::Rng jitter_rng_;
  std::string server_address_ = "netlabs.accenture.com";
  std::vector<Router> routers_;
  /// The JOIN payload built from routers_' declarations by the first session
  /// that needs it and resent by every reconnect. add_router, map_port,
  /// attach_console and declare_slices clear it, so the next session
  /// declares the changed inventory.
  util::Bytes join_payload_;
  std::unique_ptr<transport::Transport> transport_;
  bool compression_enabled_ = false;
  /// The zero-delay end-of-burst flush, armed by each append that opens a
  /// batch.
  simnet::Timer uplink_flush_;
  bool joined_ = false;
  util::Duration keepalive_interval_{util::Duration::seconds(10)};
  /// The heartbeat: sends a keepalive and re-arms while the tunnel is open.
  /// Each session cancels and re-arms it.
  simnet::Timer keepalive_;
  // -- Reconnect state machine --
  TransportFactory transport_factory_;
  ReconnectPolicy reconnect_policy_;
  /// Session epoch from the last JOIN ack; stamped into every kData frame.
  std::uint32_t epoch_ = 0;
  /// Set by leave() and the destructor: a closing tunnel is intentional,
  /// don't reconnect.
  bool leaving_ = false;
  /// True from the first loss until a JOIN ack completes the recovery.
  /// Backoff and the attempt budget reset only on that ack — a server that
  /// accepts and immediately drops us must not see a fresh budget per drop.
  bool in_outage_ = false;
  int attempts_this_outage_ = 0;
  util::Duration current_backoff_{};
  /// The pending dial; leave() cancels it.
  simnet::Timer reconnect_;
  RisStats stats_;
  // Observability: stats_ stays the single-writer hot-path ledger; the
  // registry reads it through "ris.<site>."-prefixed probes at dump time.
  util::MetricsRegistry* metrics_ = nullptr;
  std::string metrics_prefix_;
  /// The connection's wire state: decoder, codecs, and the send buffer
  /// holding the open uplink batch. start_session resets it.
  wire::Session session_;
  util::Histogram* capture_hist_ = nullptr;
  util::Histogram* replay_hist_ = nullptr;
  /// Data frames per uplink flush.
  util::Histogram* egress_batch_hist_ = nullptr;
  /// Distribution of the (jittered) delays the reconnect machine slept.
  util::Histogram* backoff_hist_ = nullptr;
  util::Tracer* tracer_ = nullptr;
  util::SpanRing* trace_ring_ = nullptr;  // this site's ring
  std::size_t nic_counter_ = 0;
  // (router_id, port_id) -> (router index, port slot) after the ack.
  std::map<std::pair<wire::RouterId, wire::PortId>,
           std::pair<std::size_t, std::size_t>>
      id_to_slot_;
  // (physical router index, port slot) -> slice router index owning it.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> slice_owner_;
};

}  // namespace rnl::ris
