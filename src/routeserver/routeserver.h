#pragma once

// The central back-end (§2.3, netlabs.accenture.com): inventory registry and
// packet route server.
//
// Responsibilities, straight from the paper:
//   - track every router RIS sites announce ("some of which ... could come
//     and go at any time");
//   - assign unique router/port ids at JOIN;
//   - maintain the routing matrix built from deployed designs and forward
//     each wrapped frame to the RIS at the other end of its virtual wire;
//   - per-wire WAN impairment injection (§3.5);
//   - traffic capture and generation on any port (§2.3: "the users can
//     generate arbitrary packets and send them to any router port.
//     Similarly, the user can specify which router port to monitor");
//   - console relay to any router with an attached console;
//   - optional per-user *distributed* route servers (§4): each user's
//     deployment can be pinned to its own forwarding instance, since
//     routing matrices of different users never overlap.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "simnet/scheduler.h"
#include "transport/transport.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "wire/compression.h"
#include "wire/netem.h"
#include "wire/tunnel.h"

namespace rnl::routeserver {

/// Inventory as shown in the web UI's left-hand column (Fig 2).
struct InventoryPort {
  wire::PortId id = 0;
  std::string name;
  std::string description;
  /// Clickable rectangle on the router's back-panel image, as declared by
  /// the lab manager in the RIS configuration (Fig 3).
  int rect_x = 0, rect_y = 0, rect_w = 0, rect_h = 0;

  [[nodiscard]] bool hit(int x, int y) const {
    return x >= rect_x && x < rect_x + rect_w && y >= rect_y &&
           y < rect_y + rect_h;
  }
};

struct InventoryRouter {
  wire::RouterId id = 0;
  std::string site;
  std::string name;
  std::string description;
  std::string image_file;
  bool has_console = false;
  bool online = true;
  std::vector<InventoryPort> ports;
};

struct CapturedFrame {
  wire::PortId port = 0;
  bool to_port = false;  // false: captured leaving the port; true: entering
  util::Bytes frame;
  util::SimTime at{};
};

/// Per-frame fast-path observability. "Fast path" means a raw (uncompressed)
/// frame that was forwarded with no capture active and zero heap allocations:
/// decoded as a view into the connection buffer, serialized straight into the
/// owning site's reusable send buffer. Every frame that had to allocate —
/// decompression, compression, a growing send buffer, an impaired wire, a
/// running capture — is a slow-path frame.
struct DataPlaneStats {
  std::uint64_t fast_path_frames = 0;
  std::uint64_t slow_path_frames = 0;
  /// Heap allocations observed on the per-frame path (send-buffer growth,
  /// (de)compression output buffers). Zero in steady state.
  std::uint64_t payload_allocs = 0;
  /// Payload bytes memcpy'd into send buffers (the one copy that remains:
  /// framing the payload behind its header for the transport).
  std::uint64_t bytes_copied = 0;
  /// Egress coalescing: transport writes that carried at least one data
  /// frame. Several forwarded frames share one write; frames_coalesced
  /// counts the transport sends avoided that way (batched frames beyond
  /// the first of each flush).
  std::uint64_t egress_flushes = 0;
  std::uint64_t frames_coalesced = 0;
};

struct RouteServerStats {
  std::uint64_t frames_routed = 0;
  std::uint64_t bytes_routed = 0;
  std::uint64_t unrouted_drops = 0;   // no matrix entry for source port
  std::uint64_t injected_frames = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t sites_joined = 0;
  std::uint64_t sites_lost = 0;
  /// Rejoins that rebound a previous incarnation's ids (same site name,
  /// matching inventory shape) instead of being assigned fresh ones.
  std::uint64_t sites_rejoined = 0;
  /// kData frames carrying a session epoch other than the site's current
  /// one — late traffic from a dead incarnation, counted and dropped.
  std::uint64_t stale_epoch_drops = 0;
  /// kData frames whose source port id is not owned by the sending site
  /// (pre-JOIN traffic, or a port id copied from another site's
  /// assignment) — spoofed, counted and dropped before routing.
  std::uint64_t spoofed_port_drops = 0;
  /// Matrix entries (wire ends) still live when their port came back online
  /// through a rejoin — the survived part of the routing matrix.
  std::uint64_t matrix_entries_restored = 0;
  /// kData frames dropped because the destination site was in the shedding
  /// regime (egress queue above the high watermark). The data class is the
  /// only one ever shed; control traffic defers instead.
  std::uint64_t shed_data_frames = 0;
  /// Control frames (kJoinAck/kError/kConsoleData) queued for a
  /// priority-ordered flush because the destination's egress was
  /// backpressured — deferred, never dropped.
  std::uint64_t control_frames_deferred = 0;
  /// Times any site entered the shedding regime.
  std::uint64_t shed_entries = 0;
  /// Sites evicted for exceeding the egress hard byte cap.
  std::uint64_t hard_cap_evictions = 0;
  /// Sites evicted for staying backpressured past the stall deadline.
  std::uint64_t stalled_evictions = 0;
  /// Parked (un-orderly lost) sites whose retained inventory was dropped
  /// because they stayed gone past the retention deadline. Their next_epoch
  /// survives — only the parked routers/ports memory is released.
  std::uint64_t sites_forgotten = 0;
  /// Frames routed over a cross-shard wire: handed to the remote-deliver
  /// handler (out) / received from another shard via deliver_remote (in).
  /// Zero on an unsharded server.
  std::uint64_t cross_shard_frames_out = 0;
  std::uint64_t cross_shard_frames_in = 0;
  DataPlaneStats dataplane;
};

class RouteServer {
 public:
  using ConsoleOutputHandler =
      std::function<void(wire::RouterId, util::BytesView)>;
  using InventoryChangedHandler = std::function<void()>;

  /// `metrics` is the registry this server publishes into (nullptr: the
  /// process-wide MetricsRegistry::global()). The registry must outlive the
  /// server; every RouteServerStats field is exposed as a read-only probe
  /// (prefix "routeserver."), and the server owns six histograms in it:
  /// forward latency (routed frames), inject latency (API-injected frames,
  /// kept separate so forward_ns totals track frames_routed exactly), netem
  /// applied delay, compression ratio, and the two batch-size distributions
  /// (egress_batch_frames, decode_batch_frames).
  explicit RouteServer(simnet::Scheduler& scheduler,
                       util::MetricsRegistry* metrics = nullptr);
  ~RouteServer();
  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  /// Accepts a new RIS connection (transport ownership transfers).
  void accept(std::unique_ptr<transport::Transport> transport);
  /// accept() plus an immediate replay of bytes that arrived before the
  /// hand-off — the sharded dispatch layer sniffs the JOIN on the front
  /// door and forwards whatever it buffered along with the transport.
  /// `join` is the sniff's parse of the first kJoin in `initial`: the
  /// replay hands it to handle_join instead of parsing that frame again.
  void accept(std::unique_ptr<transport::Transport> transport,
              util::BytesView initial, wire::JoinRequest join);

  // -- Sharding hooks (ShardedRouteServer; DESIGN.md §12) --
  // A plain RouteServer is one shard's whole world. The hooks below let N
  // instances share one id space and exchange frames over cross-shard
  // wires without any of them taking a lock on the per-frame path.

  /// Stripe id assignment: this server hands out router/port ids
  /// shard_index+1, shard_index+1+stride, ... so stride-many shards never
  /// collide and any id maps back to its owner as (id-1) % stride.
  /// Must be called before the first JOIN.
  void set_id_allocation(std::uint32_t shard_index, std::uint32_t stride);

  /// Invoked when a frame is routed into a cross-shard wire end: the
  /// destination port (already the *peer* port id, owned by another
  /// shard), the frame bytes (valid only for the call), and the frame's
  /// trace id (0 untraced). The handler copies into the SPSC ring toward
  /// the owning shard.
  using RemoteDeliverHandler =
      std::function<void(wire::PortId, util::BytesView, std::uint64_t)>;
  /// Invoked after this server tears down its end of a cross-shard wire
  /// (site loss or explicit disconnect) so the peer shard can clear the
  /// other end. Arguments: local port (this shard), peer port (remote).
  using RemoteDisconnectHandler =
      std::function<void(wire::PortId, wire::PortId)>;
  void set_remote_wire_handlers(RemoteDeliverHandler deliver,
                                RemoteDisconnectHandler disconnect);

  /// Installs this shard's end of a cross-shard wire: frames leaving
  /// `local` go to the remote-deliver handler addressed to `peer`. `wan`
  /// impairs this direction (each shard impairs what it sends, so a
  /// profile passed to both ends behaves like a local wire's). Fails if
  /// `local` is unknown or already wired.
  util::Status connect_port_remote(wire::PortId local, wire::PortId peer,
                                   wire::NetemProfile wan = {});
  /// Clears the local end of a cross-shard wire without invoking the
  /// remote-disconnect handler — the peer-shard half of a teardown.
  void clear_remote_wire_end(wire::PortId local);

  /// Delivers a frame that crossed shards into `port` (the receiving
  /// shard's drain loop calls this for every ring pop). Slow path by
  /// definition; the caller flushes once per drain burst via flush_egress.
  void deliver_remote(wire::PortId port, util::BytesView frame,
                      std::uint64_t trace_id = 0);
  /// Public end-of-burst flush for external delivery loops (ring drains).
  void flush_egress() { flush_pending(); }
  [[nodiscard]] std::size_t remote_wire_ends() const {
    return remote_wire_ends_;
  }

  /// Binds the data-plane owner-thread check to the calling thread (debug
  /// builds): every per-frame entry point RNL_DCHECKs it runs on this
  /// thread afterwards. A shard's thread loop calls this once at start.
  void bind_owner_thread();
  /// True when the calling thread is the bound data-plane owner. Posted
  /// command handlers RNL_DCHECK this (enforced by lint_concurrency.py).
  [[nodiscard]] bool on_owner_thread() const {
    return owner_thread_ == std::this_thread::get_id();
  }

  void set_compression_enabled(bool enabled) { compression_enabled_ = enabled; }
  /// Sites silent longer than `timeout` are presumed dead and dropped
  /// (checked once per `timeout`/4 of simulated time). Zero disables.
  void set_liveness_timeout(util::Duration timeout);

  // -- RetainedSite retention (bounded memory under churn) --
  /// How long a parked identity (un-orderly loss awaiting rejoin) keeps its
  /// retained inventory + surviving wires. The sweep rides the liveness
  /// pass, so retention only acts while a liveness timeout is set. A site
  /// forgotten this way can still rejoin — it just gets fresh ids, and its
  /// monotonic next_epoch is preserved so stale-frame gating never resets.
  /// Zero disables forgetting (the pre-retention behaviour).
  static constexpr util::Duration kDefaultRetentionDeadline =
      util::Duration::minutes(10);
  void set_retention_deadline(util::Duration deadline) {
    retention_deadline_ = deadline;
  }
  /// Parked identities currently holding retained inventory.
  [[nodiscard]] std::size_t retained_site_count() const;
  /// Ports across all retained (parked) inventory.
  [[nodiscard]] std::size_t retained_port_count() const;

  // -- Crash recovery hooks (journal-backed restart; DESIGN.md §14) --
  /// Fired whenever a JOIN advances a site name's monotonic epoch counter,
  /// with the name and the *next* epoch to hand out. A journal-backed
  /// deployment appends these so a restarted server can restore the
  /// counters and keep the stale-frame gate sound across restarts.
  using EpochObserver =
      std::function<void(const std::string& site, std::uint32_t next_epoch)>;
  void set_epoch_observer(EpochObserver observer) {
    epoch_observer_ = std::move(observer);
  }
  /// Restores a site name's epoch counter from a journal (max-merge: never
  /// moves the counter backwards). Call before the site rejoins.
  void restore_site_epoch(const std::string& site, std::uint32_t next_epoch);

  // -- Overload protection --
  // Per-site egress budget (§4: the route server is the shared bottleneck;
  // one stalled RIS must not exhaust it). Three regimes per site: normal;
  // *shedding* once transport-queued + deferred-control bytes reach `high`
  // (kData toward the site is dropped, control defers, until the queue
  // drains to `low`); *stalled* — over the hard cap, or shedding past the
  // stall deadline — evicted through remove_site(), so it rejoins with a
  // clean epoch instead of wedging the server. `high` == 0 disables.

  /// Default thresholds: generous enough that only a genuinely wedged
  /// consumer ever trips them (a full jumbo frame is ~9 KB).
  static constexpr std::size_t kDefaultEgressHigh = 256 * 1024;
  static constexpr std::size_t kDefaultEgressLow = 64 * 1024;
  static constexpr std::size_t kDefaultEgressHardCap = 4 * 1024 * 1024;

  /// Applies to every current and future site transport. `low` is clamped
  /// to `high`; `high` == 0 disables shedding (and stall eviction).
  void set_egress_watermarks(std::size_t high, std::size_t low);
  /// Queued bytes beyond which a site is evicted immediately. 0 disables.
  void set_egress_hard_cap(std::size_t cap) { egress_hard_cap_ = cap; }

  // -- Egress batching (forward fast path) --
  // Outgoing data frames toward one site accumulate in its reusable send
  // buffer and flush in a single transport write. A batch flushes when it
  // reaches kEgressBatchFrames frames or kEgressBatchBytes buffered bytes,
  // when the site's egress crosses the high watermark (so transport
  // backpressure — and with it per-frame shedding — engages promptly),
  // before any control frame toward the same site (FIFO across classes is
  // preserved), and at the end of every delivery burst (end of a readable
  // event, an inject_frame call, or an impaired-wire hand-off) so no frame
  // ever waits for unrelated traffic. Frames are never split across writes.

  /// Large enough to amortize per-write costs, small enough that a batch
  /// stays well below the default egress watermarks.
  static constexpr std::size_t kEgressBatchFrames = 32;
  static constexpr std::size_t kEgressBatchBytes = 32 * 1024;
  /// How long a site may stay in the shedding regime without draining back
  /// to the low watermark before it is evicted. Zero disables.
  void set_stall_deadline(util::Duration deadline) {
    stall_deadline_ = deadline;
  }
  /// True while any joined site is in the shedding regime — the admission
  /// probe LabService::deploy consults before programming new wires.
  [[nodiscard]] bool overloaded() const { return sites_shedding_ != 0; }
  [[nodiscard]] std::size_t sites_shedding() const { return sites_shedding_; }
  void set_console_output_handler(ConsoleOutputHandler handler) {
    console_output_ = std::move(handler);
  }
  void set_inventory_changed_handler(InventoryChangedHandler handler) {
    inventory_changed_ = std::move(handler);
  }

  // -- Inventory --
  [[nodiscard]] std::vector<InventoryRouter> inventory() const;
  [[nodiscard]] std::optional<InventoryRouter> find_router(
      wire::RouterId id) const;
  [[nodiscard]] bool port_exists(wire::PortId id) const;

  // -- Routing matrix --
  /// Connects two ports with a virtual wire. Fails if either port is already
  /// wired (matrix entries of simultaneous test labs must not overlap) or
  /// unknown. `wan` impairs the wire in both directions (§3.5).
  util::Status connect_ports(wire::PortId a, wire::PortId b,
                             wire::NetemProfile wan = {});
  /// Tears down the wire at `port` (both directions). No-op if unwired.
  void disconnect_port(wire::PortId port);
  [[nodiscard]] std::optional<wire::PortId> connected_to(
      wire::PortId port) const;
  [[nodiscard]] std::size_t wire_count() const;

  // -- Capture & generation (§2.3) --
  void start_capture(wire::PortId port);
  /// Stops capturing and returns everything seen.
  std::vector<CapturedFrame> stop_capture(wire::PortId port);
  [[nodiscard]] std::size_t capture_size(wire::PortId port) const;
  /// Injects a frame *into* the given router port, as if it arrived on the
  /// port's virtual wire.
  util::Status inject_frame(wire::PortId port, util::BytesView frame);

  // -- Console --
  /// Sends bytes to a router's console; output arrives via the handler.
  util::Status console_send(wire::RouterId router, util::BytesView bytes);

  [[nodiscard]] const RouteServerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  /// Dense port-table footprint (slots, not live ports) — the fleet soak's
  /// memory-bound proxy: it grows only with the highest id ever assigned.
  [[nodiscard]] std::size_t port_table_slots() const { return ports_.size(); }

  // -- Observability --
  [[nodiscard]] util::MetricsRegistry& metrics() const { return *metrics_; }
  /// Attaches the server to a trace sink (nullptr detaches). While the
  /// tracer is enabled, frames whose tunnel header carries kFlagTraced emit
  /// per-stage spans (decode batch, matrix lookup, egress enqueue/flush,
  /// end-to-end forward) into the "routeserver" ring, drops become instant
  /// events carrying the frame's trace id, and every frame's already-
  /// measured forward latency is tail-checked against the forward
  /// histogram's p99 — exceeders commit a span set + slow-frame ledger
  /// entry even when head sampling missed them. Lifecycle transitions
  /// (shedding watermarks, evictions, epoch bumps, rejoins) join the same
  /// timeline. The tracer must outlive the server. The server registers
  /// its forward histogram with the tracer's tail aggregation, so the slow-
  /// frame gate compares against the p99 across every shard sharing the
  /// tracer, not this shard alone.
  void set_tracer(util::Tracer* tracer) { set_tracer(tracer, "server"); }
  /// Sharded form: `ring_label` names this server's span ring (Perfetto
  /// tid), so shards sharing one tracer get distinct rings.
  void set_tracer(util::Tracer* tracer, const std::string& ring_label);
  [[nodiscard]] util::Tracer* tracer() const { return tracer_; }

 private:
  struct Site {
    std::unique_ptr<transport::Transport> transport;
    wire::MessageDecoder decoder;
    // Per-direction codecs: decompress what the site sends, compress what
    // we send to it.
    wire::TemplateDecompressor decompressor;
    wire::TemplateCompressor compressor;
    /// Reusable buffers: outgoing frames serialize straight into
    /// `send_buffer` (cleared, capacity kept), and decompressed inbound
    /// payloads land in `inflate_buffer`. Both stop allocating once they
    /// have seen the site's largest frame.
    util::ByteWriter send_buffer;
    util::Bytes inflate_buffer;
    std::string name;
    std::vector<wire::RouterId> router_ids;
    /// The dispatch layer's parse of this connection's first kJoin, which
    /// handle_join consumes in place of parsing the replayed frame.
    std::optional<wire::JoinRequest> sniffed_join;
    /// Position in sites_ (purge_dead_sites swap-removes by it).
    std::size_t index = 0;
    bool joined = false;
    /// Logically removed; physically destroyed at the next safe point (a
    /// site is often dropped from inside its own transport callback, so it
    /// cannot be freed synchronously). remove_site queues it in dead_sites_.
    bool dead = false;
    /// Session epoch assigned at JOIN (0 for a name's first session). Every
    /// kData frame in either direction is stamped with it (mod 256); a
    /// mismatch marks traffic from a dead incarnation.
    std::uint32_t epoch = 0;
    /// Liveness: last time any message (incl. kKeepalive) arrived.
    util::SimTime last_heard{};
    /// Egress regime: true while this site's egress queue has crossed the
    /// high watermark and not yet drained back to the low one. kData toward
    /// the site is shed; control defers into pending_control.
    bool shedding = false;
    /// When the current shedding episode began (stall deadline base).
    util::SimTime shed_since{};
    /// Control frames deferred while backpressured, flushed — before any
    /// new data — when the transport drains. Never shed; their bytes count
    /// toward the hard cap so even control spam to a wedged site is bounded.
    std::deque<util::Bytes> pending_control;
    std::size_t pending_control_bytes = 0;
    /// Egress batch: data frames already serialized into send_buffer but
    /// not yet handed to the transport. pending_data_bytes mirrors
    /// send_buffer.size() while a batch is open; both are zeroed *before*
    /// the flush's transport->send so egress accounting counts each byte
    /// exactly once (never both here and in transport->queued_bytes()),
    /// even when the send tears the site down reentrantly.
    std::size_t pending_data_frames = 0;
    std::size_t pending_data_bytes = 0;
    /// True while the site sits in flush_list_. Guards the push in
    /// deliver_to_port: flush_site runs directly on frame-cap/watermark/
    /// control triggers without removing the entry, so without this flag
    /// one burst could enqueue the same site repeatedly. Cleared only by
    /// flush_pending, which actually drains the list.
    bool in_flush_list = false;
    /// Trace id of the first traced frame in the open egress batch (0 if
    /// none): a flush carries many frames, so its span is attributed to the
    /// first traced one. Reset by flush_site.
    std::uint64_t batch_trace_id = 0;
  };

  /// Per-site-name state that outlives any one connection. An un-orderly
  /// death (liveness eviction, transport error) parks the site's inventory
  /// here — off the books for inventory()/port_exists(), but keeping its
  /// router/port ids and surviving matrix wires reserved so the site can
  /// rejoin as the same identity. An orderly kLeave retains nothing.
  /// `next_epoch` is monotonic per name and never reset: a late frame from
  /// any previous incarnation can always be told apart.
  struct RetainedSite {
    std::uint32_t next_epoch = 0;
    /// The joined session currently holding this name (nullptr: none).
    /// handle_join sets it and supersedes through it; remove_site clears
    /// it before the Site can be freed.
    Site* live = nullptr;
    std::vector<InventoryRouter> routers;  // empty unless awaiting rejoin
    /// When the inventory was parked (un-orderly loss). The retention sweep
    /// forgets parked inventory older than the retention deadline.
    util::SimTime parked_at{};
  };

  struct PortRecord {
    Site* site = nullptr;  // nullptr: slot unassigned or site departed
    wire::RouterId router = 0;
  };

  struct WireEnd {
    wire::PortId peer = 0;  // 0: unwired (port ids start at 1)
    std::unique_ptr<wire::Netem> netem;  // impairment toward `peer`
    /// True when `peer` lives on another shard: frames leaving this end go
    /// through the remote-deliver handler instead of deliver_to_port.
    bool remote = false;
  };

  void on_site_data(Site* site, util::BytesView chunk);
  void handle_message(Site* site,
                      const wire::MessageDecoder::DecodedView& decoded);
  void handle_join(Site* site, const wire::MessageDecoder::DecodedView& msg);
  void handle_data(Site* site, const wire::MessageDecoder::DecodedView& msg);
  /// Unified teardown for every way a site leaves — explicit kLeave
  /// (`orderly`), liveness eviction, transport error/close (un-orderly).
  /// Both paths clear the port tables and captures atomically; un-orderly
  /// removal additionally parks the inventory in site_registry_ (wires kept)
  /// so a rejoin under the same name gets its ids and matrix back.
  void remove_site(Site* site, bool orderly);
  /// Tries to rebind `request`'s inventory to the ids retained from the
  /// site's previous incarnation. Returns false (after discarding the stale
  /// retained state) if the declared shape no longer matches.
  bool rebind_retained(Site* site, const wire::JoinRequest& request,
                       RetainedSite& registry, wire::JoinAck& ack);
  /// Frees the sites remove_site queued in dead_sites_. Only called from
  /// contexts where no site transport callback can be on the stack
  /// (accept, destruction).
  void purge_dead_sites();
  /// Retention sweep (rides the liveness loop): drops retained inventory —
  /// and tears down its surviving wires — for identities parked longer
  /// than the retention deadline. next_epoch entries are kept (tiny, and
  /// the basis of the stale-frame gate).
  void forget_expired_retained(util::SimTime now);
  /// Ships a frame to the RIS owning `port` (direction: into the port).
  /// `slow` marks frames that already left the zero-allocation path
  /// upstream (decompressed, or re-materialized by an impaired wire).
  /// A nonzero `trace_id` rides the outgoing tunnel header (kFlagTraced)
  /// so the peer RIS's replay span joins the same trace.
  void deliver_to_port(wire::PortId port, util::BytesView frame,
                       bool slow = false, std::uint64_t trace_id = 0);
  /// Serializes a control message into the site's send buffer and ships it
  /// — or, while the site's egress is backpressured, defers it for the
  /// priority flush (control is never shed).
  void send_control(Site* site, wire::MessageType type, wire::RouterId router,
                    util::BytesView payload);
  /// Where a site stands against its egress budget right now.
  enum class EgressVerdict { kOk, kShedding, kEvictHardCap, kEvictStalled };
  /// Re-evaluates the site's regime (entering shedding as a side effect)
  /// and reports whether it must be evicted. Does not evict by itself so
  /// sweep callers can defer the close out of their iteration.
  EgressVerdict egress_verdict(Site* site);
  /// Books the eviction (stats, trace instant, log) and closes the site's
  /// transport — the close handler runs the un-orderly remove_site(), so
  /// the site rejoins through the epoch machinery.
  void evict_for_overload(Site* site, EgressVerdict verdict);
  /// Transport drain callback: flush deferred control first (priority
  /// order), then leave the shedding regime if the queue is at/below low.
  void on_site_drained(Site* site);
  /// Hands the site's open egress batch (if any) to the transport in one
  /// write. Safe on dead sites (discards) and on empty batches (no-op).
  void flush_site(Site* site);
  /// End-of-burst flush: drains every site with an open batch. Called after
  /// each decode loop, inject, and impaired-wire delivery.
  void flush_pending();
  [[nodiscard]] std::size_t egress_queued(const Site* site) const {
    // Unflushed batch bytes count toward the egress budget: shedding must
    // trigger per-frame even while the bytes are still in the send buffer.
    return site->transport->queued_bytes() + site->pending_control_bytes +
           site->pending_data_bytes;
  }
  void note_capture(wire::PortId port, bool to_port, util::BytesView frame);
  /// True while spans/instants should be emitted: tracer attached + enabled
  /// (one pointer test + one relaxed atomic load on the per-frame path).
  [[nodiscard]] bool tracing() const {
    return trace_ring_ != nullptr && tracer_->enabled();
  }
  /// Emits a lifecycle instant (drop reason, eviction, watermark...) when
  /// tracing; no-op otherwise.
  void trace_instant(util::TraceInstant detail, std::uint64_t trace_id,
                     std::uint32_t arg);
  /// Grows the dense port-indexed tables to cover ids < `limit`.
  void ensure_port_tables(wire::PortId limit);
  [[nodiscard]] PortRecord* port_record(wire::PortId port) {
    if (port >= ports_.size() || ports_[port].site == nullptr) return nullptr;
    return &ports_[port];
  }

  simnet::Scheduler& scheduler_;
  /// Every site not yet freed, in no particular order (swap-remove).
  std::vector<std::unique_ptr<Site>> sites_;
  /// Sites removed since the last purge, each queued once by remove_site.
  std::vector<Site*> dead_sites_;
  std::map<wire::RouterId, InventoryRouter> routers_;
  std::map<wire::RouterId, Site*> router_sites_;
  /// Keyed by site name; see RetainedSite.
  std::map<std::string, RetainedSite> site_registry_;
  // Dense tables indexed by the server-assigned sequential port id (slot 0
  // unused). The per-frame path does two bounded vector loads where the old
  // std::map design chased red-black-tree nodes.
  std::vector<PortRecord> ports_;
  std::vector<WireEnd> matrix_;
  std::vector<std::unique_ptr<std::vector<CapturedFrame>>> captures_;
  /// Number of ports with a live capture buffer; the per-frame capture check
  /// is this single compare against zero.
  std::size_t active_captures_ = 0;
  std::size_t port_count_ = 0;  // live (site != nullptr) entries in ports_
  /// Sites that are live (not dead), joined and shedding, kept at each
  /// regime transition so deploy admission never scans the shard.
  std::size_t sites_shedding_ = 0;
  std::size_t wires_ = 0;       // live wires (matrix entries / 2)
  ConsoleOutputHandler console_output_;
  InventoryChangedHandler inventory_changed_;
  bool compression_enabled_ = false;
  std::size_t egress_high_ = kDefaultEgressHigh;
  std::size_t egress_low_ = kDefaultEgressLow;
  std::size_t egress_hard_cap_ = kDefaultEgressHardCap;
  /// Sites with an open egress batch, in first-frame order, deduplicated
  /// by Site::in_flush_list. Entries may be dead or already drained by
  /// flush time (flush_site discards / no-ops); Site objects stay alive
  /// until purge_dead_sites(), so raw pointers are safe here.
  std::vector<Site*> flush_list_;
  util::Duration stall_deadline_{util::Duration::seconds(30)};
  util::Duration liveness_timeout_{};
  util::Duration retention_deadline_{kDefaultRetentionDeadline};
  EpochObserver epoch_observer_;
  // Owns the liveness sweep loop; scheduled copies hold weak references.
  std::shared_ptr<std::function<void()>> liveness_loop_;
  wire::RouterId next_router_id_ = 1;
  wire::PortId next_port_id_ = 1;
  /// Id allocation stride (set_id_allocation): 1 on an unsharded server.
  std::uint32_t id_stride_ = 1;
  /// Cross-shard wiring (all control-plane; the per-frame path only tests
  /// WireEnd::remote).
  RemoteDeliverHandler remote_deliver_;
  RemoteDisconnectHandler remote_disconnect_;
  std::size_t remote_wire_ends_ = 0;
  /// Owner-thread pin for the data-plane entry points (debug builds; see
  /// bind_owner_thread). Default-bound to the constructing thread.
  std::thread::id owner_thread_ = std::this_thread::get_id();
  RouteServerStats stats_;
  // Observability. stats_ stays the hot path's single-writer ledger; the
  // registry reads it through probes at dump time, so the two can never
  // disagree. The histograms are registry-owned (stable addresses).
  util::MetricsRegistry* metrics_ = nullptr;
  util::Histogram* forward_hist_ = nullptr;
  util::Tracer::TailRegistration tail_registration_;
  util::Histogram* inject_hist_ = nullptr;
  /// Batch-size distributions: data frames per egress flush / decoded
  /// messages per readable event. Both count 1s when batching is off or
  /// the peer sends frame-per-chunk, so a regression to unbatched I/O is
  /// visible as a collapsed p99.
  util::Histogram* egress_batch_hist_ = nullptr;
  util::Histogram* decode_batch_hist_ = nullptr;
  util::Histogram* netem_delay_hist_ = nullptr;
  util::Histogram* compression_ratio_hist_ = nullptr;
  util::Tracer* tracer_ = nullptr;
  util::SpanRing* trace_ring_ = nullptr;  // the server's own ring
};

}  // namespace rnl::routeserver
