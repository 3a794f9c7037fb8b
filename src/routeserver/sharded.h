#pragma once

// Shard-per-core route server (§4 scaled out; DESIGN.md §12).
//
// The paper's answer to the central route server bottleneck is *distributed*
// route servers — one per user, since "routing matrices of different users
// never overlap". This layer finishes that thought for one process: N
// independent RouteServer shards, each a complete single-threaded world
// (own scheduler slice, own MetricsRegistry, own flat port tables, capture
// taps, egress regimes and coalesced egress queues), placed by hashing the
// site (lab/user) name. A shard never takes a lock on its per-frame path;
// everything crossing shard boundaries goes through exactly two mechanisms:
//
//   - Cross-shard wires: when a deployed design really does wire two ports
//     owned by different shards, each side installs a remote WireEnd
//     (RouteServer::connect_port_remote). Frames crossing over are copied
//     into a lock-free SPSC ring (util::SpscRing) toward the owning shard
//     — one ring per ordered shard pair, so single-producer/single-consumer
//     holds by construction. A full ring drops the frame (counted), like a
//     congested physical wire.
//   - Command queues: rare control-plane work (place a joining site, clear
//     the far end of a torn-down wire, snapshot stats/metrics) is posted to
//     the owning shard's mutex-guarded queue and runs on its thread between
//     bursts. run_on_shard() posts and waits; shards themselves only ever
//     post (never wait), so there is no cross-shard deadlock.
//
// Id space: shard s hands out router/port ids s+1, s+1+N, ... (stride N via
// RouteServer::set_id_allocation), so ids are process-unique and any port
// maps to its owner in one modulo — no shared allocator, no lookup table.
//
// Threading modes: cooperative (no start(); the caller pumps every shard
// from one thread — deterministic tests, sim worlds sharing a scheduler)
// and threaded (start() spawns one loop thread per shard; stop() joins).
// Snapshot APIs (stats, metrics_json, inventory) work in both: they hop to
// each shard via run_on_shard and merge, so probe callbacks always read
// their instruments from the owning thread.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "routeserver/routeserver.h"
#include "util/spsc.h"

namespace rnl::routeserver {

/// One frame crossing shards: the destination port (owned by the consumer
/// shard), the trace id (0 untraced), and an owning copy of the bytes (the
/// producer's view dies with its decode burst).
struct CrossShardFrame {
  wire::PortId dst_port = 0;
  std::uint64_t trace_id = 0;
  util::Bytes bytes;
};

class ShardedRouteServer {
 public:
  /// Slots per cross-shard wire ring.
  static constexpr std::size_t kWireRingCapacity = 4096;

  struct Options {
    std::size_t shards = 1;
    /// Base seed for internally-owned shard schedulers (shard s gets
    /// derive_seed(seed, "shard<s>")).
    std::uint64_t seed = 1;
    /// Virtual time each pump iteration advances a shard's scheduler.
    util::Duration pump_slice{util::Duration::microseconds(100)};
    /// Optional external schedulers, one per shard (sim benches own the
    /// shard worlds; the shard loop then drives RIS sites and the server
    /// slice together). Empty: each shard owns a fresh scheduler.
    std::vector<simnet::Scheduler*> schedulers;
    /// Optional shared tracer: each shard registers a distinct span ring
    /// ("shard<s>") and its forward histogram joins the tail aggregation.
    util::Tracer* tracer = nullptr;
  };

  explicit ShardedRouteServer(Options options);
  ~ShardedRouteServer();
  ShardedRouteServer(const ShardedRouteServer&) = delete;
  ShardedRouteServer& operator=(const ShardedRouteServer&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Owner of a (striped) port id: (id - 1) % shard_count.
  [[nodiscard]] static std::size_t shard_of_port(wire::PortId port,
                                                 std::size_t shard_count);
  [[nodiscard]] std::size_t shard_of_port(wire::PortId port) const {
    return shard_of_port(port, shards_.size());
  }
  /// Placement hash (FNV-1a of the site name, mod shard count) — the
  /// matrix already partitions by lab/user, so hashing the site name keeps
  /// almost every wire shard-local.
  [[nodiscard]] std::size_t shard_of_site(std::string_view site_name) const;

  /// Direct shard access. Control-plane calls into a shard's RouteServer
  /// must run on its thread (run_on_shard) once start() has been called.
  [[nodiscard]] RouteServer& shard(std::size_t s) {
    return *shards_[s]->server;
  }

  // -- Site intake --

  /// Hands a transport whose site is already known to belong to shard `s`
  /// (cooperative mode, or from a command already on the shard's thread).
  void accept(std::size_t s, std::unique_ptr<transport::Transport> transport);

  /// Front door: buffers the connection, sniffs the JOIN to learn the site
  /// name, and places it on hash(site_name) at the next pump_dispatch(),
  /// handing the shard the parsed JOIN along with the buffered bytes.
  /// The transport's callbacks keep firing on the calling (dispatch)
  /// thread until placement.
  void dispatch(std::unique_ptr<transport::Transport> transport);
  /// Places every pending connection whose JOIN has arrived and reaps
  /// failed ones. Call from the dispatch thread's loop — never from inside
  /// a transport callback (placement re-targets the handlers). Placement is
  /// cooperative-mode only: while shards run threaded it logs and closes
  /// the connection, since a live transport is bound to this thread's loop.
  void pump_dispatch();
  [[nodiscard]] std::size_t pending_dispatch() const {
    return pending_.size();
  }

  // -- Control plane (callable from the control thread in either mode) --

  /// Wires two ports; same-shard pairs use the shard's local matrix,
  /// cross-shard pairs install one remote end per side.
  util::Status connect_ports(wire::PortId a, wire::PortId b,
                             wire::NetemProfile wan = {});
  void disconnect_port(wire::PortId port);
  [[nodiscard]] std::vector<InventoryRouter> inventory();
  /// Resolves ("router name", "port name") against the merged inventory.
  [[nodiscard]] wire::PortId port_id(std::string_view router_name,
                                     std::string_view port_name);
  [[nodiscard]] RouteServerStats stats();
  /// Per-shard registry snapshots merged into one registry-shaped Json
  /// (MetricsRegistry::merge_snapshots).
  [[nodiscard]] util::Json metrics_json();
  [[nodiscard]] std::size_t wire_count();
  [[nodiscard]] std::uint64_t cross_shard_ring_drops() const;

  // -- Threading --

  /// Spawns one loop thread per shard: drain commands, drain wire rings,
  /// run the optional per-shard pump, advance the scheduler one slice.
  void start();
  /// Stops and joins all shard threads (final drain included). Idempotent.
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// Extra per-iteration work on shard `s`'s thread (e.g. a TcpEventLoop
  /// run_once). Returns whether it did anything; an idle iteration (no
  /// commands, no ring frames, no scheduler events, pump false) sleeps
  /// briefly so parked shards do not spin. Set before start().
  void set_shard_pump(std::size_t s, std::function<bool()> pump);
  /// Fire-and-forget command on shard `s` (thread-safe; shards use this to
  /// reach each other). Runs inline at the next pump in cooperative mode.
  void post(std::size_t s, std::function<void()> fn);
  /// Posts and waits (spin-yield). Control thread only — a shard calling
  /// this would stall its own loop.
  void run_on_shard(std::size_t s, std::function<void()> fn);
  /// Cooperative mode: one pump iteration for every shard plus dispatch.
  void pump_all();

  /// CPU seconds shard `s`'s loop thread has consumed
  /// (CLOCK_THREAD_CPUTIME_ID; 0 before start()). On a box with fewer
  /// cores than shards, max-over-shards of this is the scaling bench's
  /// critical-path denominator — see bench_routeserver_scaling.
  [[nodiscard]] double shard_cpu_seconds(std::size_t s) const;

 private:
  struct Shard {
    std::unique_ptr<simnet::Scheduler> owned_scheduler;
    simnet::Scheduler* scheduler = nullptr;
    std::unique_ptr<util::MetricsRegistry> metrics;
    std::unique_ptr<RouteServer> server;
    /// inbound[p]: frames from producer shard p (SPSC: p's thread pushes,
    /// this shard's thread pops).
    std::vector<std::unique_ptr<util::SpscRing<CrossShardFrame>>> inbound;
    std::mutex command_mutex;
    std::deque<std::function<void()>> commands;
    std::function<bool()> pump;
    std::thread thread;
    std::atomic<std::uint64_t> cpu_ns{0};
  };

  struct PendingSite {
    std::unique_ptr<transport::Transport> transport;
    util::Bytes buffered;
    wire::MessageDecoder sniffer;
    /// The sniffed JOIN (valid once `ready`), handed to the shard.
    wire::JoinRequest join;
    bool ready = false;
    bool failed = false;
  };

  void shard_loop(std::size_t s);
  /// One pump iteration; returns true if any work happened.
  bool pump_shard(std::size_t s);
  std::size_t drain_commands(std::size_t s);
  std::size_t drain_wires(std::size_t s);
  void on_dispatch_data(PendingSite* pending, util::BytesView chunk);
  void place(PendingSite* pending);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::vector<std::unique_ptr<PendingSite>> pending_;
};

}  // namespace rnl::routeserver
