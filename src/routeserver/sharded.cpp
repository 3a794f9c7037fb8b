#include "routeserver/sharded.h"

#include <chrono>
#include <ctime>

#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"

namespace rnl::routeserver {

namespace {
constexpr const char* kLog = "sharded";

/// Pre-JOIN byte budget per pending connection: a JOIN for a large site is
/// a few KB of JSON; anything past this without one is a garbage stream.
constexpr std::size_t kMaxPreJoinBytes = 64 * 1024;

/// How long an idle shard loop sleeps between pump iterations. Short
/// enough that a parked shard reacts to new commands/ring frames promptly;
/// long enough that idle shards consume negligible CPU (which also keeps
/// the bench's per-thread CPU measurements honest).
constexpr auto kIdleSleep = std::chrono::microseconds(50);

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

void accumulate(RouteServerStats& total, const RouteServerStats& part) {
  total.frames_routed += part.frames_routed;
  total.bytes_routed += part.bytes_routed;
  total.unrouted_drops += part.unrouted_drops;
  total.injected_frames += part.injected_frames;
  total.decode_errors += part.decode_errors;
  total.sites_joined += part.sites_joined;
  total.sites_lost += part.sites_lost;
  total.sites_rejoined += part.sites_rejoined;
  total.sites_forgotten += part.sites_forgotten;
  total.stale_epoch_drops += part.stale_epoch_drops;
  total.spoofed_port_drops += part.spoofed_port_drops;
  total.matrix_entries_restored += part.matrix_entries_restored;
  total.shed_data_frames += part.shed_data_frames;
  total.control_frames_deferred += part.control_frames_deferred;
  total.shed_entries += part.shed_entries;
  total.hard_cap_evictions += part.hard_cap_evictions;
  total.stalled_evictions += part.stalled_evictions;
  total.cross_shard_frames_out += part.cross_shard_frames_out;
  total.cross_shard_frames_in += part.cross_shard_frames_in;
  total.dataplane.fast_path_frames += part.dataplane.fast_path_frames;
  total.dataplane.slow_path_frames += part.dataplane.slow_path_frames;
  total.dataplane.payload_allocs += part.dataplane.payload_allocs;
  total.dataplane.bytes_copied += part.dataplane.bytes_copied;
  total.dataplane.egress_flushes += part.dataplane.egress_flushes;
  total.dataplane.frames_coalesced += part.dataplane.frames_coalesced;
}

}  // namespace

ShardedRouteServer::ShardedRouteServer(Options options)
    : options_(std::move(options)) {
  const std::size_t n = options_.shards == 0 ? 1 : options_.shards;
  RNL_DCHECK(options_.schedulers.empty() || options_.schedulers.size() == n);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    if (s < options_.schedulers.size() && options_.schedulers[s] != nullptr) {
      shard->scheduler = options_.schedulers[s];
    } else {
      shard->owned_scheduler = std::make_unique<simnet::Scheduler>(
          util::derive_seed(options_.seed, "shard" + std::to_string(s)));
      shard->scheduler = shard->owned_scheduler.get();
    }
    shard->metrics = std::make_unique<util::MetricsRegistry>();
    shard->server = std::make_unique<RouteServer>(*shard->scheduler,
                                                 shard->metrics.get());
    shard->server->set_id_allocation(static_cast<std::uint32_t>(s),
                                     static_cast<std::uint32_t>(n));
    if (options_.tracer != nullptr) {
      shard->server->set_tracer(options_.tracer,
                                "shard" + std::to_string(s));
    }
    shard->inbound.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
      shard->inbound.push_back(
          std::make_unique<util::SpscRing<CrossShardFrame>>(kWireRingCapacity));
    }
    shards_.push_back(std::move(shard));
  }
  // Wire the cross-shard handlers. The deliver handler runs on shard s's
  // thread (inside its forwarding path), so pushing into inbound[s] of the
  // destination preserves the one-producer-one-consumer contract.
  for (std::size_t s = 0; s < n; ++s) {
    shards_[s]->server->set_remote_wire_handlers(
        [this, s](wire::PortId dst, util::BytesView frame,
                  std::uint64_t trace_id) {
          const std::size_t d = shard_of_port(dst);
          shards_[d]->inbound[s]->push(
              CrossShardFrame{dst, trace_id,
                              util::Bytes(frame.begin(), frame.end())});
        },
        [this](wire::PortId /*local*/, wire::PortId peer) {
          const std::size_t d = shard_of_port(peer);
          post(d, [this, d, peer] {
            RNL_DCHECK(shards_[d]->server->on_owner_thread());
            shards_[d]->server->clear_remote_wire_end(peer);
          });
        });
  }
}

ShardedRouteServer::~ShardedRouteServer() { stop(); }

std::size_t ShardedRouteServer::shard_of_port(wire::PortId port,
                                              std::size_t shard_count) {
  if (shard_count <= 1 || port == 0) return 0;
  return static_cast<std::size_t>(port - 1) % shard_count;
}

std::size_t ShardedRouteServer::shard_of_site(
    std::string_view site_name) const {
  return static_cast<std::size_t>(fnv1a(site_name)) % shards_.size();
}

// ---------------------------------------------------------------------------
// Site intake
// ---------------------------------------------------------------------------

void ShardedRouteServer::accept(
    std::size_t s, std::unique_ptr<transport::Transport> transport) {
  shards_[s]->server->accept(std::move(transport));
}

void ShardedRouteServer::dispatch(
    std::unique_ptr<transport::Transport> transport) {
  auto pending = std::make_unique<PendingSite>();
  PendingSite* raw = pending.get();
  pending->transport = std::move(transport);
  pending->transport->set_close_handler([raw] { raw->failed = true; });
  pending->transport->set_receive_handler(
      [this, raw](util::BytesView chunk) { on_dispatch_data(raw, chunk); });
  pending_.push_back(std::move(pending));
}

void ShardedRouteServer::on_dispatch_data(PendingSite* pending,
                                          util::BytesView chunk) {
  if (pending->failed || pending->ready) {
    // Post-JOIN bytes between sniffing and placement still land in the
    // buffer: they replay into the shard along with the JOIN itself.
    if (pending->ready) {
      pending->buffered.insert(pending->buffered.end(), chunk.begin(),
                               chunk.end());
    }
    return;
  }
  pending->buffered.insert(pending->buffered.end(), chunk.begin(),
                           chunk.end());
  if (pending->buffered.size() > kMaxPreJoinBytes) {
    RNL_LOG(kWarn, kLog) << "dropping connection: " << pending->buffered.size()
                         << " bytes without a JOIN";
    pending->failed = true;
    return;
  }
  // Sniff with a side decoder; the buffered bytes are replayed untouched
  // into the shard's own decoder after placement.
  const auto& messages = pending->sniffer.feed_views(chunk);
  if (pending->sniffer.failed()) {
    pending->failed = true;
    return;
  }
  for (const auto& decoded : messages) {
    if (decoded.type != wire::MessageType::kJoin) continue;  // keepalives...
    auto json = util::Json::parse(std::string_view(
        reinterpret_cast<const char*>(decoded.payload.data()),
        decoded.payload.size()));
    if (!json.ok()) {
      pending->failed = true;
      return;
    }
    auto request = wire::JoinRequest::from_json(json.value());
    if (!request.ok()) {
      pending->failed = true;
      return;
    }
    // Kept for the shard: handle_join uses it instead of parsing this
    // frame again when the buffered bytes replay.
    pending->join = std::move(request).take();
    pending->ready = true;
    return;
  }
}

void ShardedRouteServer::place(PendingSite* pending) {
  // Detach the sniffing handlers first: the raw PendingSite pointer they
  // capture dies with this placement.
  pending->transport->set_receive_handler(nullptr);
  pending->transport->set_close_handler(nullptr);
  const std::size_t s = shard_of_site(pending->join.site_name);
  if (running()) {
    // A live transport is bound to this (dispatch) thread's event loop;
    // handing the object itself to a shard thread would split one
    // connection across two threads, and nothing migrates it.
    RNL_LOG(kError, kLog)
        << "cannot place a site while shards are threaded; closing '"
        << pending->join.site_name << "'";
    pending->transport->close();
    return;
  }
  shards_[s]->server->accept(std::move(pending->transport),
                             pending->buffered, std::move(pending->join));
}

void ShardedRouteServer::pump_dispatch() {
  for (std::size_t i = 0; i < pending_.size();) {
    PendingSite* pending = pending_[i].get();
    if (pending->failed) {
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (pending->ready) {
      place(pending);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

util::Status ShardedRouteServer::connect_ports(wire::PortId a, wire::PortId b,
                                               wire::NetemProfile wan) {
  if (a == b) return util::Error{"connect_ports: port cannot loop to itself"};
  const std::size_t sa = shard_of_port(a);
  const std::size_t sb = shard_of_port(b);
  if (sa == sb) {
    util::Status status = util::Status::Ok();
    run_on_shard(sa, [&] { status = shards_[sa]->server->connect_ports(a, b, wan); });
    return status;
  }
  // Cross-shard wire: one remote end per side. Each end impairs the
  // direction it sends, so passing `wan` to both matches the local wire's
  // both-directions semantics.
  util::Status status_a = util::Status::Ok();
  run_on_shard(sa, [&] {
    status_a = shards_[sa]->server->connect_port_remote(a, b, wan);
  });
  if (!status_a.ok()) return status_a;
  util::Status status_b = util::Status::Ok();
  run_on_shard(sb, [&] {
    status_b = shards_[sb]->server->connect_port_remote(b, a, wan);
  });
  if (!status_b.ok()) {
    run_on_shard(sa,
                 [&] { shards_[sa]->server->clear_remote_wire_end(a); });
    return status_b;
  }
  return util::Status::Ok();
}

void ShardedRouteServer::disconnect_port(wire::PortId port) {
  const std::size_t s = shard_of_port(port);
  run_on_shard(s, [&] { shards_[s]->server->disconnect_port(port); });
  // A cross-shard teardown posts the peer's clear as a command; in
  // cooperative mode nothing pumps it for us, so drain here keeps the API
  // synchronous either way. (Threaded shards drain on their own.)
  if (!running()) {
    for (std::size_t d = 0; d < shards_.size(); ++d) drain_commands(d);
  }
}

std::vector<InventoryRouter> ShardedRouteServer::inventory() {
  std::vector<InventoryRouter> merged;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::vector<InventoryRouter> part;
    run_on_shard(s, [&] { part = shards_[s]->server->inventory(); });
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  return merged;
}

wire::PortId ShardedRouteServer::port_id(std::string_view router_name,
                                         std::string_view port_name) {
  for (const InventoryRouter& router : inventory()) {
    if (router.name != router_name) continue;
    for (const InventoryPort& port : router.ports) {
      if (port.name == port_name) return port.id;
    }
  }
  return 0;
}

RouteServerStats ShardedRouteServer::stats() {
  RouteServerStats total{};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    RouteServerStats part{};
    run_on_shard(s, [&] { part = shards_[s]->server->stats(); });
    accumulate(total, part);
  }
  return total;
}

util::Json ShardedRouteServer::metrics_json() {
  std::vector<util::Json> snapshots;
  snapshots.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    util::Json snapshot;
    // Snapshot on the owning thread: registry probes read live single-
    // writer fields (RouteServerStats et al) that only that thread may
    // touch concurrently-free.
    run_on_shard(s, [&] { snapshot = shards_[s]->metrics->to_json(); });
    snapshots.push_back(std::move(snapshot));
  }
  return util::MetricsRegistry::merge_snapshots(snapshots);
}

std::size_t ShardedRouteServer::wire_count() {
  std::size_t local_pairs = 0;
  std::size_t remote_ends = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    run_on_shard(s, [&] {
      local_pairs += shards_[s]->server->wire_count();
      remote_ends += shards_[s]->server->remote_wire_ends();
    });
  }
  return local_pairs + remote_ends / 2;
}

std::uint64_t ShardedRouteServer::cross_shard_ring_drops() const {
  std::uint64_t drops = 0;
  for (const auto& shard : shards_) {
    for (const auto& ring : shard->inbound) drops += ring->dropped();
  }
  return drops;
}

// ---------------------------------------------------------------------------
// Threading
// ---------------------------------------------------------------------------

void ShardedRouteServer::post(std::size_t s, std::function<void()> fn) {
  Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.command_mutex);
  shard.commands.push_back(std::move(fn));
}

void ShardedRouteServer::run_on_shard(std::size_t s,
                                      std::function<void()> fn) {
  if (!running()) {
    // Cooperative / pre-start: the control thread IS every shard's thread.
    fn();
    return;
  }
  std::atomic<bool> done{false};
  post(s, [this, s, &fn, &done] {
    RNL_DCHECK(shards_[s]->server->on_owner_thread());
    fn();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

std::size_t ShardedRouteServer::drain_commands(std::size_t s) {
  Shard& shard = *shards_[s];
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(shard.command_mutex);
    batch.swap(shard.commands);
  }
  for (auto& fn : batch) fn();
  return batch.size();
}

std::size_t ShardedRouteServer::drain_wires(std::size_t s) {
  Shard& shard = *shards_[s];
  std::size_t drained = 0;
  CrossShardFrame frame;
  for (auto& ring : shard.inbound) {
    while (ring->pop(frame)) {
      shard.server->deliver_remote(frame.dst_port, frame.bytes,
                                   frame.trace_id);
      ++drained;
    }
  }
  // One egress flush per drain burst, matching the decode loop's cadence.
  if (drained != 0) shard.server->flush_egress();
  return drained;
}

bool ShardedRouteServer::pump_shard(std::size_t s) {
  Shard& shard = *shards_[s];
  bool busy = drain_commands(s) != 0;
  busy = drain_wires(s) != 0 || busy;
  if (shard.pump) busy = shard.pump() || busy;
  busy = shard.scheduler->run_for(options_.pump_slice) != 0 || busy;
  return busy;
}

void ShardedRouteServer::shard_loop(std::size_t s) {
  Shard& shard = *shards_[s];
  shard.server->bind_owner_thread();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const bool busy = pump_shard(s);
    // Relaxed: monitoring-only CPU gauge, read by shard_cpu_seconds().
    shard.cpu_ns.store(thread_cpu_ns(), std::memory_order_relaxed);
    if (!busy) std::this_thread::sleep_for(kIdleSleep);
  }
  // Final drain so stop() never strands queued commands or ring frames.
  pump_shard(s);
  // Relaxed: monitoring-only CPU gauge, read by shard_cpu_seconds().
  shard.cpu_ns.store(thread_cpu_ns(), std::memory_order_relaxed);
}

void ShardedRouteServer::set_shard_pump(std::size_t s,
                                        std::function<bool()> pump) {
  RNL_DCHECK(!running());
  shards_[s]->pump = std::move(pump);
}

void ShardedRouteServer::start() {
  if (running()) return;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->thread = std::thread([this, s] { shard_loop(s); });
  }
}

void ShardedRouteServer::stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  running_.store(false, std::memory_order_release);
  // Ownership of every shard returns to the calling thread.
  for (auto& shard : shards_) shard->server->bind_owner_thread();
}

void ShardedRouteServer::pump_all() {
  RNL_DCHECK(!running());
  pump_dispatch();
  for (std::size_t s = 0; s < shards_.size(); ++s) pump_shard(s);
}

double ShardedRouteServer::shard_cpu_seconds(std::size_t s) const {
  const std::uint64_t ns =
      // Relaxed: monitoring read of the gauge the shard loop maintains.
      shards_[s]->cpu_ns.load(std::memory_order_relaxed);
  return static_cast<double>(ns) / 1e9;
}

}  // namespace rnl::routeserver
