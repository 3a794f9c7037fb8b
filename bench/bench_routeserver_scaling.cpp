// E8 / E12 (§4): route-server forwarding throughput, batched vs unbatched.
//
// Unlike the earlier revision of this bench (which injected frames through
// the management API and therefore measured inject_ns, not the forward
// path), every frame here takes the genuine site-to-site route: a traffic
// generator at site u<N>a emits line-rate bursts, RIS captures them and
// ships them up the tunnel, the route server decodes, looks the port up in
// the wire matrix and egresses toward site u<N>b, whose RIS replays them
// into the receiving generator. decode -> port lookup -> egress for every
// single frame; frames/sec is counted at the receiving generator, so shed
// or lost frames cannot inflate the number.
//
// Three questions, one report:
//   - BATCHING: egress coalescing + amortized batch decode (this PR) vs the
//     same workload with batching off — on the simulated transport AND on
//     real TCP loopback sockets, where one coalesced write is one syscall.
//   - CENTRAL vs PER-USER (§4): all users through one route server on one
//     thread, vs one private route server per user on its own OS thread
//     ("since the routing matrices between different users do not overlap,
//     we can have one route server per user").
//   - FAST PATH: the JSON rows carry the zero-copy and batching ledgers
//     (fast_path_frames, frames_coalesced, egress/decode batch sizes) so a
//     regression in either optimization is visible at a glance.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/testbed.h"
#include "routeserver/sharded.h"
#include "transport/tcp.h"
#include "util/json.h"

using namespace rnl;

namespace {

// Full run; --quick shrinks both (CI smoke gate, see scripts/check.sh
// --bench).
constexpr std::size_t kFramesPerUser = 3000;
constexpr std::size_t kQuickFramesPerUser = 600;

/// Generator burst length and batching caps. The burst is what a hardware
/// generator does at line rate between inter-burst gaps; it is also the
/// supply that egress coalescing consumes — 1-frame-per-instant traffic
/// coalesces into batches of 1 no matter the caps.
constexpr std::uint32_t kBurst = 32;
constexpr std::size_t kBatchFrames = 32;
constexpr std::size_t kBatchBytes = 32 * 1024;

/// Repetitions per (transport, users, batching) cell; the row reports the
/// median, which damps scheduler/CI noise without hiding a real regression.
constexpr int kReps = 5;

util::Bytes test_frame() {
  packet::EthernetFrame frame;
  frame.dst = packet::MacAddress::local(1);
  frame.src = packet::MacAddress::local(2);
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload.resize(512, 0x44);
  return frame.serialize();
}

/// One user's lab: two geographically separate sites, one 1-port generator
/// each, wired together through the route server's matrix.
struct UserPair {
  ris::RouterInterface* site_a = nullptr;
  ris::RouterInterface* site_b = nullptr;
  devices::TrafficGenerator* gen_a = nullptr;
  devices::TrafficGenerator* gen_b = nullptr;
};

std::string user_site(std::size_t user, char side) {
  return "u" + std::to_string(user) + side;
}

UserPair add_user_pair(core::Testbed& bed, std::size_t user) {
  UserPair pair;
  pair.site_a = &bed.add_site(user_site(user, 'a'));
  pair.site_b = &bed.add_site(user_site(user, 'b'));
  pair.gen_a = &bed.add_traffgen(*pair.site_a, "gen", 1);
  pair.gen_b = &bed.add_traffgen(*pair.site_b, "gen", 1);
  // Analyzer mode: the receiver counts frames instead of storing copies, so
  // the measurement is of the forwarding pipeline, not of the harness.
  pair.gen_b->set_count_only(true);
  return pair;
}

void apply_batching(core::Testbed& bed, const std::vector<UserPair>& pairs,
                    bool batched) {
  if (batched) {
    bed.server().set_egress_batching(kBatchFrames, kBatchBytes);
  } else {
    bed.server().set_egress_batching(1, 0);
  }
  for (const UserPair& pair : pairs) {
    pair.site_a->set_uplink_batching(batched ? kBatchFrames : 1,
                                     batched ? kBatchBytes : 0);
    pair.site_b->set_uplink_batching(batched ? kBatchFrames : 1,
                                     batched ? kBatchBytes : 0);
  }
}

void wire_users(core::Testbed& bed, std::size_t users) {
  for (std::size_t u = 0; u < users; ++u) {
    auto status = bed.server().connect_ports(
        bed.port_id(user_site(u, 'a') + "/gen", "port1"),
        bed.port_id(user_site(u, 'b') + "/gen", "port1"));
    if (!status.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", status.error().c_str());
      std::exit(1);
    }
  }
}

void start_streams(const std::vector<UserPair>& pairs, std::size_t frames) {
  util::Bytes frame = test_frame();
  for (const UserPair& pair : pairs) {
    devices::TrafficGenerator::Stream stream;
    stream.template_frame = frame;
    stream.count = static_cast<std::uint32_t>(frames);
    stream.interval = util::Duration::microseconds(1);
    stream.seq_offset = 14;  // first payload byte
    stream.burst = kBurst;
    pair.gen_a->start_stream(0, stream);
  }
}

std::size_t delivered_frames(const std::vector<UserPair>& pairs) {
  std::size_t total = 0;
  for (const UserPair& pair : pairs) total += pair.gen_b->rx_count(0);
  return total;
}

/// CPU seconds consumed by this process — the primary throughput clock.
/// The batching win is fewer cycles (and syscalls) per forwarded frame;
/// measuring it in CPU time keeps the ratio stable on shared CI hosts,
/// where wall clock mostly measures the noisy neighbours. Wall time is
/// reported alongside.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RunResult {
  double frames_per_sec = 0;  // per CPU second (see cpu_seconds())
  double wall_frames_per_sec = 0;
  std::size_t delivered = 0;
  /// Snapshot of the testbed's metrics registry, taken before the world
  /// unwinds — the bench reports the same numbers an operator would read
  /// off the live API.
  util::Json metrics;
  /// Per-stage mean span durations (ns) from the tracer rings; only
  /// populated by traced runs (see run_traced).
  util::Json stages;
};

/// Mean span duration per pipeline stage, aggregated over every ring the
/// testbed's tracer holds: {"capture": {"count": n, "mean_ns": ...}, ...}.
util::Json stage_breakdown(util::Tracer& tracer) {
  struct Acc {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };
  std::map<std::string, Acc> acc;
  const util::Json dump = tracer.to_json();
  for (const auto& e : dump["events"].as_array()) {
    const auto dur = static_cast<std::uint64_t>(e["dur_ns"].as_int());
    if (dur == 0) continue;  // instants carry no stage latency
    Acc& a = acc[e["stage"].as_string()];
    ++a.count;
    a.sum_ns += dur;
  }
  util::Json out = util::Json::object();
  for (const auto& [stage, a] : acc) {
    util::Json s = util::Json::object();
    s.set("count", a.count);
    s.set("mean_ns", a.sum_ns / a.count);
    out.set(stage, std::move(s));
  }
  return out;
}

/// Shared drive loop: `pump` advances whatever event sources the transport
/// needs (sim scheduler, and the poll loop in TCP mode). Terminates when
/// every frame arrived or progress stops (shed frames never arrive — the
/// receiver-side count keeps the throughput honest either way).
template <typename Pump>
RunResult drive(core::Testbed& bed, const std::vector<UserPair>& pairs,
                std::size_t frames, Pump pump) {
  const std::size_t target = pairs.size() * frames;
  auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = cpu_seconds();
  start_streams(pairs, frames);
  std::size_t last = 0;
  int stalled = 0;
  while (delivered_frames(pairs) < target && stalled < 1000) {
    pump();
    std::size_t now = delivered_frames(pairs);
    if (now == last) {
      ++stalled;
    } else {
      stalled = 0;
      last = now;
    }
  }
  const double cpu_s = cpu_seconds() - cpu_start;
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  RunResult result;
  result.delivered = delivered_frames(pairs);
  result.frames_per_sec = static_cast<double>(result.delivered) / cpu_s;
  result.wall_frames_per_sec = static_cast<double>(result.delivered) / wall_s;
  result.metrics = bed.metrics().to_json();
  return result;
}

/// Central route server, simulated transport (every tunnel is a SimStream
/// over a LAN profile), one thread.
RunResult run_sim(std::size_t users, std::size_t frames, bool batched,
                  bool traced = false) {
  core::Testbed bed(70, wire::NetemProfile::lan());
  std::vector<UserPair> pairs;
  for (std::size_t u = 0; u < users; ++u) pairs.push_back(add_user_pair(bed, u));
  apply_batching(bed, pairs, batched);
  // Default head sampling (1-in-kDefaultHeadSamplePeriod) — the overhead
  // an operator pays for always-on tracing, gated on being < 3%.
  if (traced) bed.tracer().set_enabled(true);
  bed.join_all();
  wire_users(bed, users);
  RunResult result = drive(bed, pairs, frames, [&] {
    bed.net().run_for(util::Duration::microseconds(100));
  });
  if (traced) result.stages = stage_breakdown(bed.tracer());
  return result;
}

/// Central route server over real loopback TCP sockets: RIS dials the
/// listener exactly as a deployment would (§2.2), and the bench interleaves
/// the simulated clock (device timers) with the poll loop. Here a coalesced
/// egress write is one send() syscall instead of many.
RunResult run_tcp(std::size_t users, std::size_t frames, bool batched,
                  bool traced = false) {
  transport::TcpEventLoop loop;
  core::Testbed bed(70, wire::NetemProfile::lan());
  if (traced) bed.tracer().set_enabled(true);
  transport::TcpListener listener(loop);
  auto status = listener.listen(0, [&](std::unique_ptr<transport::TcpTransport> t) {
    bed.server().accept(std::move(t));
  });
  if (!status.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", status.error().c_str());
    std::exit(1);
  }
  std::vector<UserPair> pairs;
  for (std::size_t u = 0; u < users; ++u) pairs.push_back(add_user_pair(bed, u));
  apply_batching(bed, pairs, batched);
  std::vector<ris::RouterInterface*> sites;
  for (const UserPair& pair : pairs) {
    sites.push_back(pair.site_a);
    sites.push_back(pair.site_b);
  }
  for (ris::RouterInterface* site : sites) {
    auto client = transport::tcp_connect(loop, listener.port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", client.error().c_str());
      std::exit(1);
    }
    site->join(std::move(*client));
  }
  bool joined = loop.run_until([&] {
    for (ris::RouterInterface* site : sites) {
      if (!site->joined()) return false;
    }
    return true;
  });
  if (!joined) {
    std::fprintf(stderr, "TCP join handshake did not complete\n");
    std::exit(1);
  }
  wire_users(bed, users);
  RunResult result = drive(bed, pairs, frames, [&] {
    bed.net().run_for(util::Duration::microseconds(100));
    loop.run_once(0);
  });
  if (traced) result.stages = stage_breakdown(bed.tracer());
  return result;
}

/// One private route server per user, one OS thread each — sound because
/// the users' routing matrices never overlap (§4). Batched, simulated
/// transport; compare against the central sim rows.
double run_per_user(std::size_t users, std::size_t frames) {
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::vector<std::size_t> delivered(users, 0);
  threads.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    threads.emplace_back([u, frames, &delivered] {
      core::Testbed bed(90 + u, wire::NetemProfile::lan());
      std::vector<UserPair> pairs{add_user_pair(bed, u)};
      apply_batching(bed, pairs, /*batched=*/true);
      bed.join_all();
      auto status = bed.server().connect_ports(
          bed.port_id(user_site(u, 'a') + "/gen", "port1"),
          bed.port_id(user_site(u, 'b') + "/gen", "port1"));
      if (!status.ok()) std::exit(1);
      RunResult result = drive(bed, pairs, frames, [&] {
        bed.net().run_for(util::Duration::microseconds(100));
      });
      delivered[u] = result.delivered;
    });
  }
  for (auto& thread : threads) thread.join();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  std::size_t total = 0;
  for (std::size_t d : delivered) total += d;
  return static_cast<double>(total) / wall_s;
}

// ---------------------------------------------------------------------------
// Shard-per-core sweep (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// One shard's private world for the sharded sweep: a sim Network holding
/// that shard's users (two sites + two single-port generators each) and, in
/// TCP mode, the shard's own event loop and listener (the SO_REUSEPORT
/// shape: each shard accepts its own connections, so no fd ever migrates
/// between threads mid-run). Declaration order matters — the loop must
/// outlive the sites whose transports unregister from it.
struct ShardWorld {
  std::unique_ptr<simnet::Network> net;
  std::unique_ptr<transport::TcpEventLoop> loop;
  std::unique_ptr<transport::TcpListener> listener;
  std::vector<std::unique_ptr<ris::RouterInterface>> sites;
  std::vector<std::unique_ptr<devices::TrafficGenerator>> gens;
  std::vector<devices::TrafficGenerator*> tx;
  std::vector<devices::TrafficGenerator*> rx;
};

struct ShardedResult {
  /// delivered / max-over-shards(thread CPU seconds): the throughput of the
  /// critical-path shard. On a box with fewer cores than shards this is the
  /// honest scaling axis — wall clock measures timeslicing, not sharding.
  double critical_path_frames_per_sec = 0;
  double wall_frames_per_sec = 0;
  double total_cpu_frames_per_sec = 0;
  double max_shard_cpu_s = 0;
  double total_cpu_s = 0;
  std::size_t delivered = 0;
  std::uint64_t frames_routed = 0;
  std::uint64_t cross_shard_frames = 0;
  std::uint64_t ring_drops = 0;
};

/// N-shard route server, one OS thread per shard, each driving its own slice
/// of the lab: decode, port lookup, egress and the RIS endpoints for its
/// users (user u lives on shard u % N, so every wire is shard-local — the
/// paper's observation that user matrices never overlap, §4). Same
/// receiver-counted site-to-site pipeline as the central runs.
ShardedResult run_sharded(std::size_t shards, std::size_t users,
                          std::size_t frames, bool tcp) {
  std::vector<ShardWorld> worlds(shards);
  routeserver::ShardedRouteServer::Options options;
  options.shards = shards;
  for (std::size_t s = 0; s < shards; ++s) {
    worlds[s].net = std::make_unique<simnet::Network>(130 + s);
    options.schedulers.push_back(&worlds[s].net->scheduler());
  }
  routeserver::ShardedRouteServer server(options);
  if (tcp) {
    for (std::size_t s = 0; s < shards; ++s) {
      worlds[s].loop = std::make_unique<transport::TcpEventLoop>();
      worlds[s].listener =
          std::make_unique<transport::TcpListener>(*worlds[s].loop);
      auto status = worlds[s].listener->listen(
          0, [&server, s](std::unique_ptr<transport::TcpTransport> t) {
            server.accept(s, std::move(t));
          });
      if (!status.ok()) {
        std::fprintf(stderr, "shard listen failed: %s\n",
                     status.error().c_str());
        std::exit(1);
      }
    }
  }

  auto add_gen_site = [](ShardWorld& world, const std::string& site_name) {
    world.sites.push_back(
        std::make_unique<ris::RouterInterface>(*world.net, site_name));
    ris::RouterInterface& site = *world.sites.back();
    world.gens.push_back(std::make_unique<devices::TrafficGenerator>(
        *world.net, "gen", 1));
    devices::TrafficGenerator& gen = *world.gens.back();
    std::size_t index = site.add_router(&gen, "traffic generator", "gen.png");
    site.map_port(index, 0, gen.port_names()[0]);
    site.set_uplink_batching(kBatchFrames, kBatchBytes);
    return std::pair<ris::RouterInterface*, devices::TrafficGenerator*>(
        &site, &gen);
  };
  for (std::size_t u = 0; u < users; ++u) {
    ShardWorld& world = worlds[u % shards];
    auto [site_a, gen_a] = add_gen_site(world, user_site(u, 'a'));
    auto [site_b, gen_b] = add_gen_site(world, user_site(u, 'b'));
    gen_b->set_count_only(true);
    world.tx.push_back(gen_a);
    world.rx.push_back(gen_b);
    const std::size_t s = u % shards;
    if (tcp) {
      for (ris::RouterInterface* site : {site_a, site_b}) {
        auto client =
            transport::tcp_connect(*world.loop, world.listener->port());
        if (!client.ok()) {
          std::fprintf(stderr, "shard dial failed: %s\n",
                       client.error().c_str());
          std::exit(1);
        }
        site->join(std::move(*client));
      }
    } else {
      for (ris::RouterInterface* site : {site_a, site_b}) {
        transport::SimStreamOptions sim_options;
        sim_options.wan = wire::NetemProfile::lan();
        auto [ris_end, server_end] = transport::make_sim_stream_pair(
            world.net->scheduler(), sim_options);
        server.accept(s, std::move(server_end));
        site->join(std::move(ris_end));
      }
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    server.shard(s).set_egress_batching(kBatchFrames, kBatchBytes);
  }

  // Cooperative warm-up: complete every JOIN before the threads exist.
  auto pump_everything = [&] {
    for (ShardWorld& world : worlds) {
      world.net->run_for(util::Duration::microseconds(100));
      if (world.loop) world.loop->run_once(0);
    }
    server.pump_all();
  };
  for (int i = 0; i < 100'000; ++i) {
    bool all_joined = true;
    for (ShardWorld& world : worlds) {
      for (const auto& site : world.sites) {
        if (!site->joined()) all_joined = false;
      }
    }
    if (all_joined) break;
    pump_everything();
  }
  for (ShardWorld& world : worlds) {
    for (const auto& site : world.sites) {
      if (!site->joined()) {
        std::fprintf(stderr, "sharded join handshake did not complete\n");
        std::exit(1);
      }
    }
  }
  for (std::size_t u = 0; u < users; ++u) {
    auto status = server.connect_ports(
        server.port_id(user_site(u, 'a') + "/gen", "port1"),
        server.port_id(user_site(u, 'b') + "/gen", "port1"));
    if (!status.ok()) {
      std::fprintf(stderr, "sharded connect failed: %s\n",
                   status.error().c_str());
      std::exit(1);
    }
  }

  // Delivered counts live in shard-owned generators, so each shard's pump
  // publishes its tally through an atomic the control thread can poll.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> delivered;
  for (std::size_t s = 0; s < shards; ++s) {
    delivered.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    ShardWorld* world = &worlds[s];
    std::atomic<std::uint64_t>* slot = delivered.back().get();
    server.set_shard_pump(s, [world, slot] {
      bool busy = world->loop && world->loop->run_once(0) != 0;
      std::uint64_t total = 0;
      for (const devices::TrafficGenerator* gen : world->rx) {
        total += gen->rx_count(0);
      }
      slot->store(total, std::memory_order_relaxed);
      return busy;
    });
  }

  util::Bytes frame = test_frame();
  for (ShardWorld& world : worlds) {
    for (devices::TrafficGenerator* gen : world.tx) {
      devices::TrafficGenerator::Stream stream;
      stream.template_frame = frame;
      stream.count = static_cast<std::uint32_t>(frames);
      stream.interval = util::Duration::microseconds(1);
      stream.seq_offset = 14;
      stream.burst = kBurst;
      gen->start_stream(0, stream);
    }
  }

  const std::size_t target = users * frames;
  auto total_delivered = [&] {
    std::uint64_t total = 0;
    for (const auto& slot : delivered) {
      total += slot->load(std::memory_order_relaxed);
    }
    return total;
  };
  auto wall_start = std::chrono::steady_clock::now();
  server.start();
  std::uint64_t last = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (total_delivered() < target) {
    std::uint64_t now = total_delivered();
    auto t = std::chrono::steady_clock::now();
    if (now != last) {
      last = now;
      last_progress = t;
    } else if (t - last_progress > std::chrono::seconds(10)) {
      break;  // shed frames never arrive; report what did
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

  ShardedResult result;
  for (ShardWorld& world : worlds) {
    for (const devices::TrafficGenerator* gen : world.rx) {
      result.delivered += gen->rx_count(0);
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const double cpu = server.shard_cpu_seconds(s);
    result.total_cpu_s += cpu;
    if (cpu > result.max_shard_cpu_s) result.max_shard_cpu_s = cpu;
  }
  auto stats = server.stats();
  result.frames_routed = stats.frames_routed;
  result.cross_shard_frames = stats.cross_shard_frames_out;
  result.ring_drops = server.cross_shard_ring_drops();
  const auto n = static_cast<double>(result.delivered);
  if (result.max_shard_cpu_s > 0) {
    result.critical_path_frames_per_sec = n / result.max_shard_cpu_s;
  }
  if (result.total_cpu_s > 0) {
    result.total_cpu_frames_per_sec = n / result.total_cpu_s;
  }
  if (wall_s > 0) result.wall_frames_per_sec = n / wall_s;
  return result;
}

/// Median-of-kReps wrapper. Alternating full runs (not best-of) so page
/// cache and allocator warmup affect both batching modes equally.
template <typename Fn>
RunResult median_run(Fn run) {
  std::vector<RunResult> results;
  for (int i = 0; i < kReps; ++i) results.push_back(run());
  std::sort(results.begin(), results.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.frames_per_sec < b.frames_per_sec;
            });
  return std::move(results[results.size() / 2]);
}

std::int64_t counter_of(const util::Json& metrics, const std::string& name) {
  return metrics["counters"][name].as_int();
}

void set_hist(util::Json& row, const util::Json& metrics,
              const std::string& hist, const std::string& prefix) {
  const util::Json& h = metrics["histograms"][hist];
  row.set(prefix + "_count", h["count"].as_int());
  row.set(prefix + "_p50", h["p50"].as_int());
  row.set(prefix + "_p99", h["p99"].as_int());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_routeserver.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  const std::size_t frames = quick ? kQuickFramesPerUser : kFramesPerUser;
  const std::vector<std::size_t> user_counts =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
  unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "E8 / E12 (§4) — site-to-site forwarding through the route server\n"
      "(%zu frames per user, bursts of %u, 512B payloads; throughput counted\n"
      "at the receiving generator, per process-CPU second — median of %d\n"
      "runs; %u hardware threads)\n\n",
      frames, kBurst, kReps, cores);
  std::printf("%5s %5s %20s %18s %9s %18s\n", "users", "xport",
              "unbatched (frm/s)", "batched (frm/s)", "speedup",
              "per-user (frm/s)");
  util::Json report = util::Json::object();
  report.set("bench", "routeserver_forwarding");
  report.set("frames_per_user", static_cast<std::uint64_t>(frames));
  report.set("burst", std::uint64_t{kBurst});
  report.set("batch_max_frames", std::uint64_t{kBatchFrames});
  report.set("batch_max_bytes", std::uint64_t{kBatchBytes});
  report.set("hardware_threads", static_cast<std::uint64_t>(cores));
  report.set("reps_per_cell", static_cast<std::uint64_t>(kReps));
  report.set("throughput_clock", "process_cpu");
  util::Json rows = util::Json::array();
  // Per-cell trace_overhead ratios are noise-limited (two medians of CPU
  // time divided); the geometric mean across all cells is the number the
  // <3% tracing-overhead acceptance reads.
  double log_overhead_sum = 0;
  std::size_t overhead_cells = 0;
  for (const char* transport : {"sim", "tcp"}) {
    const bool tcp = std::strcmp(transport, "tcp") == 0;
    for (std::size_t users : user_counts) {
      RunResult unbatched = median_run([&] {
        return tcp ? run_tcp(users, frames, false)
                   : run_sim(users, frames, false);
      });
      RunResult batched = median_run([&] {
        return tcp ? run_tcp(users, frames, true)
                   : run_sim(users, frames, true);
      });
      // Batched runs with tracing enabled at the default head sampling:
      // supplies the per-stage latency columns and the tracing overhead
      // ratio (acceptance: < 3% vs tracing off). Median-of-kReps like the
      // untraced cells, so the ratio compares like against like.
      RunResult traced = median_run([&] {
        return tcp ? run_tcp(users, frames, true, true)
                   : run_sim(users, frames, true, true);
      });
      double speedup = unbatched.frames_per_sec > 0
                           ? batched.frames_per_sec / unbatched.frames_per_sec
                           : 0;
      double per_user = tcp ? 0 : run_per_user(users, frames);
      if (tcp) {
        std::printf("%5zu %5s %20.0f %18.0f %8.2fx %18s\n", users, transport,
                    unbatched.frames_per_sec, batched.frames_per_sec, speedup,
                    "-");
      } else {
        std::printf("%5zu %5s %20.0f %18.0f %8.2fx %18.0f\n", users, transport,
                    unbatched.frames_per_sec, batched.frames_per_sec, speedup,
                    per_user);
      }
      std::string stage_line;
      for (const auto& [stage, s] : traced.stages.as_object()) {
        if (!stage_line.empty()) stage_line += "  ";
        stage_line += stage + "=" + std::to_string(s["mean_ns"].as_int()) +
                      "ns";
      }
      if (!stage_line.empty()) {
        std::printf("            stages(mean): %s\n", stage_line.c_str());
      }
      util::Json row = util::Json::object();
      row.set("users", static_cast<std::uint64_t>(users));
      row.set("transport", transport);
      row.set("unbatched_frames_per_sec", unbatched.frames_per_sec);
      row.set("batched_frames_per_sec", batched.frames_per_sec);
      row.set("batch_speedup", speedup);
      row.set("unbatched_wall_frames_per_sec", unbatched.wall_frames_per_sec);
      row.set("batched_wall_frames_per_sec", batched.wall_frames_per_sec);
      if (!tcp) row.set("per_user_frames_per_sec", per_user);
      row.set("delivered_frames",
              static_cast<std::uint64_t>(batched.delivered));
      // Ledgers from the batched run: the fast path must carry the frames
      // and the coalescer must actually coalesce (check.sh --bench gates on
      // these being non-zero). The unbatched run, at a frame cap of 1, must
      // coalesce nothing (check.sh --bench gates on that being zero).
      const util::Json& m = batched.metrics;
      row.set("frames_routed", counter_of(m, "routeserver.frames_routed"));
      row.set("fast_path_frames",
              counter_of(m, "routeserver.fast_path_frames"));
      row.set("slow_path_frames",
              counter_of(m, "routeserver.slow_path_frames"));
      row.set("payload_allocs", counter_of(m, "routeserver.payload_allocs"));
      row.set("bytes_copied", counter_of(m, "routeserver.bytes_copied"));
      row.set("egress_flushes", counter_of(m, "routeserver.egress_flushes"));
      row.set("frames_coalesced",
              counter_of(m, "routeserver.frames_coalesced"));
      row.set("unbatched_frames_coalesced",
              counter_of(unbatched.metrics, "routeserver.frames_coalesced"));
      set_hist(row, m, "routeserver.forward_ns", "forward_ns");
      set_hist(row, m, "routeserver.egress_batch_frames", "egress_batch");
      set_hist(row, m, "routeserver.decode_batch_frames", "decode_batch");
      // Per-stage breakdown from the traced run (mean ns per span), plus
      // how much the tracing itself cost.
      row.set("traced_frames_per_sec", traced.frames_per_sec);
      const double overhead = traced.frames_per_sec > 0
                                  ? batched.frames_per_sec /
                                        traced.frames_per_sec
                                  : 0;
      row.set("trace_overhead", overhead);
      row.set("stages", std::move(traced.stages));
      if (overhead > 0) {
        log_overhead_sum += std::log(overhead);
        ++overhead_cells;
      }
      if (!tcp) {
        // SimStream publishes a per-write counter; on TCP the same signal
        // is the syscall count, which we don't sample here.
        row.set("transport_sends", counter_of(m, "transport.sends"));
      }
      rows.push_back(std::move(row));
    }
  }
  report.set("rows", std::move(rows));

  // Shard-per-core sweep (DESIGN.md §12): same pipeline, N shard threads.
  // The scaling axis is critical-path CPU throughput — delivered frames
  // divided by the busiest shard thread's CLOCK_THREAD_CPUTIME_ID seconds.
  // On a host with fewer cores than shards (hardware_threads above), wall
  // clock only measures timeslicing; the per-thread CPU axis still shows
  // whether sharding divided the work, which is what buys throughput once
  // one core per shard exists. Wall and total-CPU numbers ride along so
  // nobody mistakes the metric for a wall-clock claim.
  const std::size_t sharded_users = quick ? 2 : 8;
  const std::vector<std::size_t> shard_counts =
      quick ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  constexpr int kShardReps = 3;
  std::printf(
      "\nshard-per-core (%zu users, frames/user=%zu, median of %d runs;\n"
      "frm/s = delivered / busiest shard thread's CPU seconds)\n\n",
      sharded_users, frames, kShardReps);
  std::printf("%6s %5s %22s %18s %14s %9s\n", "shards", "xport",
              "critical-path (frm/s)", "wall (frm/s)", "max-cpu (s)",
              "speedup");
  util::Json sharded_rows = util::Json::array();
  for (const char* transport : {"sim", "tcp"}) {
    const bool tcp = std::strcmp(transport, "tcp") == 0;
    double base_fps = 0;
    for (std::size_t shards : shard_counts) {
      std::vector<ShardedResult> reps;
      for (int r = 0; r < kShardReps; ++r) {
        reps.push_back(run_sharded(shards, sharded_users, frames, tcp));
      }
      std::sort(reps.begin(), reps.end(),
                [](const ShardedResult& a, const ShardedResult& b) {
                  return a.critical_path_frames_per_sec <
                         b.critical_path_frames_per_sec;
                });
      const ShardedResult& med = reps[reps.size() / 2];
      if (shards == 1) base_fps = med.critical_path_frames_per_sec;
      const double speedup =
          base_fps > 0 ? med.critical_path_frames_per_sec / base_fps : 0;
      std::printf("%6zu %5s %22.0f %18.0f %14.3f %8.2fx\n", shards, transport,
                  med.critical_path_frames_per_sec, med.wall_frames_per_sec,
                  med.max_shard_cpu_s, speedup);
      util::Json row = util::Json::object();
      row.set("shards", static_cast<std::uint64_t>(shards));
      row.set("transport", transport);
      row.set("users", static_cast<std::uint64_t>(sharded_users));
      row.set("critical_path_frames_per_sec",
              med.critical_path_frames_per_sec);
      row.set("wall_frames_per_sec", med.wall_frames_per_sec);
      row.set("total_cpu_frames_per_sec", med.total_cpu_frames_per_sec);
      row.set("max_shard_cpu_seconds", med.max_shard_cpu_s);
      row.set("total_cpu_seconds", med.total_cpu_s);
      row.set("shard_speedup", speedup);
      row.set("delivered_frames", static_cast<std::uint64_t>(med.delivered));
      row.set("frames_routed", med.frames_routed);
      row.set("cross_shard_frames", med.cross_shard_frames);
      row.set("cross_shard_ring_drops", med.ring_drops);
      sharded_rows.push_back(std::move(row));
    }
  }
  report.set("sharded_rows", std::move(sharded_rows));
  report.set("sharded_throughput_clock", "per_shard_thread_cpu_critical_path");

  const double overhead_geomean =
      overhead_cells > 0
          ? std::exp(log_overhead_sum / static_cast<double>(overhead_cells))
          : 0;
  report.set("trace_overhead_geomean", overhead_geomean);
  std::printf("\ntracing overhead (geomean over %zu cells): %.3fx\n",
              overhead_cells, overhead_geomean);
  {
    std::ofstream out(out_path);
    out << report.dump_pretty() << "\n";
  }
  std::printf(
      "\nMachine-readable report written to %s\n"
      "\nShape check: batched should beat unbatched on both transports (the\n"
      "win is larger on TCP, where a flush is a syscall). Central throughput\n"
      "is roughly flat in the user count (one funnel) while per-user servers\n"
      "scale with available cores: expect per-user/batched ~= min(users,\n"
      "hardware threads). fast_path_frames ~= frames_routed means the\n"
      "zero-copy forward path carried the load; frames_coalesced > 0 means\n"
      "egress coalescing engaged. In the sharded sweep, critical-path\n"
      "throughput should grow near-linearly in the shard count (each shard\n"
      "carries 1/N of the decode/route/egress work) with zero cross-shard\n"
      "frames and zero ring drops — wall clock only follows once the host\n"
      "has a core per shard.\n",
      out_path.c_str());
  return 0;
}
