// E8 (§4): the central route server vs one route server per user, measured
// as threaded shard scaling on this host.
//
// The paper's one quantitative scaling claim: funnelling every frame through
// the central route server makes it the bottleneck, and "since the routing
// matrices between different users do not overlap, we can have one route
// server per user". Here that is a ShardedRouteServer with one OS thread per
// shard and user u placed on shard u % N, so every wire is shard-local. The
// 1-shard row is the central funnel; the 2- and 4-shard rows are per-user
// servers. The sweep doubles the shard count up to the host's hardware
// threads, and there are as many users as shards in the last row.
//
// Every frame takes the genuine site-to-site route: a traffic generator at
// site u<N>a emits line-rate bursts, RIS captures them and ships them up the
// tunnel, the shard decodes, looks the port up in the wire matrix and
// egresses toward site u<N>b, whose RIS replays them into the receiving
// generator. Frames are counted at the receiver, so shed or lost frames
// cannot inflate the number.
//
// Each cell reports wall-clock frames/s first (median, plus every rep), and
// critical-path frames/s second: delivered frames over the busiest shard
// thread's CPU seconds, which shows whether sharding divided the work even
// where the host timeslices. The 1-shard cells also report what util::Tracer
// costs at its default head sampling. Per-stage costs, batching and
// syscalls per frame are in perfbench's lab_forward per-layer table.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "devices/traffgen.h"
#include "ris/ris.h"
#include "routeserver/sharded.h"
#include "simnet/network.h"
#include "transport/sim_stream.h"
#include "transport/tcp.h"
#include "util/json.h"
#include "util/trace.h"

using namespace rnl;

namespace {

/// Frames each user's generator sends per cell. A full-mode 1-shard cell
/// runs for a few hundred ms of wall time, which dwarfs thread start-up and
/// the control thread's 1 ms completion poll. --quick (the check.sh --bench
/// smoke gate) keeps each cell to a few ms.
constexpr std::size_t kFramesPerUser = 60'000;
constexpr std::size_t kQuickFramesPerUser = 1'500;
constexpr int kReps = 5;
constexpr int kQuickReps = 3;

/// Generator burst length: what a hardware generator does at line rate
/// between inter-burst gaps, and the supply that egress coalescing consumes.
constexpr std::uint32_t kBurst = 32;

util::Bytes test_frame() {
  packet::EthernetFrame frame;
  frame.dst = packet::MacAddress::local(1);
  frame.src = packet::MacAddress::local(2);
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload.resize(512, 0x44);
  return frame.serialize();
}

std::string user_site(std::size_t user, char side) {
  return "u" + std::to_string(user) + side;
}

/// One shard's private world: a sim Network holding that shard's users (two
/// sites + two single-port generators each) and, in TCP mode, the shard's
/// own event loop and listener (the SO_REUSEPORT shape: each shard accepts
/// its own connections, so no fd ever migrates between threads mid-run).
/// Declaration order matters — the loop must outlive the sites whose
/// transports unregister from it.
struct ShardWorld {
  std::unique_ptr<simnet::Network> net;
  std::unique_ptr<transport::TcpEventLoop> loop;
  std::unique_ptr<transport::TcpListener> listener;
  std::vector<std::unique_ptr<ris::RouterInterface>> sites;
  std::vector<std::unique_ptr<devices::TrafficGenerator>> gens;
  std::vector<devices::TrafficGenerator*> tx;
  std::vector<devices::TrafficGenerator*> rx;
};

struct RunResult {
  double wall_frames_per_sec = 0;
  /// delivered / max-over-shards(thread CPU seconds): the throughput of the
  /// busiest shard, which timeslicing on a short host cannot distort.
  double critical_path_frames_per_sec = 0;
  std::uint64_t delivered = 0;
  std::uint64_t frames_routed = 0;
  std::uint64_t fast_path_frames = 0;
  std::uint64_t cross_shard_frames = 0;
  std::uint64_t ring_drops = 0;
};

/// One run: builds an N-shard server and its worlds, joins every site
/// cooperatively, wires each user's pair, then starts the shard threads and
/// times them until every frame arrived. `traced` turns the shared tracer
/// on at its default head sampling; it is attached, and off, otherwise.
RunResult run_sharded(std::size_t shards, std::size_t users,
                      std::size_t frames, bool tcp, bool traced) {
  // Outlives the server and every site that pushes spans into it.
  util::Tracer tracer;
  tracer.set_enabled(traced);
  std::vector<ShardWorld> worlds(shards);
  routeserver::ShardedRouteServer::Options options;
  options.shards = shards;
  options.tracer = &tracer;
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

  auto add_gen_site = [&tracer](ShardWorld& world,
                                const std::string& site_name) {
    world.sites.push_back(
        std::make_unique<ris::RouterInterface>(*world.net, site_name));
    ris::RouterInterface& site = *world.sites.back();
    site.set_tracer(&tracer);
    world.gens.push_back(std::make_unique<devices::TrafficGenerator>(
        *world.net, "gen", 1));
    devices::TrafficGenerator& gen = *world.gens.back();
    std::size_t index = site.add_router(&gen, "traffic generator", "gen.png");
    site.map_port(index, 0, gen.port_names()[0]);
    return std::pair<ris::RouterInterface*, devices::TrafficGenerator*>(
        &site, &gen);
  };
  for (std::size_t u = 0; u < users; ++u) {
    const std::size_t s = u % shards;
    ShardWorld& world = worlds[s];
    auto [site_a, gen_a] = add_gen_site(world, user_site(u, 'a'));
    auto [site_b, gen_b] = add_gen_site(world, user_site(u, 'b'));
    // Analyzer mode: the receiver counts frames instead of storing copies,
    // so the measurement is of the forwarding pipeline, not of the harness.
    gen_b->set_count_only(true);
    world.tx.push_back(gen_a);
    world.rx.push_back(gen_b);
    for (ris::RouterInterface* site : {site_a, site_b}) {
      if (tcp) {
        auto client =
            transport::tcp_connect(*world.loop, world.listener->port());
        if (!client.ok()) {
          std::fprintf(stderr, "shard dial failed: %s\n",
                       client.error().c_str());
          std::exit(1);
        }
        site->join(std::move(*client));
      } else {
        transport::SimStreamOptions sim_options;
        sim_options.wan = wire::NetemProfile::lan();
        auto [ris_end, server_end] = transport::make_sim_stream_pair(
            world.net->scheduler(), sim_options);
        server.accept(s, std::move(server_end));
        site->join(std::move(ris_end));
      }
    }
  }

  // Cooperative warm-up: complete every JOIN before the threads exist.
  auto all_joined = [&] {
    for (const ShardWorld& world : worlds) {
      for (const auto& site : world.sites) {
        if (!site->joined()) return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 100'000 && !all_joined(); ++i) {
    for (ShardWorld& world : worlds) {
      world.net->run_for(util::Duration::microseconds(100));
      if (world.loop) world.loop->run_once(0);
    }
    server.pump_all();
  }
  if (!all_joined()) {
    std::fprintf(stderr, "sharded join handshake did not complete\n");
    std::exit(1);
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
      // Relaxed: a progress tally; the final count is read after stop().
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
      stream.seq_offset = 14;  // first payload byte
      stream.burst = kBurst;
      gen->start_stream(0, stream);
    }
  }

  const std::size_t target = users * frames;
  auto total_delivered = [&] {
    std::uint64_t total = 0;
    for (const auto& slot : delivered) {
      total += slot->load(std::memory_order_relaxed);  // relaxed: see above
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
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  RunResult result;
  for (const ShardWorld& world : worlds) {
    for (const devices::TrafficGenerator* gen : world.rx) {
      result.delivered += gen->rx_count(0);
    }
  }
  double max_shard_cpu_s = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    max_shard_cpu_s = std::max(max_shard_cpu_s, server.shard_cpu_seconds(s));
  }
  const auto stats = server.stats();
  result.frames_routed = stats.frames_routed;
  result.fast_path_frames = stats.dataplane.fast_path_frames;
  result.cross_shard_frames = stats.cross_shard_frames_out;
  result.ring_drops = server.cross_shard_ring_drops();
  const auto n = static_cast<double>(result.delivered);
  if (max_shard_cpu_s > 0) {
    result.critical_path_frames_per_sec = n / max_shard_cpu_s;
  }
  if (wall_s > 0) result.wall_frames_per_sec = n / wall_s;
  return result;
}

/// Sorted copy of one column across reps; the middle entry is the median.
std::vector<double> sorted_column(const std::vector<RunResult>& reps,
                                  double RunResult::*column) {
  std::vector<double> values;
  for (const RunResult& r : reps) values.push_back(r.*column);
  std::sort(values.begin(), values.end());
  return values;
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
  const int reps = quick ? kQuickReps : kReps;
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  // Doubling up to the host's threads; 2 shards always run, so a 1-thread
  // host still shows whether the work divides (on the critical-path axis).
  std::vector<std::size_t> shard_counts{1};
  for (std::size_t n = 2; n <= std::max(2u, hardware_threads); n *= 2) {
    shard_counts.push_back(n);
  }
  const std::size_t users = shard_counts.back();

  std::printf(
      "E8 (§4) — central route server vs one route server per user\n"
      "(%zu users, %zu frames each in bursts of %u, 512B payloads; one thread\n"
      "per shard; median of %d runs; %u hardware threads)\n\n",
      users, frames, kBurst, reps, hardware_threads);
  std::printf("%6s %5s %34s %7s %20s %7s\n", "shards", "xport",
              "wall frm/s: median [min - max]", "speedup",
              "critical-path frm/s", "speedup");

  util::Json report = util::Json::object();
  report.set("bench", "routeserver_shard_scaling");
  report.set("users", static_cast<std::uint64_t>(users));
  report.set("frames_per_user", static_cast<std::uint64_t>(frames));
  report.set("burst", std::uint64_t{kBurst});
  report.set("hardware_threads", static_cast<std::uint64_t>(hardware_threads));
  report.set("reps_per_cell", static_cast<std::uint64_t>(reps));
  util::Json rows = util::Json::array();
  for (const char* transport : {"sim", "tcp"}) {
    const bool tcp = std::strcmp(transport, "tcp") == 0;
    double base_wall = 0;
    double base_critical = 0;
    for (std::size_t shards : shard_counts) {
      // At 1 shard each untraced rep is paired with a traced one, so host
      // drift hits both sides of the tracer-overhead ratio alike.
      std::vector<RunResult> runs;
      std::vector<RunResult> traced_runs;
      for (int r = 0; r < reps; ++r) {
        runs.push_back(run_sharded(shards, users, frames, tcp, false));
        if (shards == 1) {
          traced_runs.push_back(run_sharded(shards, users, frames, tcp, true));
        }
      }
      const std::vector<double> wall =
          sorted_column(runs, &RunResult::wall_frames_per_sec);
      const double wall_median = wall[wall.size() / 2];
      const double critical = sorted_column(
          runs, &RunResult::critical_path_frames_per_sec)[runs.size() / 2];
      if (shards == 1) {
        base_wall = wall_median;
        base_critical = critical;
      }
      const double wall_speedup = base_wall > 0 ? wall_median / base_wall : 0;
      const double critical_speedup =
          base_critical > 0 ? critical / base_critical : 0;
      std::printf("%6zu %5s %12.0f [%9.0f - %9.0f] %6.2fx %20.0f %6.2fx\n",
                  shards, transport, wall_median, wall.front(), wall.back(),
                  wall_speedup, critical, critical_speedup);

      util::Json row = util::Json::object();
      row.set("shards", static_cast<std::uint64_t>(shards));
      row.set("transport", transport);
      row.set("wall_frames_per_sec", wall_median);
      util::Json wall_reps = util::Json::array();
      for (double v : wall) wall_reps.push_back(v);
      row.set("wall_frames_per_sec_reps", std::move(wall_reps));
      row.set("wall_speedup", wall_speedup);
      row.set("critical_path_frames_per_sec", critical);
      row.set("critical_path_speedup", critical_speedup);
      // Ledgers, taken from the worst rep: every rep must deliver every
      // frame on the fast path without touching a cross-shard ring
      // (check.sh --bench asserts these).
      std::uint64_t delivered = UINT64_MAX, routed = UINT64_MAX,
                    fast = UINT64_MAX, crossed = 0, drops = 0;
      for (const RunResult& r : runs) {
        delivered = std::min(delivered, r.delivered);
        routed = std::min(routed, r.frames_routed);
        fast = std::min(fast, r.fast_path_frames);
        crossed = std::max(crossed, r.cross_shard_frames);
        drops = std::max(drops, r.ring_drops);
      }
      row.set("delivered_frames", delivered);
      row.set("frames_routed", routed);
      row.set("fast_path_frames", fast);
      row.set("cross_shard_frames", crossed);
      row.set("cross_shard_ring_drops", drops);
      if (!traced_runs.empty()) {
        // Critical-path CPU, not wall: at 1 shard it is the one thread
        // doing all the work, and it does not move with host preemption.
        const double traced = sorted_column(
            traced_runs,
            &RunResult::critical_path_frames_per_sec)[traced_runs.size() / 2];
        const double overhead = traced > 0 ? critical / traced : 0;
        row.set("trace_overhead", overhead);
        std::printf("%12s tracer on (1-in-%u head sampling): %.3fx CPU per "
                    "frame\n",
                    "", util::kDefaultHeadSamplePeriod, overhead);
      }
      rows.push_back(std::move(row));
    }
  }
  report.set("sharded_rows", std::move(rows));
  {
    std::ofstream out(out_path);
    out << report.dump_pretty() << "\n";
  }
  std::printf(
      "\nMachine-readable report written to %s\n"
      "\nShape check: critical-path throughput grows near-linearly in the\n"
      "shard count (each shard carries 1/N of the decode/route/egress work),\n"
      "with zero cross-shard frames and zero ring drops. Wall-clock\n"
      "throughput follows while each shard has a hardware thread to itself;\n"
      "on a shared host it gains less, because neighbours take cores.\n",
      out_path.c_str());
  return 0;
}
