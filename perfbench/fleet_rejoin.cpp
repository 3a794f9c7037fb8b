// fleet_rejoin: sites that "could come and go at any time" (§2.3). 1,000
// simulated sites join through dispatch onto a four-shard route server.
// Each site has one 2-port device, and sites are wired in random pairs, so
// most wires cross shards. A closed loop then keeps kCutAtOnce sites cut
// (SimLinkFault::cut) at a time; each redials after a short fixed backoff.
// An op is one cut site acked back with a higher epoch and its retained
// ids, its wire restored. The route server's session paths (JOIN sniffing,
// handle_join, un-orderly remove_site, retained-id rebind, per-shard
// registry removal) and the RIS reconnect path do the work; no frames or
// API calls flow.

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ris/ris.h"
#include "routeserver/sharded.h"
#include "simnet/network.h"
#include "transport/sim_stream.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using namespace rnl;

constexpr std::size_t kSites = 1000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kCutAtOnce = 4;
/// Timed rejoins per world, the same in every run: each rejoin leaves its
/// old session's keepalive timer pending in the sites' scheduler until it
/// lapses, so a world that ran on for longer would carry more state.
/// Worlds repeat until the run's time is spent; setup_s is the median of
/// their set-ups.
constexpr std::uint64_t kRejoinsPerWorld = 20'000;
constexpr std::uint64_t kWarmupRejoins = 1'000;
constexpr int kMinWorlds = 3;
constexpr std::uint64_t kWindowNs = 250'000'000;
/// Virtual time each harness round advances the sites' world.
constexpr util::Duration kSlice = util::Duration::microseconds(100);
/// The one departure from product defaults: a short fixed redial backoff
/// (one round), so a rejoin measures the session path, not a timer.
constexpr util::Duration kBackoff = kSlice;
/// A rejoin still pending after this long has failed.
constexpr std::uint64_t kRejoinTimeoutNs = 1'000'000'000;
constexpr std::uint64_t kMaxJoinRounds = 100'000;

struct FleetSite {
  std::string name;
  std::size_t shard = 0;
  std::unique_ptr<HarnessDevice> device;
  std::unique_ptr<util::MetricsRegistry> metrics;
  std::unique_ptr<ris::RouterInterface> ris;
  transport::SimLinkFault fault;
  wire::RouterId router = 0;
  std::array<wire::PortId, 2> ports{};
  wire::PortId peer = 0;  // the partner's port this site's wire leads to
  std::uint64_t op = 0;   // op id of the rejoin in flight (spans carry it)
  std::uint32_t epoch_before = 0;
  std::uint64_t cut_at = 0;
  bool cut = false;
};

/// Counters the traced run turns into per-layer values.
struct FleetCounts {
  std::uint64_t dials = 0;
  std::uint64_t rejoins = 0;
};

class FleetWorld {
 public:
  FleetWorld(std::uint64_t seed, bool traced)
      : seed_(seed),
        traced_(traced),
        net_(util::derive_seed(seed, "fleet_rejoin.net")),
        server_(server_options(seed)) {}

  ~FleetWorld() {
    // The sites' transport factories point back at this world; stop them
    // redialing while the fleet unwinds.
    for (auto& site : sites_) site->ris->set_transport_factory(nullptr);
  }
  FleetWorld(const FleetWorld&) = delete;
  FleetWorld& operator=(const FleetWorld&) = delete;

  /// Bring-up: every site joins through dispatch, then the wiring and a
  /// warm-up of rejoins. `bringup` receives the join phase's span totals.
  bool build(std::string* error, SpanTotals* bringup) {
    util::Rng rng(util::derive_seed(seed_, "fleet_rejoin.names"));
    ris::ReconnectPolicy policy;
    policy.initial_backoff = kBackoff;
    policy.max_backoff = kBackoff;
    policy.multiplier = 1.0;
    policy.jitter = 0;
    policy.max_attempts = 0;
    for (std::size_t i = 0; i < kSites; ++i) {
      auto site = std::make_unique<FleetSite>();
      site->name = random_name(rng, "site-");
      site->shard = server_.shard_of_site(site->name);
      site->device = std::make_unique<HarnessDevice>(net_, "h", 2);
      site->metrics = std::make_unique<util::MetricsRegistry>();
      site->ris = std::make_unique<ris::RouterInterface>(net_, site->name,
                                                         site->metrics.get());
      const std::size_t index = site->ris->add_router(
          site->device.get(), "harness device", "h.png");
      site->ris->map_port(index, 0, "p0");
      site->ris->map_port(index, 1, "p1");
      site->ris->set_reconnect_policy(policy);
      FleetSite* raw = site.get();
      site->ris->set_transport_factory([this, raw] { return dial(*raw); });
      sites_.push_back(std::move(site));
    }
    for (auto& site : sites_) site->ris->join(dial(*site));
    for (std::uint64_t r = 0; !all_joined(); ++r) {
      if (r == kMaxJoinRounds) return fail(error, "joins did not complete");
      round();
    }
    *bringup = g_spans.take();

    std::map<std::string, FleetSite*> by_name;
    for (auto& site : sites_) by_name[site->name] = site.get();
    std::size_t found = 0;
    for (const auto& router : server_.inventory()) {
      auto it = by_name.find(router.site);
      if (it == by_name.end() || router.ports.size() != 2) continue;
      it->second->router = router.id;
      it->second->ports = {router.ports[0].id, router.ports[1].id};
      ++found;
    }
    if (found != kSites) return fail(error, "routers missing from inventory");

    // Random pairs; with four shards most wires cross shards.
    std::vector<std::size_t> order(kSites);
    for (std::size_t i = 0; i < kSites; ++i) order[i] = i;
    util::Rng pair_rng(util::derive_seed(seed_, "fleet_rejoin.pairs"));
    shuffle(order, pair_rng);
    for (std::size_t i = 0; i + 1 < kSites; i += 2) {
      FleetSite& a = *sites_[order[i]];
      FleetSite& b = *sites_[order[i + 1]];
      Span span(Kind::kServerControl);
      auto status = server_.connect_ports(a.ports[0], b.ports[0]);
      if (!status.ok()) return fail(error, "connect_ports: " + status.error());
      a.peer = b.ports[0];
      b.peer = a.ports[0];
    }

    victims_.resize(kSites);
    for (std::size_t i = 0; i < kSites; ++i) victims_[i] = i;
    util::Rng victim_rng(util::derive_seed(seed_, "fleet_rejoin.victims"));
    shuffle(victims_, victim_rng);

    const auto stats = server_.stats();
    rejoined_base_ = stats.sites_rejoined;
    restored_base_ = stats.matrix_entries_restored;
    while (completed_ < kWarmupRejoins) {
      if (!churn_round(nullptr, error)) return false;
    }
    return true;
  }

  /// Runs kRejoinsPerWorld timed rejoins; returns their wall time in ns.
  std::uint64_t run_timed(WindowedSeries& series, std::string* error) {
    const std::uint64_t start = now_ns();
    const std::uint64_t target = completed_ + kRejoinsPerWorld;
    series.start(start);
    std::uint64_t t = start;
    while (completed_ < target) {
      if (!churn_round(&series, error)) break;
      t = now_ns();
      series.tick(t);
    }
    series.stop(t);
    return t - start;
  }

  [[nodiscard]] FleetCounts counts() const { return {dials_, completed_}; }

  /// Lets the cuts in flight finish and checks the fleet. Returns
  /// {attempted, failed}.
  std::pair<std::uint64_t, std::uint64_t> drain_and_check(
      WorkloadResult& result) {
    std::string error;
    draining_ = true;
    while (!in_flight_.empty() && churn_round(nullptr, &error)) {
    }
    if (!error.empty()) result.problem(error);
    const auto stats = server_.stats();
    const std::uint64_t rejoined = stats.sites_rejoined - rejoined_base_;
    const std::uint64_t restored =
        stats.matrix_entries_restored - restored_base_;
    if (rejoined != completed_ || restored != completed_) {
      result.problem("fleet_rejoin: " + std::to_string(completed_) +
                     " rejoins completed but the server counts " +
                     std::to_string(rejoined) + " rebinds and " +
                     std::to_string(restored) + " restored matrix entries");
    }
    if (!all_joined()) result.problem("fleet_rejoin: fleet not joined at end");
    return {started_, failed_ + in_flight_.size()};
  }

  /// Per-layer state counts, read once the timed phase is over.
  void state_counts(double* port_slots, double* registry_entries) {
    std::size_t slots = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      slots += server_.shard(s).port_table_slots();
    }
    *port_slots = static_cast<double>(slots);
    const util::Json metrics = server_.metrics_json();
    *registry_entries = static_cast<double>(metrics["counters"].size() +
                                            metrics["gauges"].size() +
                                            metrics["histograms"].size());
  }

 private:
  static routeserver::ShardedRouteServer::Options server_options(
      std::uint64_t seed) {
    routeserver::ShardedRouteServer::Options options;
    options.shards = kShards;
    options.seed = util::derive_seed(seed, "fleet_rejoin.shards");
    return options;
  }

  static bool fail(std::string* error, std::string what) {
    *error = "fleet_rejoin: " + std::move(what);
    return false;
  }

  static void shuffle(std::vector<std::size_t>& items, util::Rng& rng) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.below(i)]);
    }
  }

  /// A RIS dial: a fresh simulated tunnel whose server end goes through
  /// the sharded front door.
  std::unique_ptr<transport::Transport> dial(FleetSite& site) {
    ++dials_;
    transport::SimStreamOptions options;
    options.fault = &site.fault;
    std::unique_ptr<transport::Transport> ris_end;
    std::unique_ptr<transport::Transport> server_end;
    {
      Span span(Kind::kTransportDial);
      auto pair = transport::make_sim_stream_pair(net_.scheduler(), options);
      ris_end = std::move(pair.first);
      server_end = std::move(pair.second);
    }
    if (traced_) {
      ris_end = traced(std::move(ris_end), Side::kRis, &site.op);
      server_end = traced(std::move(server_end), Side::kServer, &site.op);
    }
    Span span(Kind::kServerDispatch);
    server_.dispatch(std::move(server_end));
    return ris_end;
  }

  /// One cooperative harness round: the sites' world (redial timers,
  /// tunnel deliveries), then the shards (placement, commands, timers).
  void round() {
    {
      Span span(Kind::kSimnetRun);
      net_.run_for(kSlice);
    }
    Span span(Kind::kServerPump);
    server_.pump_all();
  }

  [[nodiscard]] bool all_joined() const {
    for (const auto& site : sites_) {
      if (!site->ris->joined()) return false;
    }
    return server_.pending_dispatch() == 0;
  }

  void start_cut() {
    FleetSite* site = nullptr;
    do {
      site = sites_[victims_[next_victim_++ % kSites]].get();
    } while (site->cut);
    site->op = ++ops_;
    site->cut = true;
    site->epoch_before = site->ris->session_epoch();
    site->cut_at = now_ns();
    ++started_;
    in_flight_.push_back(site);
    OpScope op(site->op);
    Span span(Kind::kTransportCut);
    site->fault.cut();
  }

  /// The site is back: acked with a higher epoch, under its retained ids,
  /// its wire restored.
  bool rejoined_intact(const FleetSite& site, std::string* why) {
    Span span(Kind::kHarnessCheck);
    routeserver::RouteServer& shard = server_.shard(site.shard);
    const auto router = shard.find_router(site.router);
    if (!router.has_value() || router->site != site.name || !router->online ||
        router->ports.size() != 2 || router->ports[0].id != site.ports[0] ||
        router->ports[1].id != site.ports[1]) {
      *why = site.name + " rejoined without its retained ids";
      return false;
    }
    if (shard.connected_to(site.ports[0]) != site.peer) {
      *why = site.name + " rejoined without its wire";
      return false;
    }
    return true;
  }

  /// One round of the closed loop: keep kCutAtOnce sites cut, complete
  /// the ones that came back. Returns false on a stuck rejoin.
  bool churn_round(WindowedSeries* series, std::string* error) {
    while (!draining_ && in_flight_.size() < kCutAtOnce) start_cut();
    round();
    const std::uint64_t t = now_ns();
    for (std::size_t i = 0; i < in_flight_.size();) {
      FleetSite& site = *in_flight_[i];
      const bool back = site.ris->joined() &&
                        site.ris->session_epoch() > site.epoch_before;
      if (!back) {
        if (t - site.cut_at > kRejoinTimeoutNs) {
          return fail(error, site.name + " did not rejoin within 1 s");
        }
        ++i;
        continue;
      }
      std::string why;
      if (!rejoined_intact(site, &why)) {
        ++failed_;
        if (failed_ <= 3) *error = why;
      }
      ++completed_;
      if (series != nullptr) {
        series->add_ops(1);
        series->add_latency_ns(t - site.cut_at);
      }
      site.cut = false;
      site.op = 0;
      in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return true;
  }

  std::uint64_t seed_;
  bool traced_;
  // Declaration order is teardown order reversed: the sites (and their
  // tunnels) go before the server.
  simnet::Network net_;
  routeserver::ShardedRouteServer server_;
  std::vector<std::unique_ptr<FleetSite>> sites_;
  std::vector<std::size_t> victims_;
  std::size_t next_victim_ = 0;
  std::vector<FleetSite*> in_flight_;
  bool draining_ = false;
  std::uint64_t ops_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t dials_ = 0;
  std::uint64_t rejoined_base_ = 0;
  std::uint64_t restored_base_ = 0;
};

}  // namespace

WorkloadResult run_fleet_rejoin(const RunOptions& options) {
  WorkloadResult result;
  auto plain = WindowedSeries::by_time(kWindowNs);
  auto traced_series = WindowedSeries::by_time(kWindowNs);
  Setups setups;
  SpanTotals totals;
  SpanTotals bringup_totals;
  FleetCounts traced_counts;
  double traced_wall_ns = 0;
  double port_slots = 0;
  double registry_entries = 0;
  int traced_worlds = 0;
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  std::uint64_t timed_ns = 0;

  for (int w = 0; result.problems.empty() &&
                  (w < kMinWorlds * (options.trace ? 2 : 1) ||
                   timed_ns < budget_ns);
       ++w) {
    const bool traced_world = options.trace && w % 2 == 1;
    g_spans.set_on(traced_world);
    const std::uint64_t t0 = now_ns();
    const std::string tag = "fleet_rejoin.world" + std::to_string(w);
    auto world = std::make_unique<FleetWorld>(
        util::derive_seed(options.seed, tag), traced_world);
    std::string error;
    SpanTotals bringup;
    if (!world->build(&error, &bringup)) {
      result.problem(error);
      ++result.failed;
      break;
    }
    setups.add(now_ns() - t0);
    (void)g_spans.take();

    const FleetCounts before = world->counts();
    g_spans.set_keep(traced_world);
    const std::uint64_t wall =
        world->run_timed(traced_world ? traced_series : plain, &error);
    g_spans.set_keep(false);
    // Memory of one world at its stated size, before later worlds add
    // allocator fragmentation.
    if (w == 0) result.set("peak_rss_mb", peak_rss_mb(), "MB");
    timed_ns += wall;
    if (!error.empty()) result.problem(error);
    if (traced_world) {
      totals.add(g_spans.take());
      bringup_totals.add(bringup);
      traced_wall_ns += static_cast<double>(wall);
      const FleetCounts after = world->counts();
      traced_counts.dials += after.dials - before.dials;
      traced_counts.rejoins += after.rejoins - before.rejoins;
      double slots = 0;
      double entries = 0;
      world->state_counts(&slots, &entries);
      port_slots += slots;
      registry_entries += entries;
      ++traced_worlds;
    }
    g_spans.set_on(false);
    const auto [attempted, failed] = world->drain_and_check(result);
    result.attempted += attempted;
    result.failed += failed;
  }

  plain.finish();
  traced_series.finish();
  result.notes["transport"] = "simulated streams (no sockets)";
  result.notes["connections"] = "0";
  result.notes["sites"] = std::to_string(kSites);
  result.notes["shards"] =
      std::to_string(kShards) + " (cooperative, one thread)";
  result.notes["setups"] = std::to_string(setups.size());
  result.notes["rejoins_per_world"] = std::to_string(kRejoinsPerWorld);
  result.notes["windows"] = std::to_string(plain.windows());
  result.notes["latency_samples"] = std::to_string(plain.total_samples());

  if (!options.trace) {
    book_end_to_end(result, plain, setups);
    return result;
  }

  const double rejoins = static_cast<double>(traced_counts.rejoins);
  auto per_rejoin_us = [&](std::initializer_list<Kind> kinds) {
    double ns = 0;
    for (Kind kind : kinds) ns += totals.self_of(kind);
    return rejoins == 0 ? 0.0 : ns / rejoins / 1e3;
  };
  result.set("routeserver.join_us_per_rejoin",
             per_rejoin_us({Kind::kServerRx, Kind::kServerDispatch}), "us");
  result.set("routeserver.teardown_us_per_rejoin",
             per_rejoin_us({Kind::kServerClose}), "us");
  result.set("routeserver.pump_us_per_rejoin",
             per_rejoin_us({Kind::kServerPump}), "us");
  result.set("ris.session_us_per_rejoin",
             per_rejoin_us({Kind::kRisRx, Kind::kRisClose, Kind::kSimnetRun}),
             "us");
  result.set("transport.send_us_per_rejoin",
             per_rejoin_us({Kind::kTransportSend, Kind::kTransportDial,
                            Kind::kTransportCut}),
             "us");
  if (traced_worlds > 0 && rejoins > 0) {
    result.set("ris.dials_per_rejoin",
               static_cast<double>(traced_counts.dials) / rejoins, "count");
    result.set("routeserver.port_table_slots", port_slots / traced_worlds,
               "count");
    result.set("routeserver.registry_entries", registry_entries / traced_worlds,
               "count");
    result.set("routeserver.bringup_join_us_per_site",
               (bringup_totals.self_of(Kind::kServerRx) +
                bringup_totals.self_of(Kind::kServerDispatch)) /
                   (static_cast<double>(kSites) * traced_worlds) / 1e3,
               "us");
  }
  book_traced_run(result, plain, traced_series, totals, traced_wall_ns,
                  rejoins);
  return result;
}

}  // namespace perfbench
