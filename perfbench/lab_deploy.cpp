// lab_deploy: the service plane, as scripted by the Fig 6 nightly test
// (§3.2). 64 simulated sites each hold a 2-port Ipv4Router with a console
// and a short archived config. A JournalStore (compaction every 256 events;
// appends run with fsync off, snapshots still fsync) backs the LabService.
// One client drives a fixed count of cycles as JSON text through
// ApiServer::handle_text:
//   design.create, design.add_router x2, design.connect, reserve,
//   deploy (archived config restored over both consoles),
//   one console.exec check, teardown.
// core and the console relay do the work; no data frames flow. The count
// is fixed because deploy cost grows with the deployments the service has
// served (it scans the never-pruned deployments map), so a run that simply
// went on longer would measure a different system.

#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/api.h"
#include "core/journal.h"
#include "core/labservice.h"
#include "devices/router.h"
#include "ris/ris.h"
#include "routeserver/routeserver.h"
#include "simnet/network.h"
#include "transport/sim_stream.h"
#include "util/json.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using namespace rnl;

constexpr std::size_t kSites = 64;
constexpr std::size_t kUsers = 8;
/// Timed cycles per world: the same in every run (see above).
constexpr std::size_t kCycles = 1000;
/// Warm-up cycles whose journal the set-up then reopens (recovery).
constexpr std::size_t kWarmupCycles = 64;
constexpr int kMinWorlds = 3;
/// Worlds per statistics window. Compactions (two fsyncs each, every 128
/// cycles) make up 0.8% of cycles, so one world's p99 sits on the edge of
/// that cluster with two or three ordinary cycles beyond it; four worlds
/// per window put about ten there.
constexpr std::size_t kWorldsPerWindow = 4;
/// Reservation length. A cycle spends at least 1.7 s of virtual time (one
/// 100 ms console wait per config line), so a window opened at the start
/// of cycle k has closed before cycle k+2 starts.
constexpr std::int64_t kWindowSeconds = 3;
constexpr std::uint64_t kMaxJoinRounds = 10'000;

struct RouterInfo {
  std::size_t site = 0;
  wire::RouterId id = 0;
  std::array<wire::PortId, 2> ports{};
  std::string hostname;  // as the archived config sets it
};

/// One cycle's inputs, drawn from the seed.
struct CyclePlan {
  std::size_t a = 0, b = 0;            // router indices, a != b
  std::size_t port_a = 0, port_b = 0;  // which of their two ports to wire
};

/// Per-world counters the traced run turns into per-layer values.
struct DeployCounts {
  std::uint64_t console_bytes = 0;
  std::uint64_t appends = 0;
  std::uint64_t compactions = 0;
};

class DeployWorld {
 public:
  DeployWorld(std::uint64_t seed, bool traced, std::string journal_dir)
      : seed_(seed),
        traced_(traced),
        journal_dir_(std::move(journal_dir)),
        net_(util::derive_seed(seed, "lab_deploy.net")),
        server_(net_.scheduler(), &server_metrics_),
        service_(net_, server_),
        api_(service_) {}

  ~DeployWorld() {
    // Detach the service before the sites unwind, so teardown-time site
    // departures do not fire "lost router" reactions, and release the
    // journal before the store goes.
    server_.set_inventory_changed_handler(nullptr);
    server_.set_console_output_handler(nullptr);
    service_.attach_store(nullptr);
  }
  DeployWorld(const DeployWorld&) = delete;
  DeployWorld& operator=(const DeployWorld&) = delete;

  /// Sites, joins, archived configs, a fresh journal, the warm-up cycles,
  /// then the journal reopened (recovered) and re-attached.
  bool build(std::string* error) {
    util::Rng rng(util::derive_seed(seed_, "lab_deploy.names"));
    for (std::size_t i = 0; i < kSites; ++i) {
      names_.push_back(random_name(rng, "dep-"));
      routers_.push_back(std::make_unique<devices::Ipv4Router>(net_, "r", 2));
      sites_.push_back(std::make_unique<ris::RouterInterface>(
          net_, names_.back(), &ris_metrics_));
      devices::Ipv4Router& router = *routers_.back();
      ris::RouterInterface& site = *sites_.back();
      const std::size_t index =
          site.add_router(&router, "IOS-class IPv4 router", "r.png");
      site.map_port(index, 0, router.port_names()[0]);
      site.map_port(index, 1, router.port_names()[1]);
      site.attach_console(index);
      auto [ris_end, server_end] =
          transport::make_sim_stream_pair(net_.scheduler());
      if (traced_) {
        ris_end = traced(std::move(ris_end), Side::kRis);
        server_end = traced(std::move(server_end), Side::kServer);
      }
      {
        Span span(Kind::kServerDispatch);
        server_.accept(std::move(server_end));
      }
      site.join(std::move(ris_end));
    }
    for (std::uint64_t r = 0;; ++r) {
      bool joined = true;
      for (const auto& site : sites_) joined = joined && site->joined();
      if (joined) break;
      if (r == kMaxJoinRounds) return fail(error, "joins did not complete");
      Span span(Kind::kSimnetRun);
      net_.run_for(util::Duration::milliseconds(1));
    }

    if (!archive_configs(error)) return false;

    // Random router pairs, except that a cycle never reuses a router of
    // the cycle before it: that one's reservation window is still open.
    util::Rng plan_rng(util::derive_seed(seed_, "lab_deploy.pairs"));
    CyclePlan last{kSites, kSites};
    for (std::size_t k = 0; k < kWarmupCycles + kCycles; ++k) {
      auto pick = [&](std::size_t other) {
        std::size_t r = 0;
        do {
          r = plan_rng.below(kSites);
        } while (r == other || r == last.a || r == last.b);
        return r;
      };
      CyclePlan plan;
      plan.a = pick(kSites);
      plan.b = pick(plan.a);
      plan.port_a = plan_rng.below(2);
      plan.port_b = plan_rng.below(2);
      plans_.push_back(plan);
      last = plan;
    }
    return open_journal(error) && warm_up(error) && reopen_journal(error);
  }

  /// Runs the timed cycles; returns how many failed (reasons go to
  /// `result`, the first few of them).
  std::uint64_t run_timed(WindowedSeries& series, WorkloadResult& result,
                          std::uint64_t* wall_ns) {
    std::uint64_t failed = 0;
    std::string why;
    const std::uint64_t start = now_ns();
    series.start(start);
    for (std::size_t k = kWarmupCycles; k < kWarmupCycles + kCycles; ++k) {
      const std::uint64_t t0 = now_ns();
      if (cycle(k, &why)) {
        series.add_ops(1);
        series.add_latency_ns(now_ns() - t0);
      } else if (++failed <= 3) {
        result.problem("lab_deploy cycle " + std::to_string(k) + ": " + why);
      }
    }
    const std::uint64_t end = now_ns();
    series.stop(end);
    *wall_ns = end - start;
    return failed;
  }

  /// One reserve -> deploy -> teardown cycle through the API. Returns false
  /// (with the reason in `why`) if any reply or output check fails.
  bool cycle(std::size_t k, std::string* why) {
    OpScope op(k + 1);
    const CyclePlan& plan = plans_[k];
    const RouterInfo& a = routers_info_[plan.a];
    const RouterInfo& b = routers_info_[plan.b];
    const wire::PortId port_a = a.ports[plan.port_a];
    const wire::PortId port_b = b.ports[plan.port_b];
    const std::string user = "user" + std::to_string(k % kUsers);

    util::Json reply;
    if (!call(Kind::kApiDesign,
              R"({"method":"design.create","params":{"user":")" + user +
                  R"(","name":"lab)" + std::to_string(k) + "\"}}",
              &reply, why)) {
      return false;
    }
    const std::string design = std::to_string(reply["design_id"].as_int());
    const std::string design_param = R"({"design_id":)" + design;
    if (!call(Kind::kApiDesign,
              R"({"method":"design.add_router","params":)" + design_param +
                  R"(,"router_id":)" + std::to_string(a.id) + "}}",
              &reply, why) ||
        !call(Kind::kApiDesign,
              R"({"method":"design.add_router","params":)" + design_param +
                  R"(,"router_id":)" + std::to_string(b.id) + "}}",
              &reply, why) ||
        !call(Kind::kApiDesign,
              R"({"method":"design.connect","params":)" + design_param +
                  R"(,"a":)" + std::to_string(port_a) + R"(,"b":)" +
                  std::to_string(port_b) + "}}",
              &reply, why)) {
      return false;
    }
    // A window from now that outlasts the cycle: restoring the configs
    // over the consoles takes 1.7 s of virtual time, and an expiry sweep
    // landing inside a lapsed window would tear the lab down mid-cycle.
    // Two cycles on, the window has closed, so routers can be reused.
    const std::int64_t now_s = net_.now().nanos / 1'000'000'000;
    if (!call(Kind::kApiReserve,
              R"({"method":"reserve","params":)" + design_param +
                  R"(,"start_s":)" + std::to_string(now_s) + R"(,"end_s":)" +
                  std::to_string(now_s + kWindowSeconds) + "}}",
              &reply, why)) {
      return false;
    }
    const std::uint64_t console_a = console_bytes_down(a.site);
    const std::uint64_t console_b = console_bytes_down(b.site);
    if (!call(Kind::kApiDeploy,
              R"({"method":"deploy","params":)" + design_param + "}}", &reply,
              why)) {
      return false;
    }
    const std::string deployment =
        std::to_string(reply["deployment_id"].as_int());
    {
      Span span(Kind::kHarnessCheck);
      if (server_.connected_to(port_a) != port_b) {
        *why = "link not wired after deploy";
        return false;
      }
      if (console_bytes_down(a.site) == console_a ||
          console_bytes_down(b.site) == console_b) {
        *why = "deploy restored no config over a console";
        return false;
      }
    }
    if (!call(Kind::kApiConsole,
              R"({"method":"console.exec","params":{"router_id":)" +
                  std::to_string(a.id) + R"(,"line":"show running-config"}})",
              &reply, why)) {
      return false;
    }
    {
      Span span(Kind::kHarnessCheck);
      if (reply["output"].as_string().find("hostname " + a.hostname + "\n") ==
          std::string::npos) {
        *why = "console does not show the archived hostname";
        return false;
      }
    }
    if (!call(Kind::kApiTeardown,
              R"({"method":"teardown","params":{"deployment_id":)" +
                  deployment + "}}",
              &reply, why)) {
      return false;
    }
    Span span(Kind::kHarnessCheck);
    if (server_.connected_to(port_a).has_value()) {
      *why = "link still wired after teardown";
      return false;
    }
    return true;
  }

  DeployCounts counts() const {
    DeployCounts c;
    for (const auto& site : sites_) {
      c.console_bytes +=
          site->stats().console_bytes_up + site->stats().console_bytes_down;
    }
    c.appends = store_->stats().events_appended;
    c.compactions = store_->stats().compactions;
    return c;
  }

  [[nodiscard]] std::size_t deployments_held() const {
    return service_.deployments().size();
  }
  [[nodiscard]] double recover_ms() const { return recover_ms_; }
  [[nodiscard]] std::uint64_t records_replayed() const {
    return records_replayed_;
  }

 private:
  static bool fail(std::string* error, std::string what) {
    *error = "lab_deploy set-up: " + std::move(what);
    return false;
  }

  /// Product defaults (compaction every 256 events) except fsync. The run
  /// may write only inside its checkout, which usually sits on disk; on
  /// ext4 over a virtio disk an append's fsync cost 100-200 us and drifted
  /// by tens of percent between runs. With fsync off, appends land in the
  /// page cache as they would on tmpfs, so the journal's own work is
  /// measured and the disk is left out.
  static core::JournalStore::Options journal_options() {
    core::JournalStore::Options options;
    options.fsync = false;
    return options;
  }

  /// Sends one request as JSON text; on an "ok" reply leaves its result in
  /// `result`.
  bool call(Kind kind, const std::string& request, util::Json* result,
            std::string* why) {
    std::string reply;
    {
      Span span(kind);
      reply = api_.handle_text(request);
    }
    Span span(Kind::kHarnessCheck);
    auto parsed = util::Json::parse(reply);
    if (!parsed.ok() || !(*parsed)["ok"].as_bool()) {
      *why = "reply not ok: " + request + " -> " + reply;
      return false;
    }
    *result = (*parsed)["result"];
    return true;
  }

  std::uint64_t console_bytes_down(std::size_t site) const {
    return sites_[site]->stats().console_bytes_down;
  }

  /// Looks every router up in the inventory and archives its config: a
  /// hostname of its own and an address on each port.
  bool archive_configs(std::string* error) {
    std::map<std::string, std::size_t> site_index;
    for (std::size_t i = 0; i < kSites; ++i) site_index[names_[i]] = i;
    routers_info_.resize(kSites);
    std::size_t found = 0;
    for (const auto& router : server_.inventory()) {
      auto it = site_index.find(router.site);
      if (it == site_index.end() || router.ports.size() != 2) continue;
      RouterInfo& info = routers_info_[it->second];
      info.site = it->second;
      info.id = router.id;
      info.ports = {router.ports[0].id, router.ports[1].id};
      info.hostname = "lab-" + router.site;
      const auto& ports = routers_[it->second]->port_names();
      const std::string net = "10." + std::to_string(it->second) + ".";
      service_.store_config(
          router.id, "hostname " + info.hostname + "\n!\ninterface " +
                         ports[0] + "\n ip address " + net +
                         "0.1 255.255.255.252\n!\ninterface " + ports[1] +
                         "\n ip address " + net + "1.1 255.255.255.252\n!\n");
      ++found;
    }
    if (found != kSites) return fail(error, "routers missing from inventory");
    return true;
  }

  bool open_journal(std::string* error) {
    std::error_code ec;
    std::filesystem::remove_all(journal_dir_, ec);
    std::filesystem::create_directories(journal_dir_, ec);
    if (ec) return fail(error, "journal dir: " + ec.message());
    store_ = std::make_unique<core::JournalStore>(journal_dir_, nullptr,
                                                   journal_options());
    service_.attach_store(store_.get());
    return true;
  }

  bool warm_up(std::string* error) {
    std::string why;
    for (std::size_t k = 0; k < kWarmupCycles; ++k) {
      if (!cycle(k, &why)) return fail(error, "warm-up cycle: " + why);
    }
    return true;
  }

  bool reopen_journal(std::string* error) {
    service_.attach_store(nullptr);
    store_.reset();
    const std::uint64_t t0 = now_ns();
    {
      Span span(Kind::kJournalOpen);
      store_ = std::make_unique<core::JournalStore>(journal_dir_, nullptr,
                                                   journal_options());
    }
    recover_ms_ = static_cast<double>(now_ns() - t0) / 1e6;
    records_replayed_ = store_->stats().records_replayed;
    if (store_->stats().recoveries == 0) {
      return fail(error, "reopened journal recovered nothing");
    }
    service_.attach_store(store_.get());
    return true;
  }

  std::uint64_t seed_;
  bool traced_;
  std::string journal_dir_;
  // Declaration order is teardown order reversed (see ~DeployWorld).
  simnet::Network net_;
  util::MetricsRegistry server_metrics_;
  util::MetricsRegistry ris_metrics_;
  routeserver::RouteServer server_;
  core::LabService service_;
  core::ApiServer api_;
  std::unique_ptr<core::JournalStore> store_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<devices::Ipv4Router>> routers_;
  std::vector<std::unique_ptr<ris::RouterInterface>> sites_;
  std::vector<RouterInfo> routers_info_;
  std::vector<CyclePlan> plans_;
  double recover_ms_ = 0;
  std::uint64_t records_replayed_ = 0;
};

}  // namespace

WorkloadResult run_lab_deploy(const RunOptions& options) {
  WorkloadResult result;
  auto plain = WindowedSeries::by_stretches(kWorldsPerWindow);
  auto traced_series = WindowedSeries::by_stretches(kWorldsPerWindow);
  Setups setups;
  std::vector<double> recover_ms;
  std::vector<double> replayed;
  SpanTotals totals;
  DeployCounts traced_counts;
  double held = 0;
  double traced_cycles = 0;
  double traced_wall_ns = 0;
  int traced_worlds = 0;
  const std::string journal_dir = options.work_dir + "/journal";
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  std::uint64_t timed_ns = 0;

  for (int w = 0; result.problems.empty() &&
                  (w < kMinWorlds * (options.trace ? 2 : 1) ||
                   timed_ns < budget_ns);
       ++w) {
    const bool traced_world = options.trace && w % 2 == 1;
    g_spans.set_on(traced_world);
    const std::uint64_t t0 = now_ns();
    auto world = std::make_unique<DeployWorld>(
        util::derive_seed(options.seed, "lab_deploy.world" + std::to_string(w)),
        traced_world, journal_dir);
    std::string error;
    if (!world->build(&error)) {
      result.problem(error);
      ++result.failed;
      break;
    }
    setups.add(now_ns() - t0);
    (void)g_spans.take();

    const DeployCounts before = world->counts();
    std::uint64_t wall = 0;
    g_spans.set_keep(traced_world);
    const std::uint64_t failed = world->run_timed(
        traced_world ? traced_series : plain, result, &wall);
    g_spans.set_keep(false);
    // Memory of one world at its stated size, before later worlds add
    // allocator fragmentation.
    if (w == 0) result.set("peak_rss_mb", peak_rss_mb(), "MB");
    timed_ns += wall;
    result.attempted += kCycles;
    result.failed += failed;
    if (traced_world) {
      totals.add(g_spans.take());
      const DeployCounts after = world->counts();
      traced_counts.console_bytes += after.console_bytes - before.console_bytes;
      traced_counts.appends += after.appends - before.appends;
      traced_counts.compactions += after.compactions - before.compactions;
      traced_cycles += kCycles;
      traced_wall_ns += static_cast<double>(wall);
      held += static_cast<double>(world->deployments_held());
      recover_ms.push_back(world->recover_ms());
      replayed.push_back(static_cast<double>(world->records_replayed()));
      ++traced_worlds;
    }
    g_spans.set_on(false);
  }

  plain.finish();
  traced_series.finish();
  result.notes["transport"] = "simulated streams (no sockets)";
  result.notes["connections"] = "0";
  result.notes["journal"] =
      "JournalStore in the checkout's work directory, fsync off for appends "
      "(snapshots still fsync), compaction every 256 events";
  result.notes["setups"] = std::to_string(setups.size());
  result.notes["cycles_per_world"] = std::to_string(kCycles);
  result.notes["windows"] = std::to_string(plain.windows());
  result.notes["latency_samples"] = std::to_string(plain.total_samples());

  if (!options.trace) {
    book_end_to_end(result, plain, setups);
    return result;
  }

  auto per_cycle_us = [&](Kind kind) {
    return traced_cycles == 0 ? 0.0
                              : totals.total_of(kind) / traced_cycles / 1e3;
  };
  result.set("api.design_us", per_cycle_us(Kind::kApiDesign), "us");
  result.set("api.reserve_us", per_cycle_us(Kind::kApiReserve), "us");
  result.set("api.deploy_us", per_cycle_us(Kind::kApiDeploy), "us");
  result.set("api.console_us", per_cycle_us(Kind::kApiConsole), "us");
  result.set("api.teardown_us", per_cycle_us(Kind::kApiTeardown), "us");
  if (traced_worlds > 0 && traced_cycles > 0) {
    result.set("labservice.deployments_held", held / traced_worlds, "count");
    result.set("ris.console_bytes_per_cycle",
               static_cast<double>(traced_counts.console_bytes) / traced_cycles,
               "bytes");
    result.set("journal.appends_per_cycle",
               static_cast<double>(traced_counts.appends) / traced_cycles,
               "count");
    result.set("journal.compactions_per_1k_cycles",
               static_cast<double>(traced_counts.compactions) * 1000 /
                   traced_cycles,
               "count");
    result.set("journal.recover_ms", median(recover_ms), "ms");
    result.set("journal.records_replayed", median(replayed), "count");
  }
  book_traced_run(result, plain, traced_series, totals, traced_wall_ns,
                  traced_cycles);
  return result;
}

}  // namespace perfbench
