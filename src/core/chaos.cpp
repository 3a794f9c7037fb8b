#include "core/chaos.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/api.h"
#include "core/journal.h"
#include "core/labservice.h"
#include "devices/traffgen.h"
#include "ris/ris.h"
#include "routeserver/sharded.h"
#include "simnet/network.h"
#include "transport/sim_stream.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace rnl::core::chaos {

const char* to_string(ChaosEvent::Op op) {
  switch (op) {
    case ChaosEvent::Op::kCut: return "cut";
    case ChaosEvent::Op::kStall: return "stall";
    case ChaosEvent::Op::kResume: return "resume";
    case ChaosEvent::Op::kAbandon: return "abandon";
    case ChaosEvent::Op::kRestartServer: return "restart_server";
    case ChaosEvent::Op::kOverloadBurst: return "overload_burst";
    case ChaosEvent::Op::kDeployCycle: return "deploy_cycle";
  }
  return "?";
}

namespace {

constexpr int kPhases = 6;
const char* const kPhaseNames[kPhases] = {"join",    "churn",         "stall",
                                          "restart", "abandon_churn", "settle"};

}  // namespace

ChaosSchedule ChaosSchedule::generate(const FleetOptions& options) {
  ChaosSchedule schedule;
  util::Rng rng(util::derive_seed(options.seed, "chaos.schedule"));
  const std::int64_t phase = options.phase_len.nanos;
  const std::size_t churn =
      options.sites > options.service_sites
          ? options.sites - options.service_sites
          : 0;
  // A time uniformly inside [lo, hi) of phase p's span.
  auto at_in = [&](int p, double lo, double hi) {
    const double frac = lo + rng.next_double() * (hi - lo);
    return util::SimTime{phase * p + static_cast<std::int64_t>(
                                         static_cast<double>(phase) * frac)};
  };
  auto add = [&](util::SimTime at, ChaosEvent::Op op, std::uint32_t target) {
    schedule.events.push_back(ChaosEvent{at, op, target});
  };

  // Link cuts: both churn phases. Early enough (< 0.8 of the phase) that
  // the reconnect machine resolves every cut before the run ends.
  const auto cuts = static_cast<std::size_t>(
      static_cast<double>(churn) * options.cut_fraction);
  for (int p : {1, 4}) {
    for (std::size_t i = 0; i < cuts; ++i) {
      add(at_in(p, 0.0, 0.8), ChaosEvent::Op::kCut,
          static_cast<std::uint32_t>(rng.below(churn)));
    }
  }

  // Stalls (zero receive window) resolve 1–3 s after they start, and the
  // overload bursts land while stalls are live so the server's egress
  // budget actually engages.
  const auto stalls = static_cast<std::size_t>(
      static_cast<double>(churn) * options.stall_fraction);
  for (std::size_t i = 0; i < stalls; ++i) {
    const auto target = static_cast<std::uint32_t>(rng.below(churn));
    const util::SimTime at = at_in(2, 0.0, 0.5);
    add(at, ChaosEvent::Op::kStall, target);
    add(at + util::Duration::milliseconds(
                 1000 + static_cast<std::int64_t>(rng.below(2000))),
        ChaosEvent::Op::kResume, target);
  }
  for (std::size_t i = 0; i < options.overload_bursts; ++i) {
    add(at_in(2, 0.3, 0.7), ChaosEvent::Op::kOverloadBurst,
        static_cast<std::uint32_t>(i));
  }

  // Server kill/restart cycles, evenly through the restart phase.
  for (std::size_t i = 0; i < options.server_restarts; ++i) {
    const std::int64_t at =
        phase * 3 + phase * static_cast<std::int64_t>(i + 1) /
                        static_cast<std::int64_t>(options.server_restarts + 1);
    add(util::SimTime{at}, ChaosEvent::Op::kRestartServer,
        static_cast<std::uint32_t>(i));
  }

  // Abandons land early in phase 4 so the retention deadline expires (and
  // the sweep forgets the parked inventory) well before the run ends.
  for (std::size_t i = 0; i < options.abandons && churn > 0; ++i) {
    add(at_in(4, 0.0, 0.25), ChaosEvent::Op::kAbandon,
        static_cast<std::uint32_t>(rng.below(churn)));
  }

  // Service-plane load: reserve→deploy→teardown cycles across phases 1..5.
  const std::size_t deploys = options.deploys;
  for (std::size_t k = 0; k < deploys; ++k) {
    const auto offset = static_cast<std::int64_t>(
        4.9 * static_cast<double>(phase) * static_cast<double>(k) /
        static_cast<double>(deploys));
    add(util::SimTime{phase + offset}, ChaosEvent::Op::kDeployCycle,
        static_cast<std::uint32_t>(k));
  }

  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

util::Json ChaosSchedule::to_json() const {
  util::Json list = util::Json::array();
  for (const auto& event : events) {
    util::Json entry = util::Json::object();
    entry.set("at_ns", event.at.nanos);
    entry.set("op", to_string(event.op));
    entry.set("target", event.target);
    list.push_back(std::move(entry));
  }
  return list;
}

namespace {

/// The whole fleet in one object. Declaration order is destruction-safety:
/// the metrics registry outlives every RIS publishing into it, and the
/// server generation (store → server → service → api) dies before the
/// sites whose transports it still references.
class FleetSoak {
 public:
  explicit FleetSoak(const FleetOptions& options)
      : opt_(options),
        schedule_(ChaosSchedule::generate(options)),
        net_(util::derive_seed(options.seed, "fleet.net")) {}

  FleetReport run() {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove_all(opt_.store_root, ec);
    fs::create_directories(opt_.store_root, ec);

    build_server();
    build_sites();

    const util::SimTime end{opt_.phase_len.nanos * kPhases};
    std::size_t next_event = 0;
    int last_phase = -1;
    while (net_.now() < end) {
      const int phase = static_cast<int>(net_.now().nanos / opt_.phase_len.nanos);
      if (phase != last_phase) {
        check_epochs();
        last_phase = phase;
      }
      while (next_event < schedule_.events.size() &&
             schedule_.events[next_event].at <= net_.now()) {
        apply(schedule_.events[next_event++]);
      }
      server_->pump_all();
    }
    while (next_event < schedule_.events.size()) {
      apply(schedule_.events[next_event++]);
    }

    final_checks();

    FleetReport result;
    result.failures = failures_;
    result.ok = failures_.empty();
    result.report = build_report(result.ok);
    return result;
  }

 private:
  struct Site {
    std::string name;
    std::size_t shard = 0;
    bool service = false;
    bool abandoned = false;
    std::uint32_t last_epoch = 0;
    std::unique_ptr<devices::TrafficGenerator> device;
    std::unique_ptr<ris::RouterInterface> ris;
    transport::SimLinkFault fault;
  };

  void require(bool condition, const std::string& what) {
    if (!condition) failures_.push_back(what);
  }

  // -- World construction ---------------------------------------------------

  std::unique_ptr<transport::Transport> dial(Site& site) {
    if (!server_up_ || site.abandoned) return nullptr;
    transport::SimStreamOptions options;
    options.fault = &site.fault;
    auto [ris_end, server_end] =
        transport::make_sim_stream_pair(net_.scheduler(), options);
    server_->dispatch(std::move(server_end));
    return std::move(ris_end);
  }

  void register_epoch_stream() {
    JournalStore::StreamHooks hooks;
    hooks.state = [this] {
      util::Json state = util::Json::object();
      for (const auto& [site, next] : epochs_) state.set(site, next);
      return state;
    };
    hooks.restore = [this](const util::Json& state) {
      epochs_.clear();
      if (!state.is_object()) return;
      for (const auto& [site, next] : state.as_object()) {
        epochs_[site] = static_cast<std::uint32_t>(next.as_int());
      }
    };
    hooks.apply = [this](const util::Json& event) {
      auto& slot = epochs_[event["site"].as_string()];
      const auto next = static_cast<std::uint32_t>(event["next"].as_int());
      if (next > slot) slot = next;
    };
    epoch_stream_ = store_->register_stream("epochs", std::move(hooks));
  }

  /// One server generation: recover the journal, raise the sharded server
  /// on the shared sim scheduler, restore the epoch counters, and put the
  /// service plane (LabService + ApiServer) back on shard 0.
  void build_server() {
    JournalStore::Options store_options;
    store_options.fsync = opt_.fsync;
    store_ = std::make_unique<JournalStore>(opt_.store_root, nullptr,
                                            store_options);
    register_epoch_stream();
    recoveries_total_ += store_->stats().recoveries;
    torn_truncations_total_ += store_->stats().torn_tail_truncations;
    records_replayed_total_ += store_->stats().records_replayed;

    routeserver::ShardedRouteServer::Options server_options;
    server_options.shards = opt_.shards;
    server_options.seed = util::derive_seed(opt_.seed, "fleet.shards");
    server_options.pump_slice = util::Duration::milliseconds(2);
    server_options.schedulers.assign(opt_.shards, &net_.scheduler());
    server_ =
        std::make_unique<routeserver::ShardedRouteServer>(server_options);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      auto& shard = server_->shard(s);
      shard.set_liveness_timeout(opt_.liveness_timeout);
      shard.set_retention_deadline(opt_.retention_deadline);
      // Tight egress budget so the overload bursts actually trip the
      // shedding/eviction machinery at soak scale.
      shard.set_egress_watermarks(32 * 1024, 8 * 1024);
      shard.set_egress_hard_cap(96 * 1024);
      shard.set_stall_deadline(util::Duration::milliseconds(500));
      shard.set_epoch_observer(
          [this](const std::string& site, std::uint32_t next_epoch) {
            auto& slot = epochs_[site];
            if (next_epoch > slot) slot = next_epoch;
            if (store_ != nullptr) {
              util::Json event = util::Json::object();
              event.set("site", site);
              event.set("next", next_epoch);
              (void)store_->append("epochs", event);
            }
          });
    }
    // The journal is the crash-safety story: a restarted server must keep
    // every site's epoch counter monotonic or the stale-frame gate resets.
    for (const auto& [site, next] : epochs_) {
      server_->shard(server_->shard_of_site(site))
          .restore_site_epoch(site, next);
    }

    service_ = std::make_unique<LabService>(net_, server_->shard(0));
    service_->attach_store(store_.get());
    api_ = std::make_unique<ApiServer>(*service_);
    server_up_ = true;
  }

  /// A service-plane site name pinned to shard 0 (where LabService fronts).
  std::string service_site_name(std::size_t i) const {
    for (int salt = 0;; ++salt) {
      std::string name = "svc" + std::to_string(i);
      if (salt > 0) name += "-" + std::to_string(salt);
      if (server_->shard_of_site(name) == 0) return name;
    }
  }

  void build_sites() {
    ris::ReconnectPolicy policy;
    policy.initial_backoff = util::Duration::milliseconds(200);
    policy.max_backoff = util::Duration::seconds(2);
    policy.max_attempts = 0;  // a fleet site redials forever
    for (std::size_t i = 0; i < opt_.sites; ++i) {
      Site& site = sites_.emplace_back();
      site.service = i < opt_.service_sites;
      site.name = site.service ? service_site_name(i)
                               : "site" + std::to_string(i);
      site.shard = server_->shard_of_site(site.name);
      site.device = std::make_unique<devices::TrafficGenerator>(
          net_, site.name + "/gen", 2);
      site.ris = std::make_unique<ris::RouterInterface>(net_, site.name,
                                                        &site_metrics_);
      const std::size_t index = site.ris->add_router(
          site.device.get(), "chaos fleet traffgen", site.name + ".png");
      site.ris->map_port(index, 0, "p0");
      site.ris->map_port(index, 1, "p1");
      site.ris->set_keepalive_interval(opt_.keepalive);
      site.ris->set_reconnect_policy(policy);
      site.ris->set_transport_factory([this, &site] { return dial(site); });
      if (auto transport = dial(site)) site.ris->join(std::move(transport));
    }
  }

  // -- Fault handlers -------------------------------------------------------

  Site& churn_site(std::uint32_t target) {
    return sites_[opt_.service_sites + target];
  }

  void apply(const ChaosEvent& event) {
    ++events_per_phase_[std::min<std::int64_t>(
        event.at.nanos / opt_.phase_len.nanos, kPhases - 1)];
    switch (event.op) {
      case ChaosEvent::Op::kCut: {
        Site& site = churn_site(event.target);
        if (site.fault.connected()) ++cuts_applied_;
        site.fault.cut();
        break;
      }
      case ChaosEvent::Op::kStall: {
        Site& site = churn_site(event.target);
        if (!site.abandoned && site.fault.connected()) {
          site.fault.stall(/*toward_a=*/true, /*toward_b=*/false);
          stalled_.insert(opt_.service_sites + event.target);
          ++stalls_applied_;
        }
        break;
      }
      case ChaosEvent::Op::kResume: {
        Site& site = churn_site(event.target);
        site.fault.resume();
        stalled_.erase(opt_.service_sites + event.target);
        break;
      }
      case ChaosEvent::Op::kAbandon: {
        Site& site = churn_site(event.target);
        if (!site.abandoned) {
          site.abandoned = true;
          // The factory refuses abandoned sites; shrink the budget so the
          // RIS gives up instead of redialing a dead cause forever.
          ris::ReconnectPolicy policy = site.ris->reconnect_policy();
          policy.max_attempts = 1;
          site.ris->set_reconnect_policy(policy);
          site.fault.cut();
          stalled_.erase(opt_.service_sites + event.target);
          ++abandons_applied_;
        }
        break;
      }
      case ChaosEvent::Op::kRestartServer:
        restart_server(/*tear_tail=*/event.target == 0);
        break;
      case ChaosEvent::Op::kOverloadBurst:
        overload_burst();
        break;
      case ChaosEvent::Op::kDeployCycle:
        deploy_cycle(event.target);
        break;
    }
  }

  /// Kill the whole central machine (store, server, service plane), tear
  /// the journal tail on the first crash, give the fleet a second of dead
  /// air, then recover from disk. Sites redial on their backoff timers.
  void restart_server(bool tear_tail) {
    const std::string journal_path = store_->journal_path();
    // The host dies: every established tunnel resets at once.
    for (auto& site : sites_) {
      if (site.fault.connected()) site.fault.cut();
    }
    stalled_.clear();
    api_.reset();
    service_.reset();
    server_.reset();
    store_.reset();
    server_up_ = false;

    if (tear_tail) {
      // A crash mid-append: half a record header at the journal's tail.
      if (std::FILE* f = std::fopen(journal_path.c_str(), "ab")) {
        const unsigned char torn[7] = {0, 0, 0, 42, 0xDE, 0xAD, 0xBE};
        std::fwrite(torn, 1, sizeof(torn), f);
        std::fclose(f);
        tear_injected_ = true;
      }
    }

    // Dead air: dials fail (the factory sees server_up_ == false) and the
    // fleet's backoff grows, exactly like a real central-server outage.
    net_.run_for(util::Duration::seconds(1));

    build_server();
    ++restarts_done_;
  }

  /// Blast frames toward every currently-stalled site. Deliveries toward
  /// the site are parked, so the bytes pile up in the server's egress
  /// accounting and the watermark/hard-cap/stall-eviction machinery runs.
  void overload_burst() {
    ++bursts_applied_;
    const std::vector<std::uint8_t> frame(512, 0xAB);
    const util::BytesView view(frame.data(), frame.size());
    // One inventory snapshot per shard, not per stalled site.
    std::map<std::size_t, std::map<std::string, wire::PortId>> port_of;
    for (std::size_t index : stalled_) {
      const Site& site = sites_[index];
      auto& by_name = port_of[site.shard];
      if (by_name.empty()) {
        for (const auto& router : server_->shard(site.shard).inventory()) {
          if (!router.ports.empty()) by_name[router.site] = router.ports[0].id;
        }
      }
    }
    for (std::size_t index : stalled_) {
      const Site& site = sites_[index];
      auto& by_name = port_of[site.shard];
      auto it = by_name.find(site.name);
      if (it == by_name.end()) continue;
      auto& shard = server_->shard(site.shard);
      for (int i = 0; i < 192; ++i) (void)shard.inject_frame(it->second, view);
    }
  }

  /// Counts a failed deploy cycle and keeps why: the cycle, the API method
  /// that failed and the error it returned.
  void deploy_failed(std::uint32_t k, const std::string& step,
                     const util::Json& response) {
    ++deploys_failed_;
    util::Json failure = util::Json::object();
    failure.set("cycle", k);
    failure.set("step", step);
    failure.set("error", response["error"].as_string());
    deploy_failures_.push_back(std::move(failure));
  }

  /// One service-plane cycle through the web API: build a two-router
  /// design across two shard-0 sites, reserve a short window, deploy
  /// (wall-clock timed — this is the latency the report quotes), tear
  /// down. Failures are counted with their reason, never fatal: chaos
  /// makes some inevitable.
  void deploy_cycle(std::uint32_t k) {
    if (!server_up_) {
      ++deploys_skipped_;
      return;
    }
    Site& a = sites_[(k * 2) % opt_.service_sites];
    Site& b = sites_[(k * 2 + 1) % opt_.service_sites];
    if (&a == &b || !a.ris->joined() || !b.ris->joined()) {
      ++deploys_skipped_;
      return;
    }
    const routeserver::InventoryRouter* router_a = nullptr;
    const routeserver::InventoryRouter* router_b = nullptr;
    const auto inventory = service_->inventory();
    for (const auto& router : inventory) {
      if (router.site == a.name) router_a = &router;
      if (router.site == b.name) router_b = &router;
    }
    if (router_a == nullptr || router_b == nullptr ||
        router_a->ports.empty() || router_b->ports.empty()) {
      ++deploys_skipped_;
      return;
    }

    auto call = [&](const std::string& method, util::Json params) {
      util::Json request = util::Json::object();
      request.set("method", method);
      request.set("params", std::move(params));
      return api_->handle(request);
    };
    const std::string user = "user" + std::to_string(k % opt_.service_sites);

    util::Json params = util::Json::object();
    params.set("user", user);
    params.set("name", "chaos-" + std::to_string(k));
    util::Json created = call("design.create", std::move(params));
    if (!created["ok"].as_bool()) {
      deploy_failed(k, "design.create", created);
      return;
    }
    const std::int64_t design_id = created["result"]["design_id"].as_int();

    auto design_param = [&] {
      util::Json p = util::Json::object();
      p.set("design_id", design_id);
      return p;
    };
    util::Json add_a = design_param();
    add_a.set("router_id", router_a->id);
    util::Json add_b = design_param();
    add_b.set("router_id", router_b->id);
    util::Json connect = design_param();
    connect.set("a", router_a->ports[0].id);
    connect.set("b", router_b->ports[0].id);
    std::pair<std::string, util::Json> design_steps[] = {
        {"design.add_router", std::move(add_a)},
        {"design.add_router", std::move(add_b)},
        {"design.connect", std::move(connect)}};
    for (auto& [method, step_params] : design_steps) {
      util::Json reply = call(method, std::move(step_params));
      if (!reply["ok"].as_bool()) {
        deploy_failed(k, method, reply);
        return;
      }
    }
    if (k % 4 == 0) {
      (void)call("design.save", design_param());  // kv stream traffic
    }

    // A short window starting now: pairs recur every service_sites/2
    // cycles, so windows must not outlive the gap or reservations clash.
    const std::int64_t now_s = net_.now().nanos / 1'000'000'000;
    util::Json reserve = design_param();
    reserve.set("start_s", now_s);
    reserve.set("end_s", now_s + 3);
    util::Json reserved = call("reserve", std::move(reserve));
    if (!reserved["ok"].as_bool()) {
      deploy_failed(k, "reserve", reserved);
      return;
    }

    const std::uint64_t t0 = util::monotonic_ns();
    util::Json deployed = call("deploy", design_param());
    deploy_hist_.record(util::monotonic_ns() - t0);
    if (!deployed["ok"].as_bool()) {
      deploy_failed(k, "deploy", deployed);
      return;
    }
    ++deploys_ok_;
    util::Json teardown = util::Json::object();
    teardown.set("deployment_id", deployed["result"]["deployment_id"].as_int());
    (void)call("teardown", std::move(teardown));
  }

  // -- Invariants -----------------------------------------------------------

  /// Session epochs are the stale-frame gate; they must never move
  /// backwards — not across cuts, not across a server restart recovered
  /// from the journal.
  void check_epochs() {
    for (auto& site : sites_) {
      const std::uint32_t epoch = site.ris->session_epoch();
      if (epoch < site.last_epoch) {
        require(false, "epoch went backwards on " + site.name + " (" +
                           std::to_string(site.last_epoch) + " -> " +
                           std::to_string(epoch) + ")");
      }
      if (epoch > site.last_epoch) site.last_epoch = epoch;
    }
  }

  void final_checks() {
    check_epochs();

    std::size_t not_joined = 0;
    std::size_t abandoned_alive = 0;
    for (const auto& site : sites_) {
      if (site.abandoned) {
        if (site.ris->joined()) ++abandoned_alive;
      } else if (!site.ris->joined()) {
        ++not_joined;
      }
    }
    require(not_joined == 0, std::to_string(not_joined) +
                                 " non-abandoned sites not joined at end");
    require(abandoned_alive == 0,
            std::to_string(abandoned_alive) + " abandoned sites still joined");
    require(server_->pending_dispatch() == 0,
            "connections stuck in dispatch: " +
                std::to_string(server_->pending_dispatch()));

    std::size_t retained_ports = 0;
    std::size_t table_slots = 0;
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      retained_ports += server_->shard(s).retained_port_count();
      table_slots += server_->shard(s).port_table_slots();
    }
    require(retained_ports == 0,
            "retained ports leaked: " + std::to_string(retained_ports));
    // Ids are never reused, so the global id space grows by one fleet of
    // ports per server generation (a fresh server re-assigns everything
    // once). Each shard stripes its ids across that GLOBAL space (shard s
    // hands out s+1, s+1+shards, ...), so every shard's dense table spans
    // the global id range and the summed slot count scales with
    // shards × fleet × generations — bounded, but shards-amplified.
    const std::size_t port_budget =
        opt_.shards * 2 * opt_.sites * (restarts_done_ + 1) +
        4 * opt_.shards + 64;
    require(table_slots <= port_budget,
            "port table slots " + std::to_string(table_slots) +
                " exceed budget " + std::to_string(port_budget));

    const auto stats = server_->stats();
    require(stats.sites_forgotten >= abandons_applied_,
            "retention forgot " + std::to_string(stats.sites_forgotten) +
                " sites, expected >= " + std::to_string(abandons_applied_));

    require(recoveries_total_ >= restarts_done_,
            "journal recoveries " + std::to_string(recoveries_total_) +
                " < restarts " + std::to_string(restarts_done_));
    if (tear_injected_) {
      require(torn_truncations_total_ >= 1,
              "torn journal tail was injected but never truncated");
    }
    if (restarts_done_ > 0) {
      require(records_replayed_total_ > 0,
              "server restarted but replayed no journal records");
    }
    const std::size_t deploy_floor = std::max<std::size_t>(1, opt_.deploys / 4);
    require(deploys_ok_ >= deploy_floor,
            "only " + std::to_string(deploys_ok_) + "/" +
                std::to_string(opt_.deploys) + " deploys succeeded (floor " +
                std::to_string(deploy_floor) + ")");
  }

  // -- Reporting ------------------------------------------------------------

  util::Json build_report(bool ok) {
    util::Json report = util::Json::object();
    report.set("bench", "fleet_soak");
    report.set("ok", ok);
    report.set("seed", opt_.seed);
    report.set("sites", opt_.sites);
    report.set("shards", opt_.shards);
    report.set("service_sites", opt_.service_sites);
    report.set("virtual_seconds",
               static_cast<double>(opt_.phase_len.nanos) * kPhases / 1e9);
    report.set("schedule_events", schedule_.events.size());

    util::Json failures = util::Json::array();
    for (const auto& failure : failures_) failures.push_back(failure);
    report.set("failures", std::move(failures));

    util::Json phases = util::Json::array();
    for (int p = 0; p < kPhases; ++p) {
      util::Json entry = util::Json::object();
      entry.set("name", kPhaseNames[p]);
      entry.set("events", events_per_phase_[p]);
      phases.push_back(std::move(entry));
    }
    report.set("phases", std::move(phases));

    util::Json faults = util::Json::object();
    faults.set("cuts", cuts_applied_);
    faults.set("stalls", stalls_applied_);
    faults.set("abandons", abandons_applied_);
    faults.set("overload_bursts", bursts_applied_);
    faults.set("server_restarts", restarts_done_);
    report.set("faults", std::move(faults));

    util::Json deploys = util::Json::object();
    deploys.set("scheduled", opt_.deploys);
    deploys.set("ok", deploys_ok_);
    deploys.set("failed", deploys_failed_);
    deploys.set("skipped", deploys_skipped_);
    deploys.set("failures", deploy_failures_);
    deploys.set("p50_us",
                static_cast<double>(deploy_hist_.percentile(50)) / 1e3);
    deploys.set("p99_us",
                static_cast<double>(deploy_hist_.percentile(99)) / 1e3);
    report.set("deploys", std::move(deploys));

    const auto stats = server_->stats();
    std::size_t retained_ports = 0;
    std::size_t retained_sites = 0;
    std::size_t table_slots = 0;
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      retained_ports += server_->shard(s).retained_port_count();
      retained_sites += server_->shard(s).retained_site_count();
      table_slots += server_->shard(s).port_table_slots();
    }
    util::Json server = util::Json::object();
    server.set("sites_joined", stats.sites_joined);
    server.set("sites_lost", stats.sites_lost);
    server.set("sites_rejoined", stats.sites_rejoined);
    server.set("sites_forgotten", stats.sites_forgotten);
    server.set("stale_epoch_drops", stats.stale_epoch_drops);
    server.set("shed_data_frames", stats.shed_data_frames);
    server.set("hard_cap_evictions", stats.hard_cap_evictions);
    server.set("stalled_evictions", stats.stalled_evictions);
    server.set("retained_sites", retained_sites);
    server.set("retained_ports", retained_ports);
    server.set("port_table_slots", table_slots);
    server.set("pending_dispatch", server_->pending_dispatch());
    report.set("server", std::move(server));

    const auto& journal = store_->stats();
    util::Json store = util::Json::object();
    store.set("recoveries", recoveries_total_);
    store.set("torn_tail_truncations", torn_truncations_total_);
    store.set("records_replayed", records_replayed_total_);
    store.set("quarantined_records", journal.quarantined_records);
    store.set("events_appended", journal.events_appended);
    store.set("compactions", journal.compactions);
    store.set("last_sequence", store_->last_sequence());
    report.set("store", std::move(store));
    return report;
  }

  FleetOptions opt_;
  ChaosSchedule schedule_;
  simnet::Network net_;
  util::MetricsRegistry site_metrics_;
  std::deque<Site> sites_;
  std::set<std::size_t> stalled_;  // indices into sites_ (deterministic order)
  std::map<std::string, std::uint32_t> epochs_;

  // The current server generation; rebuilt by restart_server. Declared
  // after the sites so a generation never outlives a transport peer.
  std::unique_ptr<JournalStore> store_;
  // The "epochs" stream in store_; its hooks read epochs_.
  JournalStore::StreamRegistration epoch_stream_;
  std::unique_ptr<routeserver::ShardedRouteServer> server_;
  std::unique_ptr<LabService> service_;
  std::unique_ptr<ApiServer> api_;
  bool server_up_ = false;

  util::Histogram deploy_hist_;
  std::uint64_t deploys_ok_ = 0;
  std::uint64_t deploys_failed_ = 0;
  /// One {cycle, step, error} object per failed deploy cycle.
  util::Json deploy_failures_ = util::Json::array();
  std::uint64_t deploys_skipped_ = 0;
  std::uint64_t cuts_applied_ = 0;
  std::uint64_t stalls_applied_ = 0;
  std::uint64_t abandons_applied_ = 0;
  std::uint64_t bursts_applied_ = 0;
  std::uint64_t restarts_done_ = 0;
  std::uint64_t recoveries_total_ = 0;
  std::uint64_t torn_truncations_total_ = 0;
  std::uint64_t records_replayed_total_ = 0;
  std::uint64_t events_per_phase_[kPhases] = {};
  bool tear_injected_ = false;
  std::vector<std::string> failures_;
};

}  // namespace

FleetReport run_fleet_soak(const FleetOptions& options) {
  FleetSoak soak(options);
  return soak.run();
}

}  // namespace rnl::core::chaos
