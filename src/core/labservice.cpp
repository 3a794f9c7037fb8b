#include "core/labservice.h"

#include <algorithm>

#include "core/journal.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rnl::core {

namespace {
constexpr const char* kLog = "labservice";
}

LabService::LabService(simnet::Network& net, routeserver::RouteServer& server)
    : net_(net),
      server_(server),
      expiry_sweep_(net.scheduler(), [this] {
        expire_now();
        expiry_sweep_.arm_after(util::Duration::minutes(1));
      }) {
  server_.set_console_output_handler(
      [this](wire::RouterId router, util::BytesView bytes) {
        console_logs_[router].append(bytes.begin(), bytes.end());
      });
  // Equipment can leave at any time (§2.3). A deployment that lost a router
  // is dead: release its surviving wires so others can use the ports.
  server_.set_inventory_changed_handler([this] {
    for (auto it = deployments_.begin(); it != deployments_.end();) {
      const Deployment& deployment = it->second;
      bool lost = false;
      for (auto router : deployment.design.routers()) {
        if (!server_.find_router(router).has_value()) {
          RNL_LOG(kWarn, kLog)
              << "deployment " << it->first << " lost router " << router
              << " (site gone); tearing down";
          lost = true;
          break;
        }
      }
      if (lost) {
        for (const auto& link : deployment.design.links()) {
          server_.disconnect_port(link.a);
        }
        it = deployments_.erase(it);
      } else {
        ++it;
      }
    }
  });
  // Housekeeping: reservation expiry sweep once per simulated minute.
  expiry_sweep_.arm_after(util::Duration::minutes(1));
}

LabService::~LabService() {
  // Release the reservations stream while the calendar it reads is alive.
  reservations_stream_.reset();
}

// ---------------------------------------------------------------------------
// Inventory
// ---------------------------------------------------------------------------

std::optional<routeserver::InventoryRouter> LabService::router_by_name(
    const std::string& name) const {
  for (const auto& router : server_.inventory()) {
    if (router.name == name) return router;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Design sessions
// ---------------------------------------------------------------------------

DesignId LabService::create_design(const std::string& user,
                                   const std::string& name) {
  DesignId id = next_design_id_++;
  sessions_[id] = DesignSession{user, TopologyDesign(name)};
  return id;
}

TopologyDesign* LabService::design(DesignId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second.design;
}

std::vector<std::pair<DesignId, std::string>> LabService::designs_of(
    const std::string& user) const {
  std::vector<std::pair<DesignId, std::string>> out;
  for (const auto& [id, session] : sessions_) {
    if (session.user == user) out.emplace_back(id, session.design.name());
  }
  return out;
}

util::Status LabService::save_design(DesignId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return util::Error{"save: no such design"};
  std::string key = it->second.user + "/" + it->second.design.name();
  util::Json json = it->second.design.to_json();
  if (store_ != nullptr) {
    auto status = store_->put("design/" + key, json);
    if (!status.ok()) return status;
  }
  stored_designs_[key] = std::move(json);
  return util::Status::Ok();
}

util::Result<DesignId> LabService::load_design(const std::string& user,
                                               const std::string& name) {
  auto it = stored_designs_.find(user + "/" + name);
  if (it == stored_designs_.end()) {
    return util::Error{"load: no stored design '" + name + "'"};
  }
  auto design = TopologyDesign::from_json(it->second);
  if (!design.ok()) return util::Error{design.error()};
  DesignId id = next_design_id_++;
  sessions_[id] = DesignSession{user, std::move(design).take()};
  return id;
}

util::Result<std::string> LabService::export_design(DesignId id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return util::Error{"export: no such design"};
  return it->second.design.to_json().dump_pretty();
}

util::Result<DesignId> LabService::import_design(const std::string& user,
                                                 const std::string& json) {
  auto parsed = util::Json::parse(json);
  if (!parsed.ok()) return util::Error{parsed.error()};
  auto design = TopologyDesign::from_json(*parsed);
  if (!design.ok()) return util::Error{design.error()};
  DesignId id = next_design_id_++;
  sessions_[id] = DesignSession{user, std::move(design).take()};
  return id;
}

// ---------------------------------------------------------------------------
// Reservations
// ---------------------------------------------------------------------------

util::Result<ReservationId> LabService::reserve(DesignId id,
                                                util::SimTime start,
                                                util::SimTime end) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return util::Error{"reserve: no such design"};
  return calendar_.reserve(it->second.user, it->second.design.routers(),
                           start, end);
}

util::SimTime LabService::next_free_slot(DesignId id,
                                         util::Duration duration) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return net_.scheduler().now();
  return calendar_.next_common_free_slot(it->second.design.routers(),
                                         duration, net_.scheduler().now());
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

bool LabService::router_in_active_deployment(wire::RouterId router) const {
  for (const auto& [id, deployment] : deployments_) {
    if (deployment.design.has_router(router)) return true;
  }
  return false;
}

util::Result<DeploymentId> LabService::deploy(DesignId id) {
  auto session = sessions_.find(id);
  if (session == sessions_.end()) return util::Error{"deploy: no such design"};
  const TopologyDesign& design = session->second.design;
  const std::string& user = session->second.user;

  // "the router connections could be torn down when the next user deploys":
  // reclaim anything whose reservation has lapsed before admission checks.
  expire_now();

  // Admission control: while the data plane is shedding (some site's egress
  // queue over its high watermark), programming more wires would only
  // deepen the overload. Refuse and let the user retry once it drains.
  if (server_.overloaded()) {
    return util::Error{
        "deploy: route server overloaded (a site's egress queue is over its "
        "watermark); admission refused — retry once the data plane drains"};
  }

  auto reservation =
      calendar_.covering(user, design.routers(), net_.scheduler().now());
  if (!reservation.has_value()) {
    return util::Error{
        "deploy: no active reservation covering every router in the design"};
  }
  for (auto router : design.routers()) {
    if (router_in_active_deployment(router)) {
      return util::Error{"deploy: router " + std::to_string(router) +
                         " is part of another deployed lab"};
    }
    if (!server_.find_router(router).has_value()) {
      return util::Error{"deploy: router " + std::to_string(router) +
                         " is no longer in the inventory"};
    }
  }

  // Program the routing matrix. Roll back on any failure — a half-deployed
  // lab is worse than none.
  std::vector<wire::PortId> wired;
  for (const auto& link : design.links()) {
    auto status = server_.connect_ports(link.a, link.b, link.wan);
    if (!status.ok()) {
      for (auto port : wired) server_.disconnect_port(port);
      return util::Error{"deploy: " + status.error()};
    }
    wired.push_back(link.a);
  }

  Deployment deployment;
  deployment.id = next_deployment_id_++;
  deployment.user = user;
  deployment.design = design;
  deployment.reservation = *reservation;
  DeploymentId deployment_id = deployment.id;
  deployments_[deployment_id] = std::move(deployment);

  // Automatic configuration restore (§2.1: "If a router configuration is
  // saved, when the users deploy the design, the configuration file is
  // loaded automatically").
  for (auto router : design.routers()) {
    auto archived = archived_config(router);
    if (!archived.has_value()) continue;
    console_exec(router, "enable");
    console_exec(router, "configure terminal");
    for (const auto& raw_line : util::split(*archived, '\n')) {
      std::string line(util::trim(raw_line));
      if (line.empty() || line[0] == '!') continue;
      console_exec(router, line);
    }
    console_exec(router, "end");
  }

  RNL_LOG(kInfo, kLog) << user << " deployed '" << design.name() << "' ("
                       << design.links().size() << " wires)";
  return deployment_id;
}

util::Status LabService::teardown(DeploymentId id) {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return util::Error{"teardown: no such active deployment"};
  }
  for (const auto& link : it->second.design.links()) {
    server_.disconnect_port(link.a);
  }
  deployments_.erase(it);
  return util::Status::Ok();
}

void LabService::expire_now() {
  util::SimTime now = net_.scheduler().now();
  for (auto it = deployments_.begin(); it != deployments_.end();) {
    auto reservation = calendar_.get(it->second.reservation);
    if (!reservation.has_value() || !reservation->active_at(now)) {
      RNL_LOG(kInfo, kLog) << "reservation over: tearing down deployment "
                           << it->first;
      for (const auto& link : it->second.design.links()) {
        server_.disconnect_port(link.a);
      }
      it = deployments_.erase(it);
    } else {
      ++it;
    }
  }
  calendar_.expire(now);
}

// ---------------------------------------------------------------------------
// Console
// ---------------------------------------------------------------------------

std::string LabService::console_exec(wire::RouterId router,
                                     const std::string& line) {
  std::string& log = console_logs_[router];
  std::size_t before = log.size();
  std::string payload = line + "\n";
  auto status = server_.console_send(
      router, util::BytesView(
                  reinterpret_cast<const std::uint8_t*>(payload.data()),
                  payload.size()));
  if (!status.ok()) return "% " + status.error() + "\n";
  // Output returns through the tunnel; wait (in virtual time) for it.
  for (int i = 0; i < 50 && log.size() == before; ++i) {
    pump_for(util::Duration::milliseconds(100));
  }
  return log.substr(before);
}

const std::string& LabService::console_log(wire::RouterId router) {
  return console_logs_[router];
}

// ---------------------------------------------------------------------------
// Config archive
// ---------------------------------------------------------------------------

util::Status LabService::save_router_config(wire::RouterId router) {
  auto info = server_.find_router(router);
  if (!info.has_value()) return util::Error{"save_config: unknown router"};
  if (!info->has_console) {
    // §2.1: "This currently only works for certain routers ... that the
    // user interface has a built-in knowledge about how to dump the
    // configuration."
    return util::Error{"save_config: router has no console attached"};
  }
  console_exec(router, "enable");
  std::string output = console_exec(router, "show running-config");
  // The console stream ends with the device prompt; the config proper is
  // everything up to the final line.
  std::size_t cut = output.find_last_of('\n');
  if (cut == std::string::npos) {
    return util::Error{"save_config: console returned no output"};
  }
  config_archive_[router] = output.substr(0, cut + 1);
  if (store_ != nullptr) {
    util::Json record = util::Json::object();
    record.set("config", config_archive_[router]);
    (void)store_->put("config/" + info->name, record);
  }
  return util::Status::Ok();
}

std::optional<std::string> LabService::archived_config(
    wire::RouterId router) const {
  auto it = config_archive_.find(router);
  if (it != config_archive_.end()) return it->second;
  // Fall back to the durable store, keyed by inventory name (router ids
  // are re-assigned every time a site re-joins).
  if (store_ != nullptr) {
    auto info = server_.find_router(router);
    if (info.has_value()) {
      auto stored = store_->get("config/" + info->name);
      if (stored.ok()) return (*stored)["config"].as_string();
    }
  }
  return std::nullopt;
}

void LabService::attach_store(JournalStore* store) {
  // Detach from the previous store first: its reservations stream keeps
  // the calendar's state, but no hook pointing at this service.
  calendar_.set_mutation_observer(nullptr);
  reservations_stream_.reset();
  store_ = store;
  if (store_ == nullptr) return;
  for (const auto& key : store_->keys("design")) {
    auto json = store_->get(key);
    if (json.ok()) {
      stored_designs_[key.substr(std::string("design/").size())] =
          std::move(*json);
    }
  }
  // The calendar journals its mutations instead of being rewritten
  // wholesale. register_stream replays any recovered snapshot + tail into
  // the calendar immediately.
  reservations_stream_ = store_->register_stream(
      "reservations",
      JournalStore::StreamHooks{
          [this] { return calendar_.to_json(); },
          [this](const util::Json& state) { calendar_.restore(state); },
          [this](const util::Json& event) { calendar_.apply(event); },
      });
  calendar_.set_mutation_observer([store](const util::Json& event) {
    (void)store->append("reservations", event);
  });
}

void LabService::store_config(wire::RouterId router, std::string config) {
  config_archive_[router] = std::move(config);
}

// ---------------------------------------------------------------------------
// Layer-1 switches & traffic streams
// ---------------------------------------------------------------------------

void LabService::register_layer1(wire::Layer1Switch* xc) {
  layer1_switches_[xc->name()] = xc;
}

wire::Layer1Switch* LabService::layer1(const std::string& name) {
  auto it = layer1_switches_.find(name);
  return it == layer1_switches_.end() ? nullptr : it->second;
}

util::Status LabService::start_traffic_stream(wire::PortId port,
                                              util::Bytes frame,
                                              std::uint32_t count,
                                              util::Duration interval,
                                              int seq_offset) {
  if (!server_.port_exists(port)) {
    return util::Error{"traffic stream: unknown port id"};
  }
  if (count == 0) return util::Status::Ok();
  std::weak_ptr<const bool> service_alive = alive_;
  for (std::uint32_t i = 0; i < count; ++i) {
    net_.scheduler().schedule_after(
        interval * static_cast<std::int64_t>(i),
        [this, service_alive, port, frame, seq_offset, i] {
          if (service_alive.expired()) return;  // service torn down
          util::Bytes stamped = frame;
          if (seq_offset >= 0 &&
              static_cast<std::size_t>(seq_offset) + 4 <= stamped.size()) {
            auto off = static_cast<std::size_t>(seq_offset);
            stamped[off] = static_cast<std::uint8_t>(i >> 24);
            stamped[off + 1] = static_cast<std::uint8_t>(i >> 16);
            stamped[off + 2] = static_cast<std::uint8_t>(i >> 8);
            stamped[off + 3] = static_cast<std::uint8_t>(i);
          }
          (void)server_.inject_frame(port, stamped);
        });
  }
  return util::Status::Ok();
}

}  // namespace rnl::core
