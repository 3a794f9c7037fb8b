#pragma once

// The web-server role of the central back-end (§2.1): design sessions,
// the reservation calendar, deployment admission, automatic configuration
// save/restore through router consoles, and the console terminal plumbing.
//
// LabService sits on top of the route server the way the paper's web server
// shares netlabs.accenture.com with its route server. All user-facing
// operations — everything a mouse can do in Fig 2 — exist as methods here,
// and core/api.h exposes them as web-services calls so tests can be fully
// automated (§3.2).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/design.h"
#include "core/journal.h"
#include "core/reservation.h"
#include "routeserver/routeserver.h"
#include "simnet/network.h"
#include "util/result.h"
#include "wire/layer1.h"

namespace rnl::core {

using DesignId = std::uint64_t;
using DeploymentId = std::uint64_t;

struct Deployment {
  DeploymentId id = 0;
  std::string user;
  TopologyDesign design;
  ReservationId reservation = 0;
};

class LabService {
 public:
  LabService(simnet::Network& net, routeserver::RouteServer& server);
  ~LabService();
  LabService(const LabService&) = delete;
  LabService& operator=(const LabService&) = delete;

  // -- Inventory (Fig 2 left-hand column) --
  [[nodiscard]] std::vector<routeserver::InventoryRouter> inventory() const {
    return server_.inventory();
  }
  /// Looks an inventory router up by its display name.
  [[nodiscard]] std::optional<routeserver::InventoryRouter> router_by_name(
      const std::string& name) const;

  // -- Design sessions (§2.1) --
  DesignId create_design(const std::string& user, const std::string& name);
  [[nodiscard]] TopologyDesign* design(DesignId id);
  [[nodiscard]] std::vector<std::pair<DesignId, std::string>> designs_of(
      const std::string& user) const;
  /// Stores the design under its name for later load (web-server storage).
  util::Status save_design(DesignId id);
  /// Opens a new session from a stored design.
  util::Result<DesignId> load_design(const std::string& user,
                                     const std::string& name);
  /// "export the data to their local drive": the design as a JSON string.
  util::Result<std::string> export_design(DesignId id) const;
  util::Result<DesignId> import_design(const std::string& user,
                                       const std::string& json);

  // -- Reservations (§2.1) --
  ReservationCalendar& calendar() { return calendar_; }
  /// Books all routers of the design for [start, end).
  util::Result<ReservationId> reserve(DesignId id, util::SimTime start,
                                      util::SimTime end);
  /// The calendar's "next free period for all routers" for this design.
  [[nodiscard]] util::SimTime next_free_slot(DesignId id,
                                             util::Duration duration) const;

  // -- Deployment --
  /// Deploys the design: requires an active reservation by the same user
  /// covering every router, requires every router to be free of other
  /// active deployments, then programs the routing matrix and restores any
  /// archived configurations through the consoles.
  util::Result<DeploymentId> deploy(DesignId id);
  util::Status teardown(DeploymentId id);
  /// The live deployments. A deployment is forgotten when it ends: on
  /// teardown, on reservation expiry, or when one of its routers leaves.
  [[nodiscard]] const std::map<DeploymentId, Deployment>& deployments() const {
    return deployments_;
  }
  /// Tears down deployments whose reservation has ended and expires old
  /// calendar entries. Runs automatically once per simulated minute, and
  /// implicitly when another user deploys (§2.1: "the router connections
  /// could be torn down when the next user deploys").
  void expire_now();

  // -- Console (§2.1 VT100 terminal) --
  /// Executes one console line on a router and returns its output. Only
  /// valid while the caller's deployment or reservation includes the router
  /// (enforcement mirrors "If available and if the reservation is valid").
  std::string console_exec(wire::RouterId router, const std::string& line);
  /// Raw console output accumulated for a router (VT100-renderable).
  [[nodiscard]] const std::string& console_log(wire::RouterId router);

  // -- Configuration archive (§2.1 save/restore) --
  /// Dumps "show running-config" via the console and archives it.
  util::Status save_router_config(wire::RouterId router);
  [[nodiscard]] std::optional<std::string> archived_config(
      wire::RouterId router) const;
  void store_config(wire::RouterId router, std::string config);

  // -- Capture / injection passthrough (§2.3, for the API layer) --
  routeserver::RouteServer& route_server() { return server_; }
  simnet::Network& network() { return net_; }
  /// The registry this world's components publish into (the route server's).
  util::MetricsRegistry& metrics() { return server_.metrics(); }
  /// The trace sink the route server pushes spans into, or nullptr when
  /// tracing is not wired up (production deployments may omit it).
  [[nodiscard]] util::Tracer* tracer() { return server_.tracer(); }

  // -- Durable storage (§2.1: designs live on the web server) --
  /// Attaches the journal (non-owning; nullptr detaches). Stored designs
  /// are loaded immediately; subsequent design saves and config archives
  /// write through. Config archives are keyed by inventory name, so they
  /// survive server restarts where router ids change. The reservation
  /// calendar is event-sourced on the journal's "reservations" stream:
  /// each reserve/cancel/expire appends one event, recovery replays them,
  /// and compaction snapshots the calendar (DESIGN.md §14).
  void attach_store(JournalStore* store);

  // -- Layer-1 switches (§4, Fig 7) --
  /// Registers a programmable cross-connect so the web-services API can
  /// bridge ports on it ("Programming the layer 1 switches will be through
  /// the same web services API"). Non-owning.
  void register_layer1(wire::Layer1Switch* xc);
  [[nodiscard]] wire::Layer1Switch* layer1(const std::string& name);

  // -- Traffic generation (§2.3) --
  /// Streams `count` copies of `frame` into `port`, `interval` apart, with
  /// an optional 32-bit sequence stamp at `seq_offset` (-1 = none).
  util::Status start_traffic_stream(wire::PortId port, util::Bytes frame,
                                    std::uint32_t count,
                                    util::Duration interval,
                                    int seq_offset = -1);

 private:
  struct DesignSession {
    std::string user;
    TopologyDesign design;
  };

  /// Runs the simulated world until console output arrives or a (virtual)
  /// timeout passes. The web server and route server share a machine, so
  /// pumping the event loop here mirrors reality.
  void pump_for(util::Duration d) { net_.run_for(d); }
  [[nodiscard]] bool router_in_active_deployment(wire::RouterId router) const;

  simnet::Network& net_;
  routeserver::RouteServer& server_;
  ReservationCalendar calendar_;
  std::map<DesignId, DesignSession> sessions_;
  std::map<std::string, util::Json> stored_designs_;  // "user/name" -> JSON
  std::map<DeploymentId, Deployment> deployments_;
  std::map<wire::RouterId, std::string> console_logs_;
  std::map<wire::RouterId, std::string> config_archive_;
  std::map<std::string, wire::Layer1Switch*> layer1_switches_;
  JournalStore* store_ = nullptr;
  // The calendar's "reservations" stream in store_ (empty when detached).
  JournalStore::StreamRegistration reservations_stream_;
  DesignId next_design_id_ = 1;
  DeploymentId next_deployment_id_ = 1;
  /// Expires reservations once per simulated minute.
  simnet::Timer expiry_sweep_;
  /// Expires with the service, so queued traffic-stream frames stop.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace rnl::core
