#pragma once

// Headless model of the web user interface (Fig 2) and its interactions.
//
// "The left hand column is our router inventory ... The right hand pane
// shows the design space ... The users could drag and drop any router from
// the inventory to the design plane ... To connect one router to another,
// the user first click on a port on the first router, then drag the line to
// another port on the second router." Ports are clicked through rectangular
// active regions on the router's back-panel image, defined by the lab
// manager in the RIS configuration (Fig 3).
//
// WebUiSession models one browser tab: drag/drop and click/drag-wire in
// image coordinates, a calendar view, and VT100 terminals per router. The
// browser rendering is text; every mutation goes through LabService exactly
// like the real web server's form handlers would.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/labservice.h"
#include "core/vt100.h"

namespace rnl::core {

class WebUiSession {
 public:
  WebUiSession(LabService& service, std::string user)
      : service_(service), user_(std::move(user)) {}

  [[nodiscard]] const std::string& user() const { return user_; }

  // -- Left column (inventory) --

  /// Renders the inventory as the left column shows it: name, description,
  /// console badge, and which routers are already used by the open design
  /// (those disappear from the column, Fig 2: "the router is removed from
  /// the inventory").
  [[nodiscard]] std::string render_inventory() const;

  // -- /metrics (operator page) --

  /// Renders the lab's metrics registry as the operator status page: every
  /// counter and gauge, plus count/p50/p99 per latency histogram.
  [[nodiscard]] std::string render_metrics() const;

  // -- /trace (operator page) --

  /// Renders recent trace activity: sampling state, the slow-frame ledger
  /// (tail captures that beat the p99 gate), and the newest spans grouped
  /// by trace id so one frame's capture->...->replay path reads as a block.
  [[nodiscard]] std::string render_trace(std::size_t max_events = 64) const;

  // -- Design plane --

  /// Opens a new, empty design tab ("start multiple simultaneous design
  /// sessions").
  DesignId open_design(const std::string& name);

  /// Drag a router from the inventory onto the plane (by display name).
  util::Status drag_router_to_plane(const std::string& router_name);

  /// Mouse click at (x, y) on a router's back-panel image; resolves to the
  /// port whose active rectangle contains the point.
  [[nodiscard]] util::Result<wire::PortId> click_port(
      const std::string& router_name, int x, int y) const;

  /// The click-then-drag wire gesture: click a port region on one image,
  /// release on a port region of another.
  util::Status draw_wire(const std::string& router_a, int ax, int ay,
                         const std::string& router_b, int bx, int by,
                         wire::NetemProfile wan = {});

  /// Tooltip text when hovering (x, y) over a router image.
  [[nodiscard]] std::string hover_text(const std::string& router_name, int x,
                                       int y) const;

  /// Renders the design plane (routers + drawn wires).
  [[nodiscard]] std::string render_design_plane() const;

  // -- Calendar (the Outlook-style reserve dialog) --

  /// Renders each design router's schedule in hourly columns from `from`,
  /// marking booked hours with the holder's initial.
  [[nodiscard]] std::string render_calendar(util::SimTime from,
                                            int hours = 12) const;
  util::Result<ReservationId> reserve_next_free(util::Duration duration);

  // -- Deploy buttons --
  util::Result<DeploymentId> press_deploy();
  util::Status press_teardown();
  util::Status press_save_design();

  // -- Console terminals (VT100 panes) --

  /// Types a line into a router's terminal; the output (and prompt) render
  /// into that router's VT100 screen.
  std::string type_into_terminal(wire::RouterId router,
                                 const std::string& line);
  [[nodiscard]] Vt100Terminal& terminal(wire::RouterId router);

 private:
  [[nodiscard]] std::optional<routeserver::InventoryRouter> find_router(
      const std::string& name) const;

  LabService& service_;
  std::string user_;
  DesignId design_id_ = 0;
  std::optional<DeploymentId> deployment_;
  std::map<wire::RouterId, std::unique_ptr<Vt100Terminal>> terminals_;
};

}  // namespace rnl::core
