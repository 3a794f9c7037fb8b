#include "core/api.h"

#include <cstdint>
#include <limits>

#include "util/bytes.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace rnl::core {

namespace {

util::Json ok(util::Json result = util::Json::object()) {
  util::Json response = util::Json::object();
  response.set("ok", true);
  response.set("result", std::move(result));
  return response;
}

util::Json fail(const std::string& error) {
  util::Json response = util::Json::object();
  response.set("ok", false);
  response.set("error", error);
  return response;
}

/// JSON-supplied time values arrive clamped to the int64 extremes by
/// as_int(); saturate the unit conversion instead of overflowing it (UB).
std::int64_t saturating_scale(std::int64_t value, std::int64_t scale) {
  const std::int64_t limit = std::numeric_limits<std::int64_t>::max() / scale;
  if (value > limit) return std::numeric_limits<std::int64_t>::max();
  if (value < -limit) return std::numeric_limits<std::int64_t>::min();
  return value * scale;
}

wire::NetemProfile wan_from_json(const util::Json& wan) {
  wire::NetemProfile profile;
  if (!wan.is_object()) return profile;
  profile.delay = util::Duration{saturating_scale(wan["delay_us"].as_int(), 1'000)};
  profile.jitter = util::Duration{saturating_scale(wan["jitter_us"].as_int(), 1'000)};
  profile.loss_probability = wan["loss"].as_number();
  profile.jitter_smoothing = static_cast<int>(wan["smoothing"].as_int(1));
  return profile;
}

}  // namespace

util::Json ApiServer::handle(const util::Json& request) {
  ++requests_served_;
  if (!request.is_object()) return fail("request must be a JSON object");
  const std::string& method = request["method"].as_string();
  if (method.empty()) return fail("missing method");
  return dispatch(method, request["params"]);
}

std::string ApiServer::handle_text(const std::string& request_json) {
  auto parsed = util::Json::parse(request_json);
  if (!parsed.ok()) return fail(parsed.error()).dump();
  return handle(*parsed).dump();
}

util::Json ApiServer::dispatch(const std::string& method,
                               const util::Json& params) {
  // ---- inventory ----
  if (method == "inventory.list") {
    util::Json routers = util::Json::array();
    for (const auto& router : service_.inventory()) {
      util::Json r = util::Json::object();
      r.set("id", router.id);
      r.set("site", router.site);
      r.set("name", router.name);
      r.set("description", router.description);
      r.set("image", router.image_file);
      r.set("console", router.has_console);
      util::Json ports = util::Json::array();
      for (const auto& port : router.ports) {
        util::Json p = util::Json::object();
        p.set("id", port.id);
        p.set("name", port.name);
        p.set("description", port.description);
        ports.push_back(std::move(p));
      }
      r.set("ports", std::move(ports));
      routers.push_back(std::move(r));
    }
    util::Json result = util::Json::object();
    result.set("routers", std::move(routers));
    return ok(std::move(result));
  }

  // ---- design sessions ----
  if (method == "design.create") {
    DesignId id = service_.create_design(params["user"].as_string(),
                                         params["name"].as_string());
    util::Json result = util::Json::object();
    result.set("design_id", id);
    return ok(std::move(result));
  }
  if (method == "design.add_router") {
    auto* design = service_.design(
        static_cast<DesignId>(params["design_id"].as_int()));
    if (design == nullptr) return fail("no such design");
    auto status = design->add_router(
        static_cast<wire::RouterId>(params["router_id"].as_int()));
    return status.ok() ? ok() : fail(status.error());
  }
  if (method == "design.connect") {
    auto* design = service_.design(
        static_cast<DesignId>(params["design_id"].as_int()));
    if (design == nullptr) return fail("no such design");
    auto status =
        design->connect(static_cast<wire::PortId>(params["a"].as_int()),
                        static_cast<wire::PortId>(params["b"].as_int()),
                        wan_from_json(params["wan"]));
    return status.ok() ? ok() : fail(status.error());
  }
  if (method == "design.disconnect") {
    auto* design = service_.design(
        static_cast<DesignId>(params["design_id"].as_int()));
    if (design == nullptr) return fail("no such design");
    auto status =
        design->disconnect(static_cast<wire::PortId>(params["port"].as_int()));
    return status.ok() ? ok() : fail(status.error());
  }
  if (method == "design.save") {
    auto status = service_.save_design(
        static_cast<DesignId>(params["design_id"].as_int()));
    return status.ok() ? ok() : fail(status.error());
  }
  if (method == "design.load") {
    auto id = service_.load_design(params["user"].as_string(),
                                   params["name"].as_string());
    if (!id.ok()) return fail(id.error());
    util::Json result = util::Json::object();
    result.set("design_id", *id);
    return ok(std::move(result));
  }
  if (method == "design.export") {
    auto text = service_.export_design(
        static_cast<DesignId>(params["design_id"].as_int()));
    if (!text.ok()) return fail(text.error());
    util::Json result = util::Json::object();
    result.set("design", *text);
    return ok(std::move(result));
  }
  if (method == "design.import") {
    auto id = service_.import_design(params["user"].as_string(),
                                     params["design"].as_string());
    if (!id.ok()) return fail(id.error());
    util::Json result = util::Json::object();
    result.set("design_id", *id);
    return ok(std::move(result));
  }

  // ---- reservations ----
  if (method == "reserve.next_free") {
    util::SimTime start = service_.next_free_slot(
        static_cast<DesignId>(params["design_id"].as_int()),
        util::Duration::seconds(params["duration_s"].as_int(3600)));
    util::Json result = util::Json::object();
    result.set("start_s", start.nanos / 1'000'000'000);
    return ok(std::move(result));
  }
  if (method == "reserve") {
    auto id = service_.reserve(
        static_cast<DesignId>(params["design_id"].as_int()),
        util::SimTime{saturating_scale(params["start_s"].as_int(),
                                       1'000'000'000)},
        util::SimTime{saturating_scale(params["end_s"].as_int(),
                                       1'000'000'000)});
    if (!id.ok()) return fail(id.error());
    util::Json result = util::Json::object();
    result.set("reservation_id", *id);
    return ok(std::move(result));
  }

  // ---- deployment ----
  if (method == "deploy") {
    auto id =
        service_.deploy(static_cast<DesignId>(params["design_id"].as_int()));
    if (!id.ok()) return fail(id.error());
    util::Json result = util::Json::object();
    result.set("deployment_id", *id);
    return ok(std::move(result));
  }
  if (method == "teardown") {
    auto status = service_.teardown(
        static_cast<DeploymentId>(params["deployment_id"].as_int()));
    return status.ok() ? ok() : fail(status.error());
  }

  // ---- console & configuration ----
  if (method == "console.exec") {
    std::string output = service_.console_exec(
        static_cast<wire::RouterId>(params["router_id"].as_int()),
        params["line"].as_string());
    util::Json result = util::Json::object();
    result.set("output", output);
    return ok(std::move(result));
  }
  if (method == "config.save") {
    auto status = service_.save_router_config(
        static_cast<wire::RouterId>(params["router_id"].as_int()));
    return status.ok() ? ok() : fail(status.error());
  }
  if (method == "firmware.flash") {
    std::string output = service_.console_exec(
        static_cast<wire::RouterId>(params["router_id"].as_int()),
        "flash " + params["version"].as_string());
    if (output.find('%') != std::string::npos) return fail(output);
    return ok();
  }

  // ---- capture & generation (§2.3) ----
  if (method == "capture.start") {
    auto port = static_cast<wire::PortId>(params["port_id"].as_int());
    if (!service_.route_server().port_exists(port)) {
      return fail("capture.start: unknown port id");
    }
    service_.route_server().start_capture(port);
    return ok();
  }
  if (method == "capture.stop") {
    auto frames = service_.route_server().stop_capture(
        static_cast<wire::PortId>(params["port_id"].as_int()));
    util::Json list = util::Json::array();
    for (const auto& captured : frames) {
      util::Json f = util::Json::object();
      f.set("to_port", captured.to_port);
      f.set("at_us", captured.at.nanos / 1000);
      f.set("frame", util::to_hex(captured.frame));
      list.push_back(std::move(f));
    }
    util::Json result = util::Json::object();
    result.set("frames", std::move(list));
    return ok(std::move(result));
  }
  if (method == "traffic.inject") {
    auto frame = util::from_hex(params["frame"].as_string());
    if (!frame.ok()) return fail(frame.error());
    auto status = service_.route_server().inject_frame(
        static_cast<wire::PortId>(params["port_id"].as_int()), *frame);
    return status.ok() ? ok() : fail(status.error());
  }

  if (method == "traffic.stream") {
    auto frame = util::from_hex(params["frame"].as_string());
    if (!frame.ok()) return fail(frame.error());
    auto status = service_.start_traffic_stream(
        static_cast<wire::PortId>(params["port_id"].as_int()),
        std::move(*frame),
        static_cast<std::uint32_t>(params["count"].as_int(1)),
        util::Duration::microseconds(params["interval_us"].as_int(1000)),
        static_cast<int>(params["seq_offset"].as_int(-1)));
    return status.ok() ? ok() : fail(status.error());
  }

  // ---- layer-1 switches (§4, Fig 7) ----
  if (method == "layer1.bridge" || method == "layer1.unbridge") {
    wire::Layer1Switch* xc = service_.layer1(params["switch"].as_string());
    if (xc == nullptr) return fail("unknown layer-1 switch");
    try {
      if (method == "layer1.bridge") {
        xc->bridge(static_cast<std::size_t>(params["a"].as_int()),
                   static_cast<std::size_t>(params["b"].as_int()));
      } else {
        xc->unbridge(static_cast<std::size_t>(params["port"].as_int()));
      }
    } catch (const std::out_of_range& error) {
      return fail(error.what());
    }
    return ok();
  }

  // ---- automation helpers ----
  if (method == "run_for") {
    // Advances the lab's clock — the automation equivalent of "wait N ms
    // for the network to converge".
    service_.network().run_for(
        util::Duration::milliseconds(params["millis"].as_int(1000)));
    return ok();
  }
  if (method == "stats") {
    const auto& stats = service_.route_server().stats();
    util::Json result = util::Json::object();
    result.set("frames_routed", stats.frames_routed);
    result.set("bytes_routed", stats.bytes_routed);
    result.set("unrouted_drops", stats.unrouted_drops);
    result.set("injected_frames", stats.injected_frames);
    result.set("decode_errors", stats.decode_errors);
    result.set("sites_joined", stats.sites_joined);
    result.set("sites_lost", stats.sites_lost);
    result.set("sites_rejoined", stats.sites_rejoined);
    result.set("sites_forgotten", stats.sites_forgotten);
    result.set("stale_epoch_drops", stats.stale_epoch_drops);
    result.set("spoofed_port_drops", stats.spoofed_port_drops);
    result.set("matrix_entries_restored", stats.matrix_entries_restored);
    result.set("shed_data_frames", stats.shed_data_frames);
    result.set("control_frames_deferred", stats.control_frames_deferred);
    result.set("shed_entries", stats.shed_entries);
    result.set("hard_cap_evictions", stats.hard_cap_evictions);
    result.set("stalled_evictions", stats.stalled_evictions);
    result.set("sites_shedding", service_.route_server().sites_shedding());
    result.set("overloaded", service_.route_server().overloaded());
    result.set("sites", service_.route_server().site_count());
    util::Json dataplane = util::Json::object();
    dataplane.set("fast_path_frames", stats.dataplane.fast_path_frames);
    dataplane.set("slow_path_frames", stats.dataplane.slow_path_frames);
    dataplane.set("payload_allocs", stats.dataplane.payload_allocs);
    dataplane.set("bytes_copied", stats.dataplane.bytes_copied);
    result.set("dataplane", std::move(dataplane));
    return ok(std::move(result));
  }

  // ---- observability (see DESIGN.md "Observability") ----
  if (method == "metrics.dump") {
    return ok(service_.metrics().to_json());
  }
  if (method == "metrics.prometheus") {
    util::Json result = util::Json::object();
    result.set("text", service_.metrics().to_prometheus());
    return ok(std::move(result));
  }
  // ---- tracing (DESIGN.md "Tracing") ----
  if (method == "trace.enable") {
    util::Tracer* tracer = service_.tracer();
    if (tracer == nullptr) {
      return fail("trace.enable: no tracer wired to this route server");
    }
    tracer->set_enabled(params["on"].is_null() ? true : params["on"].as_bool());
    if (!params["head_sample_period"].is_null()) {
      tracer->set_head_sample_period(static_cast<std::uint32_t>(
          params["head_sample_period"].as_int()));
    }
    util::Json result = util::Json::object();
    result.set("enabled", tracer->enabled());
    result.set("head_sample_period",
               static_cast<std::int64_t>(tracer->head_sample_period()));
    return ok(std::move(result));
  }
  if (method == "trace.dump") {
    util::Tracer* tracer = service_.tracer();
    if (tracer == nullptr) {
      return fail("trace.dump: no tracer wired to this route server");
    }
    const std::size_t max_events =
        params["max_events"].is_null()
            ? 0
            : static_cast<std::size_t>(params["max_events"].as_int());
    return ok(tracer->to_json(max_events));
  }
  if (method == "trace.slow") {
    util::Tracer* tracer = service_.tracer();
    if (tracer == nullptr) {
      return fail("trace.slow: no tracer wired to this route server");
    }
    util::Json list = util::Json::array();
    for (const auto& slow : tracer->slow_frames()) {
      util::Json e = util::Json::object();
      e.set("trace_id", util::hex_trace_id(slow.trace_id));
      e.set("ts_ns", slow.ts_ns);
      e.set("forward_ns", slow.forward_ns);
      e.set("threshold_ns", slow.threshold_ns);
      e.set("src_port", slow.src_port);
      e.set("dst_port", slow.dst_port);
      list.push_back(std::move(e));
    }
    util::Json result = util::Json::object();
    result.set("slow", std::move(list));
    result.set("total", tracer->slow_total());
    result.set("threshold_ns", tracer->tail_threshold_ns());
    return ok(std::move(result));
  }
  if (method == "trace.perfetto") {
    util::Tracer* tracer = service_.tracer();
    if (tracer == nullptr) {
      return fail("trace.perfetto: no tracer wired to this route server");
    }
    util::Json result = util::Json::object();
    result.set("text", tracer->to_perfetto());
    return ok(std::move(result));
  }
  if (method == "log.set_level") {
    const std::string& level = params["level"].as_string();
    if (!util::level_from_string(level).has_value()) {
      return fail("log.set_level: unknown level '" + level + "'");
    }
    util::Logger::instance().apply_level_spec(level.c_str());
    return ok();
  }

  return fail("unknown method '" + method + "'");
}

}  // namespace rnl::core
