#include "ris/ris.h"

#include "util/logging.h"
#include "util/strings.h"

namespace rnl::ris {

namespace {
constexpr const char* kLog = "ris";
// Stage-latency histograms (capture/replay) sample 1 frame in
// util::kDefaultStageSamplePeriod (the tracer's head sampler uses the
// sparser util::kDefaultHeadSamplePeriod, since traced frames cost more
// than a clocked one). The power-of-two mask keeps the modulo branch-free.
constexpr std::uint64_t kStageSampleMask = util::kDefaultStageSamplePeriod - 1;
static_assert((util::kDefaultStageSamplePeriod &
               (util::kDefaultStageSamplePeriod - 1)) == 0,
              "stage sampling period must be a power of two");
}

RouterInterface::RouterInterface(simnet::Network& net, std::string site_name,
                                 util::MetricsRegistry* metrics)
    : net_(net),
      site_name_(std::move(site_name)),
      jitter_rng_(util::derive_seed(net.scheduler().seed(), site_name_)),
      uplink_flush_(net.scheduler(), [this] { flush_uplink(); }),
      keepalive_(net.scheduler(),
                 [this] {
                   if (!transport_ || !transport_->is_open()) return;
                   send_control(wire::MessageType::kKeepalive, 0, {});
                   keepalive_.arm_after(keepalive_interval_);
                 }),
      reconnect_(net.scheduler(), [this] { attempt_reconnect(); }),
      metrics_(metrics != nullptr ? metrics : &util::MetricsRegistry::global()),
      metrics_prefix_("ris." + site_name_ + "."),
      session_(&metrics_->histogram("wire.compression_ratio_x100")) {
  auto expose = [this](const char* field, const std::uint64_t* value) {
    metrics_->probe_counter(metrics_prefix_ + field,
                            [value] { return *value; });
  };
  expose("frames_up", &stats_.frames_up);
  expose("frames_down", &stats_.frames_down);
  expose("bytes_up", &stats_.bytes_up);
  expose("bytes_down", &stats_.bytes_down);
  expose("unknown_port_drops", &stats_.unknown_port_drops);
  expose("decode_errors", &stats_.decode_errors);
  expose("fast_path_frames", &stats_.fast_path_frames);
  expose("payload_allocs", &stats_.payload_allocs);
  expose("console_bytes_up", &stats_.console_bytes_up);
  expose("console_bytes_down", &stats_.console_bytes_down);
  expose("reconnects", &stats_.reconnects);
  expose("reconnect_failures", &stats_.reconnect_failures);
  expose("reconnect_giveups", &stats_.reconnect_giveups);
  expose("stale_epoch_drops", &stats_.stale_epoch_drops);
  expose("shed_frames", &stats_.shed_frames);
  expose("egress_flushes", &stats_.egress_flushes);
  expose("frames_coalesced", &stats_.frames_coalesced);
  capture_hist_ = &metrics_->histogram(metrics_prefix_ + "capture_ns");
  replay_hist_ = &metrics_->histogram(metrics_prefix_ + "replay_ns");
  egress_batch_hist_ =
      &metrics_->histogram(metrics_prefix_ + "egress_batch_frames");
  backoff_hist_ = &metrics_->histogram(metrics_prefix_ + "backoff_ns");
}

void RouterInterface::set_tracer(util::Tracer* tracer) {
  tracer_ = tracer;
  trace_ring_ = tracer != nullptr ? &tracer->ring("ris", site_name_) : nullptr;
}

RouterInterface::~RouterInterface() {
  metrics_->remove_prefix(metrics_prefix_);
  leaving_ = true;  // a tunnel closing from here on is intentional
  if (joined_) leave();
  if (transport_) {
    // Detach handlers before member destruction so the transport's own
    // destructor cannot re-enter a half-destroyed RIS.
    transport_->set_receive_handler(nullptr);
    transport_->set_close_handler(nullptr);
  }
}

std::size_t RouterInterface::add_router(devices::Device* device,
                                        std::string description,
                                        std::string image_file) {
  Router router;
  router.device = device;
  router.declaration.name = site_name_ + "/" + device->name();
  router.declaration.description = std::move(description);
  router.declaration.image_file = std::move(image_file);
  routers_.push_back(std::move(router));
  join_payload_.clear();
  return routers_.size() - 1;
}

void RouterInterface::map_port(std::size_t router_index,
                               std::size_t device_port, std::string description,
                               int rect_x, int rect_y, int rect_w,
                               int rect_h) {
  Router& router = routers_.at(router_index);
  MappedPort mapped;
  mapped.device_port = device_port;
  const std::string& port_name = router.device->port_names().at(device_port);
  // One dedicated NIC per router port (§2.2). The cable is the physical
  // patch lead between the PC adapter and the router's socket.
  std::string nic_name =
      util::format("%s-nic%zu", site_name_.c_str(), ++nic_counter_);
  mapped.nic = &net_.make_port(nic_name);
  net_.connect(*mapped.nic, router.device->port(device_port));
  mapped.declaration.name = port_name;
  mapped.declaration.description = std::move(description);
  mapped.declaration.nic = nic_name;
  mapped.declaration.rect_x = rect_x;
  mapped.declaration.rect_y = rect_y;
  mapped.declaration.rect_w = rect_w;
  mapped.declaration.rect_h = rect_h;

  std::size_t slot = router.ports.size();
  mapped.nic->set_receive_handler(
      [this, router_index, slot](util::BytesView frame) {
        on_nic_frame(router_index, slot, frame);
      });
  router.ports.push_back(std::move(mapped));
  router.declaration.ports.push_back(router.ports.back().declaration);
  join_payload_.clear();
}

void RouterInterface::attach_console(std::size_t router_index,
                                     std::string com_port) {
  Router& router = routers_.at(router_index);
  router.console = true;
  router.declaration.console_com = std::move(com_port);
  join_payload_.clear();
}

util::Status RouterInterface::declare_slices(
    std::size_t router_index,
    const std::vector<std::vector<std::size_t>>& slices) {
  if (router_index >= routers_.size()) {
    return util::Error{"declare_slices: no such router"};
  }
  if (joined_) {
    return util::Error{"declare_slices: cannot re-slice after joining"};
  }
  std::vector<bool> used(routers_[router_index].ports.size(), false);
  for (const auto& slice : slices) {
    for (std::size_t port : slice) {
      if (port >= used.size()) {
        return util::Error{"declare_slices: port index out of range"};
      }
      if (used[port]) {
        return util::Error{"declare_slices: slices must be disjoint"};
      }
      used[port] = true;
    }
  }
  for (std::size_t s = 0; s < slices.size(); ++s) {
    Router slice_router;
    const Router& parent = routers_[router_index];
    slice_router.device = parent.device;
    slice_router.parent = router_index;
    slice_router.slice_ports = slices[s];
    slice_router.declaration.name =
        parent.declaration.name + util::format(":slice%zu", s + 1);
    slice_router.declaration.description =
        "logical router slice of " + parent.declaration.name;
    slice_router.declaration.image_file = parent.declaration.image_file;
    for (std::size_t port : slices[s]) {
      slice_router.declaration.ports.push_back(
          parent.declaration.ports.at(port));
    }
    routers_.push_back(std::move(slice_router));
  }
  join_payload_.clear();
  return util::Status::Ok();
}

util::Json RouterInterface::config_json() const {
  util::Json config = util::Json::object();
  config.set("site", site_name_);
  config.set("server", server_address_);
  wire::JoinRequest request;
  request.site_name = site_name_;
  for (const auto& router : routers_) {
    request.routers.push_back(router.declaration);
  }
  config.set("join", request.to_json());
  return config;
}

// ---------------------------------------------------------------------------
// Tunnel plumbing
// ---------------------------------------------------------------------------

void RouterInterface::join(
    std::unique_ptr<transport::Transport> transport) {
  leaving_ = false;
  in_outage_ = false;
  attempts_this_outage_ = 0;
  start_session(std::move(transport));
}

void RouterInterface::start_session(
    std::unique_ptr<transport::Transport> transport) {
  if (transport_) {
    // Replacing a previous connection: detach its handlers before closing,
    // or its close would fire on_tunnel_lost and schedule a spurious second
    // reconnect for the session we are just establishing.
    transport_->set_receive_handler(nullptr);
    transport_->set_close_handler(nullptr);
    transport_->close();
  }
  transport_ = std::move(transport);
  // A new connection is a new session: a half-frame from the old stream,
  // both codec histories and an open uplink batch are state the peer no
  // longer shares (the route server starts each connection with a fresh
  // Session too).
  session_.reset();
  joined_ = false;
  transport_->set_receive_handler(
      [this](util::BytesView chunk) { on_transport_data(chunk); });
  transport_->set_close_handler([this] { on_tunnel_lost(); });

  // The JOIN depends only on the declarations, so it is encoded once and
  // resent as is on every reconnect until a declaration changes.
  if (join_payload_.empty()) {
    const std::string json = config_json()["join"].dump();
    join_payload_.assign(json.begin(), json.end());
  }
  send_control(wire::MessageType::kJoin, 0, join_payload_);

  // Heartbeat so the server can tell a silent site from a dead one. A
  // reconnect must not leave the previous session's beat running alongside
  // this one.
  keepalive_.cancel();
  keepalive_.arm_after(keepalive_interval_);
}

void RouterInterface::on_tunnel_lost() {
  joined_ = false;
  RNL_LOG(kWarn, kLog) << site_name_ << ": tunnel to route server lost";
  if (leaving_ || !transport_factory_) return;
  if (!in_outage_) {
    in_outage_ = true;
    attempts_this_outage_ = 0;
    current_backoff_ = reconnect_policy_.initial_backoff;
  }
  schedule_reconnect();
}

void RouterInterface::schedule_reconnect() {
  if (reconnect_policy_.max_attempts > 0 &&
      attempts_this_outage_ >= reconnect_policy_.max_attempts) {
    ++stats_.reconnect_giveups;
    in_outage_ = false;
    RNL_LOG(kError, kLog) << site_name_ << ": giving up after "
                          << attempts_this_outage_ << " reconnect attempts";
    return;
  }
  // Jitter the delay so many sites losing one server don't redial in phase;
  // deterministic because each site draws from its own (seed, site-name)
  // derived stream — never the scheduler's shared RNG, whose draw order
  // would depend on thread interleaving under the sharded route server.
  util::Duration delay = current_backoff_;
  if (reconnect_policy_.jitter > 0) {
    auto span = static_cast<std::int64_t>(
        static_cast<double>(delay.nanos) * reconnect_policy_.jitter);
    if (span > 0) delay.nanos += jitter_rng_.range(-span, span);
  }
  if (delay.nanos < 0) delay.nanos = 0;
  backoff_hist_->record(static_cast<std::uint64_t>(delay.nanos));
  RNL_LOG(kInfo, kLog) << site_name_ << ": reconnect attempt "
                       << attempts_this_outage_ + 1 << " in "
                       << delay.nanos / 1'000'000 << " ms";
  auto grown = static_cast<std::int64_t>(
      static_cast<double>(current_backoff_.nanos) *
      reconnect_policy_.multiplier);
  current_backoff_.nanos =
      grown < reconnect_policy_.max_backoff.nanos
          ? grown
          : reconnect_policy_.max_backoff.nanos;

  reconnect_.cancel();  // one dial pending at a time
  reconnect_.arm_after(delay);
}

void RouterInterface::attempt_reconnect() {
  if (leaving_) return;
  ++attempts_this_outage_;
  auto transport = transport_factory_();
  if (!transport || !transport->is_open()) {
    ++stats_.reconnect_failures;
    schedule_reconnect();
    return;
  }
  start_session(std::move(transport));
}

void RouterInterface::leave() {
  leaving_ = true;
  reconnect_.cancel();  // drops any dial already scheduled
  in_outage_ = false;
  if (transport_ && transport_->is_open()) {
    send_control(wire::MessageType::kLeave, 0, {});
    // An orderly departure is not a lost tunnel: silence the close handler.
    transport_->set_close_handler(nullptr);
    transport_->close();
  }
  joined_ = false;
}

void RouterInterface::send_control(wire::MessageType type,
                                   wire::RouterId router,
                                   util::BytesView payload) {
  if (!transport_ || !transport_->is_open()) return;
  // Control never overtakes captured data: flush the open uplink batch
  // first so the transport sees the two classes in acceptance order.
  flush_uplink();
  transport_->send(session_.frame_control(type, router, payload, 0));
}

void RouterInterface::flush_uplink() {
  const std::size_t frames = session_.batch_frames();
  if (frames == 0) return;
  const std::uint64_t batch_trace = session_.batch_trace_id();
  const util::BytesView batch = session_.take_batch();
  if (transport_ && transport_->is_open()) {
    ++stats_.egress_flushes;
    stats_.frames_coalesced += frames - 1;
    egress_batch_hist_->record(frames);
    // The flush span (attributed to the batch's first traced frame) times
    // the transport hand-off for all `frames` coalesced frames.
    if (batch_trace != 0 && tracing()) {
      const std::uint64_t t0 = util::monotonic_ns();
      transport_->send(batch);
      trace_ring_->push({batch_trace, t0, util::monotonic_ns() - t0,
                         util::TraceStage::kUplinkFlush,
                         util::TraceInstant::kNone,
                         static_cast<std::uint32_t>(frames)});
    } else {
      transport_->send(batch);
    }
  }
}

void RouterInterface::send_data(wire::RouterId router_id, wire::PortId port_id,
                                util::BytesView frame,
                                std::uint64_t trace_id) {
  if (!transport_ || !transport_->is_open()) return;
  // Appended behind the frames captured earlier in this burst.
  const int grown = session_.append_data(
      router_id, port_id, frame, compression_enabled_,
      static_cast<std::uint8_t>(epoch_), trace_id);
  stats_.payload_allocs += static_cast<std::uint64_t>(grown);
  if (grown == 0) ++stats_.fast_path_frames;
  const std::size_t frames = session_.batch_frames();
  // Only the append that opens a batch arms the end-of-burst flush: one
  // scheduler event per batch, none for a batch the caps already flushed.
  // The scheduler runs same-timestamp events in insertion order, so the
  // zero-delay flush fires after every capture already queued at this
  // instant: the whole burst coalesces, and no simulated time passes
  // between capture and flush.
  if (frames >= kUplinkBatchFrames ||
      session_.batch_bytes() >= kUplinkBatchBytes) {
    flush_uplink();
  } else if (frames == 1) {
    uplink_flush_.arm_after(util::Duration{});
  }
}

void RouterInterface::on_transport_data(util::BytesView chunk) {
  const auto& messages = session_.feed(chunk);
  if (session_.failed()) {
    ++stats_.decode_errors;
    RNL_LOG(kError, kLog) << site_name_ << ": " << session_.error();
    transport_->close();
    return;
  }
  for (const auto& decoded : messages) handle_message(decoded);
}

void RouterInterface::handle_message(
    const wire::MessageDecoder::DecodedView& msg) {
  switch (msg.type) {
    case wire::MessageType::kJoinAck: {
      auto parsed = util::Json::parse(std::string_view(
          reinterpret_cast<const char*>(msg.payload.data()),
          msg.payload.size()));
      if (!parsed.ok()) {
        ++stats_.decode_errors;
        return;
      }
      auto ack = wire::JoinAck::from_json(*parsed);
      if (!ack.ok() || ack->routers.size() != routers_.size()) {
        ++stats_.decode_errors;
        return;
      }
      id_to_slot_.clear();
      for (std::size_t r = 0; r < routers_.size(); ++r) {
        routers_[r].assigned_id = ack->routers[r].router_id;
        const auto& port_ids = ack->routers[r].port_ids;
        Router& router = routers_[r];
        std::size_t expected = router.parent == npos
                                   ? router.ports.size()
                                   : router.slice_ports.size();
        if (port_ids.size() != expected) {
          ++stats_.decode_errors;
          continue;
        }
        for (std::size_t p = 0; p < port_ids.size(); ++p) {
          if (router.parent == npos) {
            router.ports[p].assigned_id = port_ids[p];
            id_to_slot_[{router.assigned_id, port_ids[p]}] = {r, p};
          } else {
            // Slice: traffic lands on the parent's NIC slot.
            id_to_slot_[{router.assigned_id, port_ids[p]}] = {
                router.parent, router.slice_ports[p]};
            routers_[router.parent].ports[router.slice_ports[p]].assigned_id =
                port_ids[p];
            slice_owner_[{router.parent, router.slice_ports[p]}] = r;
          }
        }
      }
      epoch_ = ack->epoch;
      joined_ = true;
      if (in_outage_) {
        ++stats_.reconnects;
        in_outage_ = false;
        attempts_this_outage_ = 0;
        RNL_LOG(kInfo, kLog) << site_name_ << ": reconnected (epoch "
                             << epoch_ << ")";
      }
      RNL_LOG(kInfo, kLog) << site_name_ << ": joined labs, "
                           << routers_.size() << " routers registered";
      return;
    }
    case wire::MessageType::kData: {
      // Epoch gate before the compression rings advance: a frame from
      // another session incarnation must neither reach a router port nor
      // desynchronize the current session's lockstep. A traced frame emits
      // a terminal instant so its trace ends in a verdict, not mid-air.
      if (msg.epoch != static_cast<std::uint8_t>(epoch_)) {
        ++stats_.stale_epoch_drops;
        if (msg.trace_id != 0 && tracing()) {
          trace_ring_->push({msg.trace_id, util::monotonic_ns(), 0,
                             util::TraceStage::kLifecycle,
                             util::TraceInstant::kStaleEpochDrop, msg.epoch});
        }
        return;
      }
      // Zero-copy: a view into the decoder buffer or, for a compressed
      // frame, into the decompressor ring slot it was inflated into.
      bool grew = false;
      const auto received = session_.receive_data(msg, grew);
      if (!received) {
        ++stats_.decode_errors;
        return;
      }
      if (grew) ++stats_.payload_allocs;
      const util::BytesView frame = *received;
      auto slot = id_to_slot_.find({msg.router_id, msg.port_id});
      if (slot == id_to_slot_.end()) {
        ++stats_.unknown_port_drops;
        return;
      }
      auto [router_index, port_slot] = slot->second;
      ++stats_.frames_down;
      stats_.bytes_down += frame.size();
      // Replay the complete L2 frame out of the NIC into the router port.
      // Stage latency is sampled 1-in-N (the shared stage/trace sampling
      // knob): at line rate the two clock reads cost as much as the replay
      // itself, and a sampled histogram answers the same p50/p99 question.
      // A traced frame always pays the clock reads — its replay span is the
      // terminal stage of a cross-process trace.
      const bool traced = msg.trace_id != 0 && tracing();
      if (traced || ((stats_.frames_down - 1) & kStageSampleMask) == 0) {
        const std::uint64_t replay_start = util::monotonic_ns();
        routers_[router_index].ports[port_slot].nic->transmit(frame);
        const std::uint64_t replay_ns =
            util::monotonic_ns() - replay_start;
        replay_hist_->record(replay_ns);
        if (traced) {
          trace_ring_->push({msg.trace_id, replay_start, replay_ns,
                             util::TraceStage::kReplay,
                             util::TraceInstant::kNone, msg.port_id});
        }
      } else {
        routers_[router_index].ports[port_slot].nic->transmit(frame);
      }
      return;
    }
    case wire::MessageType::kConsoleData: {
      for (auto& router : routers_) {
        if (router.assigned_id == msg.router_id &&
            (router.console || router.parent != npos)) {
          handle_console_input(router, msg.payload);
          return;
        }
      }
      ++stats_.unknown_port_drops;
      return;
    }
    case wire::MessageType::kError: {
      RNL_LOG(kWarn, kLog) << site_name_ << ": server error: "
                           << std::string(msg.payload.begin(),
                                          msg.payload.end());
      return;
    }
    default:
      return;  // kJoin/kKeepalive/kLeave are not expected server->RIS
  }
}

void RouterInterface::handle_console_input(Router& router,
                                           util::BytesView bytes) {
  stats_.console_bytes_down += bytes.size();
  devices::Device* device =
      router.parent == npos ? router.device : routers_[router.parent].device;
  std::string output;
  for (std::uint8_t b : bytes) {
    char c = static_cast<char>(b);
    if (c == '\r') continue;
    if (c == '\n') {
      output += device->exec(router.console_line_buffer);
      output += device->prompt() + " ";
      router.console_line_buffer.clear();
    } else {
      router.console_line_buffer.push_back(c);
    }
  }
  if (output.empty()) return;
  stats_.console_bytes_up += output.size();
  send_control(wire::MessageType::kConsoleData, router.assigned_id,
               util::BytesView(
                   reinterpret_cast<const std::uint8_t*>(output.data()),
                   output.size()));
}

void RouterInterface::on_nic_frame(std::size_t router_index,
                                   std::size_t port_slot,
                                   util::BytesView frame) {
  if (!joined_) return;
  const Router& router = routers_[router_index];
  const MappedPort& mapped = router.ports[port_slot];
  if (mapped.assigned_id == 0) return;  // not yet acked / not in any slice

  // Logical-router demultiplexing: if the port belongs to a slice, the
  // frame is attributed to the slice's router id (§4). A site that declared
  // no slices skips the lookup.
  wire::RouterId router_id = router.assigned_id;
  if (!slice_owner_.empty()) {
    auto slice = slice_owner_.find({router_index, port_slot});
    if (slice != slice_owner_.end()) {
      router_id = routers_[slice->second].assigned_id;
    }
  }

  ++stats_.frames_up;
  stats_.bytes_up += frame.size();
  // Head sampling: this is where a trace is born. The sampled id is stamped
  // into the tunnel header by send_data, so every downstream stage (uplink
  // flush, server decode/forward/egress, peer replay) shares it.
  const std::uint64_t trace_id =
      tracer_ != nullptr ? tracer_->head_sample() : 0;
  // Capture-stage latency sampled 1-in-N (shared knob), same rationale as
  // replay; a traced frame always gets the clock reads for its span.
  if (trace_id != 0 || ((stats_.frames_up - 1) & kStageSampleMask) == 0) {
    const std::uint64_t capture_start = util::monotonic_ns();
    send_data(router_id, mapped.assigned_id, frame, trace_id);
    const std::uint64_t capture_ns = util::monotonic_ns() - capture_start;
    capture_hist_->record(capture_ns);
    if (trace_id != 0 && tracing()) {
      trace_ring_->push({trace_id, capture_start, capture_ns,
                         util::TraceStage::kCapture, util::TraceInstant::kNone,
                         mapped.assigned_id});
    }
  } else {
    send_data(router_id, mapped.assigned_id, frame);
  }
}

}  // namespace rnl::ris
