#include "routeserver/routeserver.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace rnl::routeserver {

namespace {
constexpr const char* kLog = "routeserver";
}  // namespace

RouteServer::RouteServer(simnet::Scheduler& scheduler,
                         util::MetricsRegistry* metrics)
    : scheduler_(scheduler),
      liveness_sweep_(scheduler, [this] { sweep_liveness(); }),
      metrics_(metrics != nullptr ? metrics
                                  : &util::MetricsRegistry::global()) {
  forward_hist_ = &metrics_->histogram("routeserver.forward_ns");
  inject_hist_ = &metrics_->histogram("routeserver.inject_ns");
  egress_batch_hist_ = &metrics_->histogram("routeserver.egress_batch_frames");
  decode_batch_hist_ = &metrics_->histogram("routeserver.decode_batch_frames");
  netem_delay_hist_ = &metrics_->histogram("wire.netem_applied_delay_ns");
  compression_ratio_hist_ =
      &metrics_->histogram("wire.compression_ratio_x100");

  // Every stats_ field is published as a probe: the dump reads the same
  // memory the per-frame path writes, so `stats` and `metrics.dump` agree
  // by construction.
  auto expose = [this](const char* name, const std::uint64_t* field) {
    metrics_->probe_counter(name, [field] { return *field; });
  };
  expose("routeserver.frames_routed", &stats_.frames_routed);
  expose("routeserver.bytes_routed", &stats_.bytes_routed);
  expose("routeserver.unrouted_drops", &stats_.unrouted_drops);
  expose("routeserver.injected_frames", &stats_.injected_frames);
  expose("routeserver.decode_errors", &stats_.decode_errors);
  expose("routeserver.sites_joined", &stats_.sites_joined);
  expose("routeserver.sites_lost", &stats_.sites_lost);
  expose("routeserver.sites_rejoined", &stats_.sites_rejoined);
  expose("routeserver.stale_epoch_drops", &stats_.stale_epoch_drops);
  expose("routeserver.spoofed_port_drops", &stats_.spoofed_port_drops);
  expose("routeserver.matrix_entries_restored",
         &stats_.matrix_entries_restored);
  expose("routeserver.shed_frames_data", &stats_.shed_data_frames);
  expose("routeserver.shed_frames_control_deferred",
         &stats_.control_frames_deferred);
  expose("routeserver.shed_entries", &stats_.shed_entries);
  expose("routeserver.hard_cap_evictions", &stats_.hard_cap_evictions);
  expose("routeserver.stalled_evictions", &stats_.stalled_evictions);
  expose("routeserver.sites_forgotten", &stats_.sites_forgotten);
  expose("routeserver.cross_shard_frames_out", &stats_.cross_shard_frames_out);
  expose("routeserver.cross_shard_frames_in", &stats_.cross_shard_frames_in);
  expose("routeserver.fast_path_frames", &stats_.dataplane.fast_path_frames);
  expose("routeserver.slow_path_frames", &stats_.dataplane.slow_path_frames);
  expose("routeserver.payload_allocs", &stats_.dataplane.payload_allocs);
  expose("routeserver.bytes_copied", &stats_.dataplane.bytes_copied);
  expose("routeserver.egress_flushes", &stats_.dataplane.egress_flushes);
  expose("routeserver.frames_coalesced", &stats_.dataplane.frames_coalesced);
  metrics_->probe_gauge("routeserver.sites", [this] {
    return static_cast<std::int64_t>(sites_.size());
  });
  metrics_->probe_gauge("routeserver.ports", [this] {
    return static_cast<std::int64_t>(port_count_);
  });
  metrics_->probe_gauge("routeserver.wires", [this] {
    return static_cast<std::int64_t>(wires_);
  });
  metrics_->probe_gauge("routeserver.active_captures", [this] {
    return static_cast<std::int64_t>(captures_.size());
  });
  metrics_->probe_gauge("routeserver.sites_shedding", [this] {
    return static_cast<std::int64_t>(sites_shedding());
  });
  metrics_->probe_gauge("routeserver.overloaded",
                        [this] { return overloaded() ? 1 : 0; });
  // Memory-bound probes (the fleet soak's RSS proxy): parked identities,
  // their retained ports, and the dense port-table footprint.
  metrics_->probe_gauge("routeserver.retained_sites", [this] {
    return static_cast<std::int64_t>(retained_site_count());
  });
  metrics_->probe_gauge("routeserver.retained_ports", [this] {
    return static_cast<std::int64_t>(retained_port_count());
  });
  metrics_->probe_gauge("routeserver.port_table_slots", [this] {
    return static_cast<std::int64_t>(ports_.size());
  });
}

RouteServer::~RouteServer() {
  // The probes read members of this object; drop them before it goes away.
  metrics_->remove_prefix("routeserver.");
  // tail_registration_ (the tracer's pointer to our forward histogram)
  // releases itself during member destruction, tracer alive or not.
  // Detach handlers before member destruction so a closing transport cannot
  // re-enter a half-destroyed server.
  for (auto& site : sites_) {
    if (site->transport) {
      site->transport->set_receive_handler(nullptr);
      site->transport->set_close_handler(nullptr);
    }
  }
}

void RouteServer::accept(std::unique_ptr<transport::Transport> transport) {
  purge_dead_sites();
  auto site = std::make_unique<Site>(compression_ratio_hist_);
  Site* raw = site.get();
  site->last_heard = scheduler_.now();
  site->transport = std::move(transport);
  site->transport->set_receive_handler(
      [this, raw](util::BytesView chunk) { on_site_data(raw, chunk); });
  site->transport->set_close_handler(
      [this, raw] { remove_site(raw, /*orderly=*/false); });
  site->transport->set_egress_watermarks(egress_high_, egress_low_);
  site->transport->set_drain_handler([this, raw] { on_site_drained(raw); });
  site->index = sites_.size();
  sites_.push_back(std::move(site));
}

void RouteServer::accept(std::unique_ptr<transport::Transport> transport,
                         util::BytesView initial, wire::JoinRequest join) {
  accept(std::move(transport));
  Site* site = sites_.back().get();
  // The replay below decodes the very frame the sniff parsed as the site's
  // first kJoin: the frames before it are not kJoin, and the bytes are
  // replayed unchanged.
  site->sniffed_join = std::move(join);
  // Replay what the dispatch layer buffered while sniffing the JOIN. The
  // site may die inside (decode error teardown) — on_site_data handles it.
  if (!initial.empty()) on_site_data(site, initial);
}

void RouteServer::bind_owner_thread() {
  owner_thread_ = std::this_thread::get_id();
}

void RouteServer::set_id_allocation(std::uint32_t shard_index,
                                    std::uint32_t stride) {
  // Only before any assignment: re-striping live ids would orphan them.
  RNL_DCHECK(routers_.empty() && next_port_id_ == 1 && next_router_id_ == 1);
  id_stride_ = stride == 0 ? 1 : stride;
  shard_index_ = shard_index;
  next_router_id_ = shard_index + 1;
  next_port_id_ = shard_index + 1;
}

void RouteServer::set_remote_wire_handlers(RemoteDeliverHandler deliver,
                                           RemoteDisconnectHandler disconnect) {
  remote_deliver_ = std::move(deliver);
  remote_disconnect_ = std::move(disconnect);
}

void RouteServer::set_egress_watermarks(std::size_t high, std::size_t low) {
  egress_high_ = high;
  egress_low_ = low > high ? high : low;
  for (auto& site : sites_) {
    if (site->dead) continue;
    site->transport->set_egress_watermarks(egress_high_, egress_low_);
    if (egress_high_ == 0) site->shedding = false;
  }
  // Disabled watermarks end every live site's shedding episode.
  if (egress_high_ == 0) sites_shedding_ = 0;
}

void RouteServer::set_tracer(util::Tracer* tracer,
                             const std::string& ring_label) {
  tail_registration_.reset();
  tracer_ = tracer;
  trace_ring_ =
      tracer != nullptr ? &tracer->ring("routeserver", ring_label) : nullptr;
  // Register our forward histogram with the tail gate's aggregation set:
  // shards sharing a tracer gate slow-frame capture on the merged p99. The
  // RAII handle survives the tracer being destroyed before this server.
  if (tracer_ != nullptr) {
    tail_registration_ = tracer_->register_tail_histogram(forward_hist_);
  }
}

void RouteServer::trace_instant(util::TraceInstant detail,
                                std::uint64_t trace_id, std::uint32_t arg) {
  if (!tracing()) return;
  trace_ring_->push({trace_id, util::monotonic_ns(), 0,
                     util::TraceStage::kLifecycle, detail, arg});
}

void RouteServer::flush_site(Site* site) {
  const std::size_t frames = site->session.batch_frames();
  if (frames == 0) return;
  const std::uint64_t batch_trace = site->session.batch_trace_id();
  // Take the batch before the transport sees its bytes: from here on they
  // are counted (once) by transport->queued_bytes(), not batch_bytes().
  // send() may reenter teardown (a TCP write error closes the site), so
  // this order keeps a mid-flight batch from being double-counted or
  // leaking ghost bytes into egress_queued().
  const util::BytesView batch = site->session.take_batch();
  if (site->dead || !site->transport->is_open()) return;  // dies with it
  ++stats_.dataplane.egress_flushes;
  stats_.dataplane.frames_coalesced += frames - 1;
  egress_batch_hist_->record(frames);
  // The flush span is attributed to the batch's first traced frame; its
  // duration is the transport hand-off for all `frames` coalesced frames.
  if (batch_trace != 0 && tracing()) {
    const std::uint64_t t0 = util::monotonic_ns();
    site->transport->send(batch);
    trace_ring_->push({batch_trace, t0, util::monotonic_ns() - t0,
                       util::TraceStage::kEgressFlush,
                       util::TraceInstant::kNone,
                       static_cast<std::uint32_t>(frames)});
  } else {
    site->transport->send(batch);
  }
}

void RouteServer::flush_pending() {
  RNL_DCHECK(on_owner_thread());
  // flush_site may tear sites down reentrantly (which leaves flush_list_
  // alone but marks them dead) — iterate a detached copy. Site objects
  // outlive this loop: purge_dead_sites only runs from accept/destruction.
  // A teardown inside flush_site can also *repopulate* flush_list_ (a
  // close handler forwarding a final burst reopens batches), so one swap
  // pass is not enough: drain until the list stays empty, or an end-of-
  // burst flush could strand frames appended mid-flush. Each pass clears
  // in_flush_list before flushing, so re-appends always land in the fresh
  // list and the loop terminates once no new batches open. The detached
  // list borrows flush_spare_'s buffer and hands it back, so the two lists
  // trade buffers and keep their capacity; a reentrant call finds the spare
  // already lent out and starts from an empty one.
  std::vector<Site*> open = std::move(flush_spare_);
  while (!flush_list_.empty()) {
    open.clear();
    open.swap(flush_list_);
    for (Site* site : open) {
      site->in_flush_list = false;
      flush_site(site);
    }
  }
  open.clear();
  flush_spare_ = std::move(open);
}

RouteServer::EgressVerdict RouteServer::egress_verdict(Site* site) {
  if (site->dead || egress_high_ == 0) return EgressVerdict::kOk;
  const std::size_t queued = egress_queued(site);
  if (egress_hard_cap_ != 0 && queued > egress_hard_cap_) {
    return EgressVerdict::kEvictHardCap;
  }
  if (!site->shedding) {
    if (queued >= egress_high_) {
      site->shedding = true;
      if (site->joined) ++sites_shedding_;
      site->shed_since = scheduler_.now();
      ++stats_.shed_entries;
      trace_instant(util::TraceInstant::kWatermarkEnter, 0,
                    static_cast<std::uint32_t>(queued));
      RNL_LOG(kWarn, kLog) << "site '" << site->name << "' egress queue at "
                           << queued << " bytes; shedding data toward it";
    }
    return site->shedding ? EgressVerdict::kShedding : EgressVerdict::kOk;
  }
  if (stall_deadline_.nanos > 0 &&
      scheduler_.now() - site->shed_since > stall_deadline_) {
    return EgressVerdict::kEvictStalled;
  }
  return EgressVerdict::kShedding;
}

void RouteServer::evict_for_overload(Site* site, EgressVerdict verdict) {
  if (site->dead) return;
  if (verdict == EgressVerdict::kEvictHardCap) {
    ++stats_.hard_cap_evictions;
  } else {
    ++stats_.stalled_evictions;
  }
  RNL_LOG(kWarn, kLog) << "site '" << site->name << "' evicted for overload ("
                       << (verdict == EgressVerdict::kEvictHardCap
                               ? "egress hard cap"
                               : "stall deadline")
                       << ", " << egress_queued(site) << " bytes queued)";
  trace_instant(util::TraceInstant::kEviction, 0,
                static_cast<std::uint32_t>(egress_queued(site)));
  // Deferred control dies with the session: the peer rejoins with a clean
  // epoch and fresh state, so replaying stale acks would only confuse it.
  site->pending_control.clear();
  site->pending_control_bytes = 0;
  site->transport->close();  // close handler runs the un-orderly remove_site
}

void RouteServer::on_site_drained(Site* site) {
  if (site->dead) return;
  // Priority flush: everything control that was deferred ships before any
  // new data frame can be queued toward this site.
  while (!site->pending_control.empty() && site->transport->writable()) {
    util::Bytes frame = std::move(site->pending_control.front());
    site->pending_control.pop_front();
    site->pending_control_bytes -= frame.size();
    site->transport->send(frame);
  }
  if (site->shedding && egress_queued(site) <= egress_low_) {
    site->shedding = false;
    if (site->joined) --sites_shedding_;
    trace_instant(util::TraceInstant::kWatermarkExit, 0,
                  static_cast<std::uint32_t>(egress_queued(site)));
    RNL_LOG(kInfo, kLog) << "site '" << site->name
                         << "' egress drained; back to normal forwarding";
  }
}

void RouteServer::set_liveness_timeout(util::Duration timeout) {
  liveness_timeout_ = timeout;
  liveness_sweep_.cancel();  // drops any previous sweep
  if (timeout.nanos > 0) liveness_sweep_.arm_after(liveness_timeout_ / 4);
}

void RouteServer::sweep_liveness() {
  // Collect first, act after: close() fires the close handler (which runs
  // remove_site) synchronously, and a handler further down the chain may
  // reenter the server while this loop is mid-iteration over sites_.
  // Site objects themselves stay alive until purge_dead_sites(), so the
  // collected pointers remain valid.
  std::vector<Site*> timed_out;
  std::vector<std::pair<Site*, EgressVerdict>> overloaded_sites;
  for (auto& site : sites_) {
    if (site->dead || !site->joined) continue;
    if (scheduler_.now() - site->last_heard > liveness_timeout_) {
      RNL_LOG(kWarn, kLog) << "site '" << site->name
                           << "' silent beyond the liveness timeout";
      timed_out.push_back(site.get());
      continue;
    }
    // The stall deadline rides the same sweep: a site that went quiet on
    // the *egress* side (still sending keepalives, so never timed out
    // above) is evicted here even if no new frame probes its verdict.
    EgressVerdict verdict = egress_verdict(site.get());
    if (verdict == EgressVerdict::kEvictHardCap ||
        verdict == EgressVerdict::kEvictStalled) {
      overloaded_sites.emplace_back(site.get(), verdict);
    }
  }
  for (Site* site : timed_out) {
    if (!site->dead) site->transport->close();  // marks it dead
  }
  for (auto& [site, verdict] : overloaded_sites) {
    evict_for_overload(site, verdict);
  }
  // Retention rides the same sweep: parked identities that never rejoined
  // must not hold inventory (and wires) forever under fleet churn.
  forget_expired_retained(scheduler_.now());
  liveness_sweep_.arm_after(liveness_timeout_ / 4);
}

std::size_t RouteServer::retained_site_count() const {
  std::size_t count = 0;
  for (const auto& [name, entry] : site_registry_) {
    if (!entry.routers.empty()) ++count;
  }
  return count;
}

std::size_t RouteServer::retained_port_count() const {
  std::size_t count = 0;
  for (const auto& [name, entry] : site_registry_) {
    for (const auto& router : entry.routers) count += router.ports.size();
  }
  return count;
}

void RouteServer::restore_site_epoch(const std::string& site,
                                     std::uint32_t next_epoch) {
  RetainedSite& registry = site_registry_[site];
  if (next_epoch > registry.next_epoch) registry.next_epoch = next_epoch;
}

void RouteServer::forget_expired_retained(util::SimTime now) {
  if (retention_deadline_.nanos <= 0) return;
  for (auto& [name, entry] : site_registry_) {
    if (entry.routers.empty()) continue;
    if (now - entry.parked_at <= retention_deadline_) continue;
    // Tear down the wires that were being held for the rejoin; this is the
    // same disconnect path a rejoin shape mismatch takes, so cross-shard
    // peers are notified through the remote-disconnect handler.
    std::size_t ports = 0;
    for (const auto& router : entry.routers) {
      for (const auto& port : router.ports) {
        disconnect_port(port.id);
        ++ports;
      }
    }
    entry.routers.clear();
    entry.routers.shrink_to_fit();  // actually release the parked memory
    ++stats_.sites_forgotten;
    RNL_LOG(kInfo, kLog) << "site '" << name << "' never rejoined; retained "
                         << ports << " ports forgotten (epoch counter kept)";
  }
}

void RouteServer::on_site_data(Site* site, util::BytesView chunk) {
  RNL_DCHECK(on_owner_thread());
  if (site->dead) {
    // Bytes still in flight from a dead incarnation (the WAN kept carrying
    // them after the server gave up on the session). Count the data frames
    // as stale-epoch drops — they can never reach a user port — and feed
    // nothing into the routing path.
    const auto& late = site->session.feed(chunk);
    if (!site->session.failed()) {
      for (const auto& decoded : late) {
        if (decoded.type == wire::MessageType::kData) {
          ++stats_.stale_epoch_drops;
        }
      }
    }
    return;
  }
  site->last_heard = scheduler_.now();
  // Two clock reads per readable event (not per frame), only while tracing:
  // the decode-batch span covers one feed — parse + lazy compaction — for
  // every frame the chunk completed.
  const bool trace_decode = tracing();
  const std::uint64_t decode_t0 = trace_decode ? util::monotonic_ns() : 0;
  const auto& messages = site->session.feed(chunk);
  if (trace_decode && !messages.empty()) {
    // Attribute the batch span to its first traced frame (a batch mixes
    // traced and untraced frames; untraced-only batches emit nothing).
    for (const auto& decoded : messages) {
      if (decoded.trace_id == 0) continue;
      trace_ring_->push({decoded.trace_id, decode_t0,
                         util::monotonic_ns() - decode_t0,
                         util::TraceStage::kDecodeBatch,
                         util::TraceInstant::kNone,
                         static_cast<std::uint32_t>(messages.size())});
      break;
    }
  }
  if (site->session.failed()) {
    ++stats_.decode_errors;
    RNL_LOG(kError, kLog) << "site '" << site->name
                          << "': " << site->session.error();
    site->transport->close();  // close handler marks the site dead
    return;
  }
  // Batch decode: one feed drained every complete frame the chunk
  // completed, amortizing buffer compaction across the whole batch; a
  // trailing partial frame stays buffered for the next readable event.
  if (!messages.empty()) decode_batch_hist_->record(messages.size());
  // The views (and their payloads) stay valid for this whole loop: nothing
  // below feeds this site's decoder again. Stale-epoch and shed frames drop
  // out mid-batch inside handle_data/deliver_to_port without disturbing the
  // frames around them (or compressor lockstep — see the gates there).
  for (const auto& decoded : messages) {
    handle_message(site, decoded);
    if (site->dead) break;  // kLeave or error mid-batch
  }
  // End-of-burst egress flush: every destination batch opened by this
  // readable event goes to its transport in one write.
  flush_pending();
  // NOTE: no purge here — this frame was entered from the site's own
  // transport, which must not be destroyed while it is on the stack. Dead
  // sites are reaped at the next accept() (or with the server).
}

void RouteServer::handle_message(
    Site* site, const wire::MessageDecoder::DecodedView& decoded) {
  switch (decoded.type) {
    case wire::MessageType::kJoin:
      handle_join(site, decoded);
      return;
    case wire::MessageType::kData:
      handle_data(site, decoded);
      return;
    case wire::MessageType::kConsoleData:
      if (console_output_) {
        console_output_(decoded.router_id, decoded.payload);
      }
      return;
    case wire::MessageType::kKeepalive:
      return;
    case wire::MessageType::kLeave:
      remove_site(site, /*orderly=*/true);
      return;
    default:
      ++stats_.decode_errors;
      return;
  }
}

void RouteServer::send_control(Site* site, wire::MessageType type,
                               wire::RouterId router, util::BytesView payload) {
  if (site->dead || !site->transport->is_open()) return;
  // Control shares the site's send buffer with the egress batch and must
  // not overtake data already accepted toward this site: flush the open
  // batch first (one write), then frame the control message.
  flush_site(site);
  const util::BytesView encoded = site->session.frame_control(
      type, router, payload, static_cast<std::uint8_t>(site->epoch));
  // Control is never shed. While the site's egress is backpressured (or
  // older control is already waiting — FIFO within the class), it defers
  // into pending_control for the priority flush on drain. Deferred bytes
  // count toward the hard cap, so even console spam at a wedged site is
  // bounded: the site gets evicted, not the server's memory.
  const bool defer = site->shedding || !site->transport->writable() ||
                     !site->pending_control.empty();
  if (defer) {
    ++stats_.control_frames_deferred;
    site->pending_control.emplace_back(encoded.begin(), encoded.end());
    site->pending_control_bytes += encoded.size();
    EgressVerdict verdict = egress_verdict(site);
    if (verdict == EgressVerdict::kEvictHardCap) {
      evict_for_overload(site, verdict);
    }
    return;
  }
  site->transport->send(encoded);
}

void RouteServer::handle_join(Site* site,
                              const wire::MessageDecoder::DecodedView& msg) {
  // A dispatched connection's first kJoin was parsed by the dispatch sniff,
  // and only a JOIN that parsed gets dispatched; every other JOIN is
  // parsed here.
  util::Result<wire::JoinRequest> request = util::Error{};
  if (site->sniffed_join.has_value()) {
    request = std::move(*site->sniffed_join);
    site->sniffed_join.reset();
  } else {
    auto parsed = util::Json::parse(
        std::string_view(reinterpret_cast<const char*>(msg.payload.data()),
                         msg.payload.size()));
    if (!parsed.ok()) {
      ++stats_.decode_errors;
      return;
    }
    request = wire::JoinRequest::from_json(*parsed);
  }
  if (!request.ok()) {
    ++stats_.decode_errors;
    RNL_LOG(kWarn, kLog) << "rejecting malformed JOIN: " << request.error();
    std::string text = "malformed join: " + request.error();
    send_control(site, wire::MessageType::kError, 0,
                 util::BytesView(reinterpret_cast<const std::uint8_t*>(
                                     text.data()),
                                 text.size()));
    return;
  }

  if (site->joined) {
    ++stats_.decode_errors;
    RNL_LOG(kWarn, kLog) << "site '" << site->name
                         << "' sent a duplicate JOIN on a live session";
    return;
  }

  site->name = request->site_name;

  // A JOIN under the name of a session the server still believes is live
  // supersedes it: the RIS process restarted faster than the liveness sweep
  // could notice. Kill the zombie first — its close handler runs the
  // un-orderly teardown, which parks its inventory for the rebind below
  // and clears registry.live.
  RetainedSite& registry = site_registry_[request->site_name];
  if (registry.live != nullptr) {
    RNL_LOG(kWarn, kLog) << "site '" << site->name
                         << "' rejoined over a live session; superseding "
                            "the old incarnation";
    registry.live->transport->close();
  }

  site->epoch = registry.next_epoch++;
  // next_epoch is monotonic per site name and never reset — that is the
  // whole basis of the stale-frame gate. A wrap would take 2^32 rejoins.
  RNL_DCHECK(registry.next_epoch == site->epoch + 1);
  // Journal hook: a crash-safe deployment records every epoch advance so a
  // restarted server restores the counters (restore_site_epoch) and late
  // frames from pre-restart incarnations still gate correctly.
  if (epoch_observer_) epoch_observer_(request->site_name, registry.next_epoch);

  wire::JoinAck ack;
  ack.epoch = site->epoch;
  trace_instant(util::TraceInstant::kEpochBump, 0, site->epoch);
  bool rebound =
      !registry.routers.empty() && rebind_retained(site, *request, registry, ack);
  if (rebound) {
    ++stats_.sites_rejoined;
    trace_instant(util::TraceInstant::kRejoin, 0, site->epoch);
  } else {
    for (const auto& declared : request->routers) {
      InventoryRouter router;
      // Striped allocation (set_id_allocation): stride 1 on an unsharded
      // server reduces to the classic sequential ids.
      router.id = next_router_id_;
      next_router_id_ += id_stride_;
      router.site = request->site_name;
      router.name = declared.name;
      router.description = declared.description;
      router.image_file = declared.image_file;
      router.has_console = !declared.console_com.empty();
      wire::JoinAck::RouterIds ids;
      ids.router_id = router.id;
      for (const auto& declared_port : declared.ports) {
        InventoryPort port;
        port.id = next_port_id_;
        next_port_id_ += id_stride_;
        port.name = declared_port.name;
        port.description = declared_port.description;
        port.rect_x = declared_port.rect_x;
        port.rect_y = declared_port.rect_y;
        port.rect_w = declared_port.rect_w;
        port.rect_h = declared_port.rect_h;
        router.ports.push_back(port);
        ids.port_ids.push_back(port.id);
        ensure_port_tables(next_port_id_);
        RNL_DCHECK(port.id < ports_.size());
        RNL_DCHECK(ports_[port.id].owner.site == nullptr);
        ports_[port.id].owner = PortRecord{site, router.id};
        ++port_count_;
      }
      routers_[router.id] = LiveRouter{std::move(router), site};
      site->router_ids.push_back(ids.router_id);
      ack.routers.push_back(std::move(ids));
    }
  }
  site->joined = true;
  if (site->shedding) ++sites_shedding_;  // backpressured before its JOIN
  registry.live = site;
  ++stats_.sites_joined;
  // Per-site egress depth, visible in metrics.dump / the web UI while the
  // session lives. remove_site() drops the probe before the Site is freed.
  metrics_->probe_gauge(
      "routeserver.site." + site->name + ".egress_queued_bytes",
      [this, site] { return static_cast<std::int64_t>(egress_queued(site)); });

  std::string ack_json = ack.to_json().dump();
  send_control(site, wire::MessageType::kJoinAck, 0,
               util::BytesView(
                   reinterpret_cast<const std::uint8_t*>(ack_json.data()),
                   ack_json.size()));

  RNL_LOG(kInfo, kLog) << "site '" << site->name << "' joined with "
                       << request->routers.size() << " routers (epoch "
                       << site->epoch << (rebound ? ", ids rebound)" : ")");
  if (inventory_changed_) inventory_changed_();
}

bool RouteServer::rebind_retained(Site* site, const wire::JoinRequest& request,
                                  RetainedSite& registry,
                                  wire::JoinAck& ack) {
  bool shape_matches = registry.routers.size() == request.routers.size();
  if (shape_matches) {
    for (std::size_t i = 0; i < registry.routers.size(); ++i) {
      if (registry.routers[i].name != request.routers[i].name ||
          registry.routers[i].ports.size() !=
              request.routers[i].ports.size()) {
        shape_matches = false;
        break;
      }
    }
  }
  if (!shape_matches) {
    // The site came back with a different inventory: the retained ids (and
    // any wires to them) describe hardware that no longer exists. Discard
    // them so the caller assigns fresh ids.
    for (const auto& retained : registry.routers) {
      for (const auto& port : retained.ports) disconnect_port(port.id);
    }
    registry.routers.clear();
    RNL_LOG(kWarn, kLog)
        << "site '" << site->name
        << "' rejoined with a changed inventory; assigning fresh ids";
    return false;
  }

  for (auto& retained : registry.routers) {
    retained.online = true;
    wire::JoinAck::RouterIds ids;
    ids.router_id = retained.id;
    for (const auto& port : retained.ports) {
      ids.port_ids.push_back(port.id);
      // Retained ids were allocated by a previous incarnation, so the dense
      // tables already cover them and the slot was cleared at its departure.
      RNL_DCHECK(port.id < ports_.size());
      RNL_DCHECK(ports_[port.id].owner.site == nullptr);
      ports_[port.id].owner = PortRecord{site, retained.id};
      ++port_count_;
      if (ports_[port.id].wire.peer != 0) ++stats_.matrix_entries_restored;
    }
    site->router_ids.push_back(retained.id);
    routers_[retained.id] = LiveRouter{std::move(retained), site};
    ack.routers.push_back(std::move(ids));
  }
  registry.routers.clear();
  return true;
}

void RouteServer::handle_data(Site* site,
                              const wire::MessageDecoder::DecodedView& msg) {
  // Epoch gate before anything touches the compression rings: a frame from
  // another incarnation of this site must neither reach a user port nor
  // advance the lockstep state of the current session. A traced frame still
  // emits a terminal instant so its trace does not just dangle mid-path.
  if (msg.epoch != static_cast<std::uint8_t>(site->epoch)) {
    ++stats_.stale_epoch_drops;
    trace_instant(util::TraceInstant::kStaleEpochDrop, msg.trace_id,
                  msg.epoch);
    return;
  }
  // Ownership gate: port ids are server-assigned, so a site may only source
  // frames from its own ports. Anything else — a pre-JOIN data frame (which
  // would pass the epoch gate at epoch 0) or a port id copied from another
  // site's assignment — is spoofed and must not reach the matrix or advance
  // this session's decompressor ring.
  const PortSlot* source = owned_port(msg.port_id);
  if (source == nullptr || source->owner.site != site) {
    ++stats_.spoofed_port_drops;
    trace_instant(util::TraceInstant::kSpoofedPortDrop, msg.trace_id,
                  msg.port_id);
    return;
  }
  // Zero-copy: a view into the decoder buffer or, for a compressed frame,
  // into the decompressor ring slot it was inflated into. The frame leaves
  // the fast path only if a ring buffer had to grow.
  bool slow = false;
  const auto received = site->session.receive_data(msg, slow);
  if (!received) {
    ++stats_.decode_errors;
    return;
  }
  if (slow) ++stats_.dataplane.payload_allocs;
  const util::BytesView frame = *received;

  if (!captures_.empty()) {
    note_capture(msg.port_id, /*to_port=*/false, frame);
    slow = true;
  }

  // A traced frame pays one extra clock read so the matrix lookup gets its
  // own span; lookup_start is 0 (and no sub-spans are emitted) otherwise.
  const bool traced = msg.trace_id != 0 && tracing();
  const std::uint64_t lookup_start = traced ? util::monotonic_ns() : 0;
  const WireEnd& wire_end = source->wire;
  if (wire_end.peer == 0) {
    ++stats_.unrouted_drops;
    trace_instant(util::TraceInstant::kUnroutedDrop, msg.trace_id,
                  msg.port_id);
    return;
  }
  ++stats_.frames_routed;
  stats_.bytes_routed += frame.size();
  // Forward latency: host time from the routing decision to the encoded
  // bytes reaching the transport (for an impaired wire: the WAN hand-off).
  // Recorded once per routed frame, so the histogram's count always equals
  // frames_routed. Budget: two clock reads + one histogram add per frame,
  // no allocation — the fast path stays allocation-free.
  const std::uint64_t forward_start = util::monotonic_ns();
  if (wire_end.netem != nullptr) {
    wire_end.netem->send(frame);  // its sink forwards after the WAN delay
  } else {
    forward(wire_end, frame, slow, msg.trace_id);
  }
  const std::uint64_t forward_ns = util::monotonic_ns() - forward_start;
  forward_hist_->record(forward_ns);
  if (traced) {
    // Sub-stage spans share the clock reads bracketing them, so
    // matrix_lookup + egress_enqueue sums to the forward span exactly.
    trace_ring_->push({msg.trace_id, lookup_start,
                       forward_start - lookup_start,
                       util::TraceStage::kMatrixLookup,
                       util::TraceInstant::kNone, msg.port_id});
    trace_ring_->push({msg.trace_id, forward_start, forward_ns,
                       util::TraceStage::kEgressEnqueue,
                       util::TraceInstant::kNone, wire_end.peer});
    trace_ring_->push({msg.trace_id, lookup_start,
                       (forward_start - lookup_start) + forward_ns,
                       util::TraceStage::kForward, util::TraceInstant::kNone,
                       msg.port_id});
  } else if (tracing() && tracer_->tail_exceeds(*forward_hist_, forward_ns)) {
    // Tail capture: the frame was not head-sampled, but the latency we
    // measured anyway landed above the cached p99 estimate — commit the
    // candidate span under a fresh id and ledger it for `trace.slow`.
    const std::uint64_t slow_id = tracer_->next_trace_id();
    trace_ring_->push({slow_id, forward_start, forward_ns,
                       util::TraceStage::kForward, util::TraceInstant::kNone,
                       msg.port_id});
    trace_ring_->push({slow_id, forward_start + forward_ns, 0,
                       util::TraceStage::kLifecycle,
                       util::TraceInstant::kSlowFrame, msg.port_id});
    tracer_->note_slow({slow_id, forward_start, forward_ns,
                        tracer_->tail_threshold_ns(), msg.port_id,
                        wire_end.peer});
  }
}

void RouteServer::forward(const WireEnd& end, util::BytesView frame, bool slow,
                          std::uint64_t trace_id) {
  if (end.remote) {
    // Cross-shard wire: hand the frame to the owning shard's ring. The
    // peer port id is already the destination; the receiving shard's drain
    // loop finishes the delivery via deliver_remote.
    ++stats_.cross_shard_frames_out;
    if (remote_deliver_) remote_deliver_(end.peer, frame, trace_id);
  } else {
    deliver_to_port(end.peer, frame, slow, trace_id);
  }
}

void RouteServer::deliver_remote(wire::PortId port, util::BytesView frame,
                                 std::uint64_t trace_id, bool copy_allocated) {
  RNL_DCHECK(on_owner_thread());
  ++stats_.cross_shard_frames_in;
  // The ring copy went into a recycled buffer; it is a slow-path frame only
  // when that copy had to allocate. The drain loop batches flushes
  // (flush_egress once per burst), matching the decode loop's cadence.
  stats_.dataplane.bytes_copied += frame.size();
  if (copy_allocated) ++stats_.dataplane.payload_allocs;
  deliver_to_port(port, frame, /*slow=*/copy_allocated, trace_id);
}

void RouteServer::deliver_to_port(wire::PortId port, util::BytesView frame,
                                  bool slow, std::uint64_t trace_id) {
  RNL_DCHECK(on_owner_thread());
  const PortSlot* slot = owned_port(port);
  if (slot == nullptr) return;  // site vanished mid-flight
  Site* site = slot->owner.site;
  if (site->dead || !site->transport->is_open()) return;

  // Overload gate, before the frame touches capture or the compressor: a
  // shed frame is never seen by the destination, so it must neither appear
  // in a capture of the destination port nor advance the compressor ring
  // (the peer's decompressor will never see it — lockstep would break).
  EgressVerdict verdict = egress_verdict(site);
  if (verdict == EgressVerdict::kEvictHardCap ||
      verdict == EgressVerdict::kEvictStalled) {
    evict_for_overload(site, verdict);
    return;
  }
  if (verdict == EgressVerdict::kShedding) {
    ++stats_.shed_data_frames;
    trace_instant(util::TraceInstant::kShedDrop, trace_id, port);
    return;
  }

  if (!captures_.empty()) {
    note_capture(port, /*to_port=*/true, frame);
    slow = true;
  }

  // Appended behind the frames already accumulated this burst; a codec or
  // send-buffer growth takes the frame off the fast path.
  const int grown = site->session.append_data(
      slot->owner.router, port, frame, compression_enabled_,
      static_cast<std::uint8_t>(site->epoch), trace_id);
  if (grown != 0) {
    stats_.dataplane.payload_allocs += static_cast<std::uint64_t>(grown);
    slow = true;
  }
  stats_.dataplane.bytes_copied += frame.size();
  // Flush on the frame/byte caps — and the moment the batch pushes the
  // site's egress over the high watermark, so the transport sees the bytes
  // now and backpressure (shedding, hard cap, drain callbacks) engages
  // per-frame instead of a whole batch late. The frame itself is always
  // appended whole first: batching never splits a frame. A batch left open
  // waits in flush_list_ for the end-of-burst flush.
  if (site->session.batch_frames() >= kEgressBatchFrames ||
      site->session.batch_bytes() >= kEgressBatchBytes ||
      (egress_high_ != 0 && egress_queued(site) >= egress_high_)) {
    flush_site(site);
  } else if (!site->in_flush_list) {
    flush_list_.push_back(site);
    site->in_flush_list = true;
  }

  if (slow) {
    ++stats_.dataplane.slow_path_frames;
  } else {
    ++stats_.dataplane.fast_path_frames;
  }
}

void RouteServer::remove_site(Site* site, bool orderly) {
  // Teardown is shard-local: transport close/error handlers fire on the
  // owning shard's thread (the dispatch layer guarantees a site's transport
  // lives with its shard), so flush_list_/in_flush_list stay single-
  // threaded even in the sharded server. Cross-shard peers learn about the
  // loss only through posted commands, never by calling in here.
  RNL_DCHECK(on_owner_thread());
  if (site->dead) return;
  site->dead = true;
  if (site->joined && site->shedding) --sites_shedding_;
  dead_sites_.push_back(site);
  if (site->joined && !site->name.empty()) {
    // The per-site probe reads this Site object; drop it before the site
    // can be freed. (A rejoin re-registers under the same name.)
    metrics_->remove_prefix("routeserver.site." + site->name + ".");
  }
  site->pending_control.clear();
  site->pending_control_bytes = 0;
  // An open egress batch dies with the session: taking it zeroes the
  // accounting, so the per-site gauge (and any egress_queued read during
  // teardown) never reports bytes for frames that can no longer be sent.
  // The site may still sit in flush_list_; flush_site finds no batch.
  site->session.take_batch();

  // Remove the site's routers from inventory ("those specialized equipment
  // defined by users could come and go at any time", §2.3). Both exit paths
  // run the identical port-table/capture teardown; they differ only in what
  // survives: an orderly kLeave tears the wires down with the site, while an
  // un-orderly loss (eviction, transport error) keeps the wires and parks
  // the inventory for a rejoin under the same identity. The Site object
  // itself is freed at the next safe point, so no name may still point at
  // it by then.
  RetainedSite* entry = site->joined && !site->name.empty()
                            ? &site_registry_[site->name]
                            : nullptr;
  if (entry != nullptr && entry->live == site) entry->live = nullptr;
  RetainedSite* registry = orderly ? nullptr : entry;
  if (registry != nullptr) {
    registry->routers.clear();
    registry->parked_at = scheduler_.now();  // retention deadline base
  }
  for (wire::RouterId router_id : site->router_ids) {
    auto router = routers_.find(router_id);
    if (router == routers_.end()) continue;
    InventoryRouter& inventory = router->second.inventory;
    for (const auto& port : inventory.ports) {
      if (orderly) disconnect_port(port.id);
      if (PortSlot* slot = owned_port(port.id)) {
        RNL_DCHECK(slot->owner.site == site);
        RNL_DCHECK(port_count_ > 0);
        slot->owner = PortRecord{};
        --port_count_;
      }
      captures_.erase(port.id);
    }
    if (registry != nullptr) {
      inventory.online = false;
      registry->routers.push_back(std::move(inventory));
    }
    routers_.erase(router);
  }
  ++stats_.sites_lost;
  if (orderly) {
    RNL_LOG(kInfo, kLog) << "site '" << site->name << "' left the labs";
  } else {
    RNL_LOG(kWarn, kLog) << "site '" << site->name
                         << "' lost; identity retained for rejoin";
  }
  if (inventory_changed_) inventory_changed_();
}

void RouteServer::purge_dead_sites() {
  for (Site* dead : dead_sites_) {
    if (dead->transport) {
      dead->transport->set_receive_handler(nullptr);
      dead->transport->set_close_handler(nullptr);
    }
    // Swap-remove: nothing depends on the order of sites_.
    const std::size_t index = dead->index;
    std::swap(sites_[index], sites_.back());
    sites_[index]->index = index;
    sites_.pop_back();  // frees `dead`
  }
  dead_sites_.clear();
}

// ---------------------------------------------------------------------------
// Inventory
// ---------------------------------------------------------------------------

std::vector<InventoryRouter> RouteServer::inventory() const {
  std::vector<InventoryRouter> out;
  out.reserve(routers_.size());
  for (const auto& [id, router] : routers_) out.push_back(router.inventory);
  return out;
}

std::optional<InventoryRouter> RouteServer::find_router(
    wire::RouterId id) const {
  auto it = routers_.find(id);
  if (it == routers_.end()) return std::nullopt;
  return it->second.inventory;
}

bool RouteServer::port_exists(wire::PortId id) const {
  return id < ports_.size() && ports_[id].owner.site != nullptr;
}

void RouteServer::ensure_port_tables(wire::PortId limit) {
  // size_t arithmetic: limit + 1 in uint32 would wrap to 0 for UINT32_MAX
  // and destroy the table.
  const std::size_t needed = static_cast<std::size_t>(limit) + 1;
  if (needed > ports_.size()) ports_.resize(needed);
}

// ---------------------------------------------------------------------------
// Routing matrix
// ---------------------------------------------------------------------------

util::Status RouteServer::connect_end(wire::PortId local, wire::PortId peer,
                                      wire::NetemProfile wan) {
  if (local == peer) {
    return util::Error{"connect_ports: port cannot loop to itself"};
  }
  PortSlot* slot = owned_port(local);
  if (slot == nullptr || peer == 0) {
    return util::Error{"connect_ports: unknown port id"};
  }
  if (slot->wire.peer != 0) {
    return util::Error{
        "connect_ports: port already wired (deployed labs must be mutually "
        "exclusive)"};
  }
  WireEnd& end = slot->wire;
  end.peer = peer;
  // The id stripe (set_id_allocation) names the peer's shard, once here so
  // the forward path never divides.
  end.remote = (peer - 1) % id_stride_ != shard_index_;
  if (wan.delay.nanos != 0 || wan.jitter.nanos != 0 ||
      wan.loss_probability != 0) {
    // Clearing the end destroys the netem and the frames still in it, so
    // the sink always finds its own end in the table.
    end.netem = std::make_unique<wire::Netem>(
        scheduler_, wan, [this, local](util::Bytes frame) {
          forward(ports_[local].wire, frame, /*slow=*/true, 0);
          // The WAN hand-off is a scheduler event of its own, outside any
          // decode burst — flush so the frame leaves now.
          flush_pending();
        });
    end.netem->set_applied_delay_histogram(netem_delay_hist_);
  }
  if (local < peer) ++wires_;
  return util::Status::Ok();
}

void RouteServer::clear_end(wire::PortId local) {
  if (local >= ports_.size() || ports_[local].wire.peer == 0) return;
  if (local < ports_[local].wire.peer) {
    RNL_DCHECK(wires_ > 0);
    --wires_;
  }
  ports_[local].wire = WireEnd{};
}

util::Status RouteServer::connect_ports(wire::PortId a, wire::PortId b,
                                        wire::NetemProfile wan) {
  util::Status status = connect_end(a, b, wan);
  if (!status.ok()) return status;
  status = connect_end(b, a, wan);
  if (!status.ok()) {
    clear_end(a);
    return status;
  }
  // Wires are symmetric by construction; the forwarding path relies on it.
  RNL_DCHECK(ports_[a].wire.peer == b && ports_[b].wire.peer == a);
  return util::Status::Ok();
}

void RouteServer::disconnect_port(wire::PortId port) {
  if (port >= ports_.size() || ports_[port].wire.peer == 0) return;
  const wire::PortId peer = ports_[port].wire.peer;
  const bool remote = ports_[port].wire.remote;
  clear_end(port);
  if (remote) {
    // The peer's end is another shard's: the sharded layer posts its clear
    // there — never a synchronous cross-shard call from the data path.
    if (remote_disconnect_) remote_disconnect_(port, peer);
    return;
  }
  RNL_DCHECK(peer < ports_.size() && ports_[peer].wire.peer == port);
  clear_end(peer);
}

std::optional<wire::PortId> RouteServer::connected_to(
    wire::PortId port) const {
  if (port >= ports_.size() || ports_[port].wire.peer == 0) {
    return std::nullopt;
  }
  return ports_[port].wire.peer;
}

std::size_t RouteServer::wire_count() const { return wires_; }

// ---------------------------------------------------------------------------
// Capture & generation
// ---------------------------------------------------------------------------

void RouteServer::start_capture(wire::PortId port) {
  // Only inventoried ports may be captured: growing the dense tables to an
  // arbitrary caller-supplied id would let one API call allocate gigabytes.
  if (port_exists(port)) captures_.try_emplace(port);
}

std::vector<CapturedFrame> RouteServer::stop_capture(wire::PortId port) {
  auto capture = captures_.find(port);
  if (capture == captures_.end()) return {};
  std::vector<CapturedFrame> out = std::move(capture->second);
  captures_.erase(capture);
  return out;
}

std::size_t RouteServer::capture_size(wire::PortId port) const {
  auto capture = captures_.find(port);
  return capture == captures_.end() ? 0 : capture->second.size();
}

void RouteServer::note_capture(wire::PortId port, bool to_port,
                               util::BytesView frame) {
  auto capture = captures_.find(port);
  if (capture == captures_.end()) return;
  capture->second.push_back(CapturedFrame{
      port, to_port, util::Bytes(frame.begin(), frame.end()),
      scheduler_.now()});
}

util::Status RouteServer::inject_frame(wire::PortId port,
                                       util::BytesView frame) {
  if (!port_exists(port)) {
    return util::Error{"inject_frame: unknown port id"};
  }
  ++stats_.injected_frames;
  // API-injected frames never went through the zero-copy decode path, so
  // they must not count toward the fast-path ledger — nor toward the
  // forward-latency histogram, whose total tracks frames_routed.
  const std::uint64_t forward_start = util::monotonic_ns();
  deliver_to_port(port, frame, /*slow=*/true);
  // API calls are their own burst: the frame must not sit in an open batch
  // waiting for tunnel traffic that may never come.
  flush_pending();
  const std::uint64_t forward_ns = util::monotonic_ns() - forward_start;
  inject_hist_->record(forward_ns);
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Console relay
// ---------------------------------------------------------------------------

util::Status RouteServer::console_send(wire::RouterId router,
                                       util::BytesView bytes) {
  auto it = routers_.find(router);
  if (it == routers_.end()) {
    return util::Error{"console_send: unknown router id"};
  }
  send_control(it->second.site, wire::MessageType::kConsoleData, router, bytes);
  return util::Status::Ok();
}

}  // namespace rnl::routeserver
