#include "util/trace.h"

#include <algorithm>
#include <bit>

#include "util/metrics.h"

namespace rnl::util {

std::string_view to_string(TraceStage stage) {
  switch (stage) {
    case TraceStage::kCapture: return "capture";
    case TraceStage::kUplinkFlush: return "uplink_flush";
    case TraceStage::kDecodeBatch: return "decode_batch";
    case TraceStage::kForward: return "forward";
    case TraceStage::kMatrixLookup: return "matrix_lookup";
    case TraceStage::kEgressEnqueue: return "egress_enqueue";
    case TraceStage::kEgressFlush: return "egress_flush";
    case TraceStage::kReplay: return "replay";
    case TraceStage::kLifecycle: return "lifecycle";
  }
  return "unknown";
}

std::string_view to_string(TraceInstant instant) {
  switch (instant) {
    case TraceInstant::kNone: return "none";
    case TraceInstant::kShedDrop: return "shed_drop";
    case TraceInstant::kStaleEpochDrop: return "stale_epoch_drop";
    case TraceInstant::kSpoofedPortDrop: return "spoofed_port_drop";
    case TraceInstant::kUnroutedDrop: return "unrouted_drop";
    case TraceInstant::kEviction: return "eviction";
    case TraceInstant::kRejoin: return "rejoin";
    case TraceInstant::kEpochBump: return "epoch_bump";
    case TraceInstant::kWatermarkEnter: return "watermark_enter";
    case TraceInstant::kWatermarkExit: return "watermark_exit";
    case TraceInstant::kSlowFrame: return "slow_frame";
  }
  return "unknown";
}

// BasicSpanRing's push/snapshot live in trace.h: they are templates over the
// concurrency traits so the model checker can instantiate them.

Tracer::Tracer() = default;

SpanRing& Tracer::ring(const std::string& component, const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const RingEntry& entry : rings_) {
    if (entry.component == component && entry.site == site) {
      return *entry.ring;
    }
  }
  rings_.push_back({component, site, std::make_unique<SpanRing>()});
  return *rings_.back().ring;
}

void Tracer::set_head_sample_period(std::uint32_t period) {
  // bit_ceil of anything past 2^31 is not representable (UB); clamp — a
  // period that large means "practically never" either way.
  constexpr std::uint32_t kMaxPeriod = 1u << 31;
  head_period_.store(
      period == 0 ? 0
                  : (period > kMaxPeriod ? kMaxPeriod : std::bit_ceil(period)),
      std::memory_order_relaxed);  // relaxed: sampling policy, no data
}

std::uint64_t Tracer::head_sample() {
  if (!enabled()) return 0;
  // Relaxed pair: the period is policy and the counter only needs
  // uniqueness; neither publishes data.
  const std::uint32_t period = head_period_.load(std::memory_order_relaxed);
  if (period == 0) return 0;
  // Relaxed: see the pair comment above.
  const std::uint64_t n = head_counter_.fetch_add(1, std::memory_order_relaxed);
  if ((n & (period - 1)) != 0) return 0;
  return next_trace_id();
}

Tracer::TailRegistration Tracer::register_tail_histogram(
    const Histogram* hist) {
  TailRegistration registration;
  if (hist == nullptr) return registration;
  {
    std::lock_guard<std::mutex> lock(tail_set_->mutex);
    auto& hists = tail_set_->hists;
    if (std::find(hists.begin(), hists.end(), hist) == hists.end()) {
      hists.push_back(hist);
    }
  }
  registration.set_ = tail_set_;
  registration.hist_ = hist;
  return registration;
}

void Tracer::TailRegistration::reset() {
  // lock() pins the set alive for the erase even if the Tracer is being
  // destroyed on another thread; an expired set means the Tracer (and its
  // interest in our histogram) is already gone.
  if (const Histogram* hist = hist_) {
    if (auto set = set_.lock()) {
      std::lock_guard<std::mutex> lock(set->mutex);
      set->hists.erase(std::remove(set->hists.begin(), set->hists.end(), hist),
                       set->hists.end());
    }
  }
  hist_ = nullptr;
  set_.reset();
}

void Tracer::refresh_tail_threshold(const Histogram* caller_hist) {
  // Merge the caller's histogram with every registered shard histogram
  // (deduplicated by address — the caller is normally registered too) and
  // cache the merged p99. Bucket counts are read with relaxed loads while
  // other shards keep recording; the estimate is a sampling of a moving
  // distribution either way, so a torn count merely shifts it by a frame.
  std::vector<const Histogram*> hists;
  {
    std::lock_guard<std::mutex> lock(tail_set_->mutex);
    hists = tail_set_->hists;
  }
  bool caller_registered = false;
  for (const Histogram* hist : hists) {
    if (hist == caller_hist) caller_registered = true;
  }
  if (!caller_registered && caller_hist != nullptr) {
    hists.push_back(caller_hist);
  }

  Histogram::Buckets merged{};
  std::uint64_t count = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  for (const Histogram* hist : hists) {
    const std::uint64_t n = hist->count();
    if (n == 0) continue;
    count += n;
    if (hist->min() < min) min = hist->min();
    if (hist->max() > max) max = hist->max();
    const Histogram::Buckets buckets = hist->buckets();
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      merged[b] += buckets[b];
    }
  }
  tail_threshold_ns_.store(
      count >= kTailMinCount
          ? Histogram::percentile_from(merged, count, min, max, 99)
          : 0,
      std::memory_order_relaxed);  // relaxed: estimate, staleness is fine
}

bool Tracer::tail_exceeds(const Histogram& hist, std::uint64_t forward_ns) {
  if (!enabled()) return false;
  // Refresh the cached p99 estimate periodically instead of merging bucket
  // arrays on every frame. The counter is global: with S shards the merge
  // still happens about every kTailRefreshPeriod frames process-wide.
  if ((tail_calls_.fetch_add(1, std::memory_order_relaxed) %  // counter only
       kTailRefreshPeriod) == 0) {
    refresh_tail_threshold(&hist);
  }
  const std::uint64_t threshold =
      // Relaxed: a stale threshold gates a few frames differently, that's ok.
      tail_threshold_ns_.load(std::memory_order_relaxed);
  return threshold != 0 && forward_ns > threshold;
}

void Tracer::note_slow(const SlowFrame& slow) {
  // Relaxed: monitoring counter only.
  slow_total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (slow_.size() < kSlowLedgerCapacity) {
    slow_.push_back(slow);
  } else {
    slow_[slow_next_] = slow;
    slow_next_ = (slow_next_ + 1) % kSlowLedgerCapacity;
  }
}

std::vector<Tracer::SlowFrame> Tracer::slow_frames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SlowFrame> out;
  out.reserve(slow_.size());
  // Oldest first: the ring's overwrite cursor marks the oldest entry.
  for (std::size_t i = 0; i < slow_.size(); ++i) {
    out.push_back(slow_[(slow_next_ + i) % slow_.size()]);
  }
  return out;
}

std::vector<Tracer::TaggedEvent> Tracer::merged_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TaggedEvent> merged;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    for (const TraceEvent& event : rings_[i].ring->snapshot()) {
      merged.push_back({event, i});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TaggedEvent& a, const TaggedEvent& b) {
              return a.event.ts_ns < b.event.ts_ns;
            });
  return merged;
}

std::string hex_trace_id(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  bool significant = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = static_cast<unsigned>((id >> shift) & 0xF);
    if (nibble != 0) significant = true;
    if (significant || shift == 0) out += kDigits[nibble];
  }
  return out;
}

Json Tracer::to_json(std::size_t max_events) const {
  std::vector<TaggedEvent> merged = merged_events();
  std::size_t dropped = 0;
  if (max_events != 0 && merged.size() > max_events) {
    // Keep the newest events — the interesting end of a ring dump.
    dropped = merged.size() - max_events;
    merged.erase(merged.begin(),
                 merged.begin() + static_cast<std::ptrdiff_t>(dropped));
  }
  Json events = Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const TaggedEvent& tagged : merged) {
      const TraceEvent& event = tagged.event;
      Json e = Json::object();
      e.set("trace_id", hex_trace_id(event.trace_id));
      e.set("ts_ns", event.ts_ns);
      e.set("dur_ns", event.dur_ns);
      e.set("stage", to_string(event.stage));
      if (event.stage == TraceStage::kLifecycle) {
        e.set("detail", to_string(event.detail));
      }
      e.set("arg", event.arg);
      e.set("component", rings_[tagged.entry].component);
      e.set("site", rings_[tagged.entry].site);
      events.push_back(std::move(e));
    }
  }
  Json out = Json::object();
  out.set("events", std::move(events));
  out.set("dropped", static_cast<std::uint64_t>(dropped));
  out.set("slow_total", slow_total());
  return out;
}

Json Tracer::to_perfetto_json() const {
  std::vector<TaggedEvent> merged = merged_events();
  Json events = Json::array();
  std::lock_guard<std::mutex> lock(mutex_);
  // pid per component, tid per (component, site) ring, both 1-based.
  std::vector<std::string> components;
  std::vector<int> entry_pid(rings_.size(), 0);
  std::vector<int> entry_tid(rings_.size(), 0);
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    auto found = std::find(components.begin(), components.end(),
                           rings_[i].component);
    if (found == components.end()) {
      components.push_back(rings_[i].component);
      found = components.end() - 1;
    }
    entry_pid[i] = static_cast<int>(found - components.begin()) + 1;
    entry_tid[i] = static_cast<int>(i) + 1;

    Json process = Json::object();
    process.set("name", "process_name");
    process.set("ph", "M");
    process.set("pid", entry_pid[i]);
    Json pargs = Json::object();
    pargs.set("name", rings_[i].component);
    process.set("args", std::move(pargs));
    events.push_back(std::move(process));

    Json thread = Json::object();
    thread.set("name", "thread_name");
    thread.set("ph", "M");
    thread.set("pid", entry_pid[i]);
    thread.set("tid", entry_tid[i]);
    Json targs = Json::object();
    targs.set("name", rings_[i].site);
    thread.set("args", std::move(targs));
    events.push_back(std::move(thread));
  }
  for (const TaggedEvent& tagged : merged) {
    const TraceEvent& event = tagged.event;
    Json e = Json::object();
    if (event.stage == TraceStage::kLifecycle) {
      e.set("name", std::string(to_string(event.detail)));
      e.set("ph", "i");
      e.set("s", "g");  // global scope: lifecycle marks span the timeline
    } else {
      e.set("name", std::string(to_string(event.stage)));
      e.set("ph", "X");
      e.set("dur", static_cast<double>(event.dur_ns) / 1000.0);
    }
    e.set("cat", "rnl");
    e.set("ts", static_cast<double>(event.ts_ns) / 1000.0);
    e.set("pid", entry_pid[tagged.entry]);
    e.set("tid", entry_tid[tagged.entry]);
    Json args = Json::object();
    args.set("trace_id", hex_trace_id(event.trace_id));
    args.set("arg", event.arg);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ns");
  return out;
}

std::string Tracer::to_perfetto() const { return to_perfetto_json().dump(); }

}  // namespace rnl::util
