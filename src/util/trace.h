#pragma once

// End-to-end frame tracing: causal, cross-component timelines for the
// RIS -> route server -> RIS forwarding path.
//
// The metrics registry answers "how slow is the p99"; this layer answers
// "why was *this* frame slow". Components push spans (begin + duration) and
// instant events (drops, evictions, epoch bumps) into lock-free rings keyed
// by a 64-bit trace id that travels inside the tunnel frame itself
// (wire::kFlagTraced + an 8-byte payload prefix), so one id stitches RIS
// capture, uplink flush, route-server decode/forward/egress, and peer RIS
// replay into a single timeline over both sim and TCP transports.
//
// Two ways a frame gets traced:
//   - Head sampling: the capture path starts a trace for 1-in-N frames
//     (kDefaultHeadSamplePeriod; sparser than the kDefaultStageSamplePeriod
//     stage clocks because traced frames cost more).
//   - Tail capture: the route server stamps a candidate span set for every
//     frame it times anyway and commits it only when the measured forward
//     latency exceeds a cached p99 estimate — slow frames self-select even
//     when head sampling missed them.
//
// Concurrency contract: each SpanRing slot is a seqlock over atomic words,
// so rings are safe for concurrent writers and a concurrent dump reader
// (the shard-per-core direction makes rings multi-producer; the --tsan gate
// covers this). A write is wait-free: claim a ticket, publish odd seq,
// store the payload words, publish even seq. Readers discard slots whose
// seq is odd or changed mid-read. A writer lapped by `capacity` concurrent
// writes can in principle publish a torn slot with a plausible seq; rings
// are sized (>= 1024 slots) so a full-lap overlap during one ~20ns write
// does not happen in practice, and a torn diagnostic event is an accepted
// failure mode — the protocol is race-free by construction either way.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/concurrency.h"
#include "util/json.h"

namespace rnl::util {

template <typename Concurrency>
class BasicHistogram;
using Histogram = BasicHistogram<StdConcurrency>;

/// One-in-N sampling period shared by the RIS capture/replay stage clocks
/// and the route server's stage clocks (README "knobs"). Power of two: all
/// users gate with `(counter & (period - 1)) == 0`.
constexpr std::uint32_t kDefaultStageSamplePeriod = 16;

/// Default head-sampling period for the tracer. Deliberately sparser than
/// the stage clocks: a head-sampled frame pays an 8-byte wire prefix plus
/// ~8 spans (two clock reads and a ring write each) across three
/// processes, so 1-in-64 was chosen to keep always-on tracing under a 3%
/// forwarding overhead; bench_routeserver_scaling's `trace_overhead`
/// measures what it actually costs (EXPERIMENTS E8).
constexpr std::uint32_t kDefaultHeadSamplePeriod = 64;

/// Where in the forwarding path a span or instant was recorded.
enum class TraceStage : std::uint8_t {
  kCapture = 0,       // RIS: NIC frame -> tunnel encode
  kUplinkFlush = 1,   // RIS: coalesced uplink buffer -> transport send
  kDecodeBatch = 2,   // server: one transport chunk -> decoded frame batch
  kForward = 3,       // server: decoded view -> egress enqueue (end to end)
  kMatrixLookup = 4,  // server: routing-matrix lookup slice of kForward
  kEgressEnqueue = 5, // server: encode + egress batch append slice of kForward
  kEgressFlush = 6,   // server: egress batch -> transport send
  kReplay = 7,        // RIS: decoded kData -> NIC inject
  kLifecycle = 8,     // instants: drops, evictions, epoch bumps, watermarks
};
[[nodiscard]] std::string_view to_string(TraceStage stage);

/// Detail code carried by TraceStage::kLifecycle instant events.
enum class TraceInstant : std::uint32_t {
  kNone = 0,
  kShedDrop = 1,        // kData dropped: destination site shedding
  kStaleEpochDrop = 2,  // kData dropped at the epoch gate
  kSpoofedPortDrop = 3, // kData dropped: source port not owned by sender
  kUnroutedDrop = 4,    // kData dropped: no matrix entry
  kEviction = 5,        // site evicted (hard cap / stall deadline)
  kRejoin = 6,          // retained site rebound under a new epoch
  kEpochBump = 7,       // JOIN assigned a fresh session epoch
  kWatermarkEnter = 8,  // egress queue crossed the high watermark
  kWatermarkExit = 9,   // egress queue drained below the low watermark
  kSlowFrame = 10,      // tail capture committed: forward latency > p99
};
[[nodiscard]] std::string_view to_string(TraceInstant instant);

/// Trace ids render as hex strings ("0x2a") everywhere user-facing: Json
/// stores numbers as double, which cannot hold all 64 bits losslessly.
[[nodiscard]] std::string hex_trace_id(std::uint64_t id);

/// One trace event. dur_ns == 0 with stage kLifecycle is an instant; any
/// other event is a complete span [ts_ns, ts_ns + dur_ns].
struct TraceEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t ts_ns = 0;   // util::monotonic_ns() at span begin
  std::uint64_t dur_ns = 0;  // 0 for instants
  TraceStage stage = TraceStage::kLifecycle;
  TraceInstant detail = TraceInstant::kNone;
  std::uint32_t arg = 0;  // stage-specific: port id, frame count, epoch...
};

namespace trace_detail {

/// stage(8) | detail(24) | arg(32), packed so the slot payload is all-atomic.
inline std::uint64_t pack_meta(TraceStage stage, TraceInstant detail,
                               std::uint32_t arg) {
  return static_cast<std::uint64_t>(stage) |
         (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(detail) & 0xFFFFFFu)
          << 8) |
         (static_cast<std::uint64_t>(arg) << 32);
}

inline void unpack_meta(std::uint64_t meta, TraceEvent& event) {
  event.stage = static_cast<TraceStage>(meta & 0xFFu);
  event.detail = static_cast<TraceInstant>((meta >> 8) & 0xFFFFFFu);
  event.arg = static_cast<std::uint32_t>(meta >> 32);
}

}  // namespace trace_detail

/// Fixed-capacity, lock-free ring of TraceEvents. Writers never block and
/// never allocate; old events are overwritten. See the file comment for the
/// seqlock protocol and its (accepted) full-lap caveat.
///
/// Parameterized over concurrency traits (util/concurrency.h): the shipped
/// SpanRing alias is the plain std::atomic instantiation, and the model
/// checker runs this exact template on modeled words (DESIGN.md §13).
template <typename Concurrency = StdConcurrency>
class BasicSpanRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;  // power of two

  explicit BasicSpanRing(std::size_t capacity = kDefaultCapacity)
      : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 2))),
        mask_(slots_.size() - 1) {}

  /// Wait-free, safe from any thread.
  void push(const TraceEvent& event) {
    // Relaxed ticket: tickets only need to be unique; the slot's seq word
    // carries the publication ordering.
    const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];
    slot.seq.store(2 * ticket + 1, std::memory_order_release);
    // Relaxed payload stores: ordered by the surrounding odd/even seq pair.
    slot.trace_id.store(event.trace_id, std::memory_order_relaxed);
    slot.ts_ns.store(event.ts_ns, std::memory_order_relaxed);    // see above
    slot.dur_ns.store(event.dur_ns, std::memory_order_relaxed);  // see above
    slot.meta.store(trace_detail::pack_meta(event.stage, event.detail,
                                            event.arg),
                    std::memory_order_relaxed);  // see above
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
  }

  /// Snapshot of retained events, oldest ticket first. Torn slots (a write
  /// in flight during the read) are skipped, not blocked on.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    struct Ticketed {
      std::uint64_t ticket;
      TraceEvent event;
    };
    std::vector<Ticketed> collected;
    collected.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      // Seqlock read: the payload is only valid if the slot was published
      // (even seq) both before and after we read the words.
      const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) continue;  // empty or in flight
      TraceEvent event;
      // Relaxed payload loads: validated by the fence + seq re-check below.
      event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);    // ditto
      event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);  // ditto
      trace_detail::unpack_meta(slot.meta.load(std::memory_order_relaxed),
                                event);  // relaxed: validated by re-check
      Concurrency::thread_fence(std::memory_order_acquire);
      // Relaxed re-check: the fence above orders it after the payload reads.
      if (slot.seq.load(std::memory_order_relaxed) != before) continue;
      collected.push_back({(before - 2) / 2, event});
    }
    std::sort(collected.begin(), collected.end(),
              [](const Ticketed& a, const Ticketed& b) {
                return a.ticket < b.ticket;
              });
    std::vector<TraceEvent> out;
    out.reserve(collected.size());
    for (const Ticketed& t : collected) out.push_back(t.event);
    return out;
  }

  /// Events ever pushed (including overwritten ones).
  [[nodiscard]] std::uint64_t total() const {
    // Relaxed: monitoring read; see the ticket comment in push().
    return head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  template <typename U>
  using Atomic = typename Concurrency::template Atomic<U>;

  struct Slot {
    /// 2*ticket+1 while the write is in flight, 2*ticket+2 once published.
    Atomic<std::uint64_t> seq{0};
    Atomic<std::uint64_t> trace_id{0};
    Atomic<std::uint64_t> ts_ns{0};
    Atomic<std::uint64_t> dur_ns{0};
    /// Packed by trace_detail::pack_meta.
    Atomic<std::uint64_t> meta{0};
  };

  Atomic<std::uint64_t> head_{0};  // next ticket
  std::vector<Slot> slots_;        // size is a power of two
  std::size_t mask_;
};

/// The shipped tracer ring: plain std::atomic words.
using SpanRing = BasicSpanRing<StdConcurrency>;

/// Process-wide trace sink: owns one SpanRing per (component, site) pair,
/// allocates trace ids, decides head sampling, and gates tail capture on a
/// cached p99 estimate. Export walks all rings and merges by timestamp.
///
/// Hot-path cost when tracing is disabled: one relaxed atomic load
/// (enabled()). When enabled but a frame is not sampled: one relaxed
/// fetch_add. Ring registration and export take a mutex (control plane).
/// The tail-aggregation set, shared between the Tracer and its registrants
/// so that TailRegistration handles stay safe after the Tracer dies.
struct TracerTailSet {
  std::mutex mutex;
  std::vector<const Histogram*> hists;
};

class Tracer {
 public:
  Tracer();

  /// Get-or-create the ring for one emitting site of one component
  /// (Perfetto: component -> pid, site -> tid). The pointer stays valid for
  /// the Tracer's lifetime. Safe from any thread.
  SpanRing& ring(const std::string& component, const std::string& site);

  // ---- enable / sampling policy ----

  // Relaxed: enabled_ is an on/off flag; spans racing a toggle may be
  // kept or dropped either way, both acceptable outcomes.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);  // relaxed: see above
  }
  /// Head-sample 1 frame in `period` (rounded up to a power of two;
  /// 1 = every frame, 0 = head sampling off). Default
  /// kDefaultHeadSamplePeriod.
  void set_head_sample_period(std::uint32_t period);
  [[nodiscard]] std::uint32_t head_sample_period() const {
    // Relaxed: sampling-policy read; a stale period misroutes no data.
    return head_period_.load(std::memory_order_relaxed);
  }

  /// Returns a fresh trace id if this frame is head-sampled, 0 otherwise.
  /// Wait-free; safe from any thread.
  [[nodiscard]] std::uint64_t head_sample();

  /// Fresh nonzero trace id (tail captures and tests mint ids directly).
  [[nodiscard]] std::uint64_t next_trace_id() {
    // Relaxed: ids only need uniqueness, not ordering.
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- tail capture (called from any shard's route-server thread) ----

  /// True when `forward_ns` exceeds the current p99 estimate of the
  /// process-wide forward-latency distribution: the caller's `hist` merged
  /// with every histogram registered via add_tail_histogram. The estimate
  /// is cached and recomputed only every kTailRefreshPeriod calls (global,
  /// across shards); the gate stays closed until the merged distribution
  /// has kTailMinCount samples, so early frames do not all look "slow".
  /// With per-shard forward histograms, gating on any single shard's p99
  /// would make one fast shard mark every other shard's frames slow — the
  /// merge keeps the threshold a property of the whole server.
  [[nodiscard]] bool tail_exceeds(const Histogram& hist,
                                  std::uint64_t forward_ns);

  /// Register/deregister a histogram with the tail aggregation set.
  /// RouteServer::set_tracer registers each shard's forward histogram; the
  /// histogram must outlive its registration (remove on destruction).
  void add_tail_histogram(const Histogram* hist);
  void remove_tail_histogram(const Histogram* hist);

  /// RAII form of the registration above for registrants whose destruction
  /// order relative to the Tracer is not fixed (a RouteServer and its
  /// tracer are often members of the same fixture, in either order). The
  /// handle holds a weak reference to the tail set: destroying it after
  /// the Tracer is gone is a no-op instead of a lock on a dead mutex.
  class TailRegistration {
   public:
    TailRegistration() = default;
    TailRegistration(const TailRegistration&) = delete;
    TailRegistration& operator=(const TailRegistration&) = delete;
    TailRegistration(TailRegistration&& other) noexcept
        : set_(std::move(other.set_)), hist_(other.hist_) {
      other.hist_ = nullptr;
      other.set_.reset();
    }
    TailRegistration& operator=(TailRegistration&& other) noexcept {
      if (this != &other) {
        reset();
        set_ = std::move(other.set_);
        hist_ = other.hist_;
        other.hist_ = nullptr;
        other.set_.reset();
      }
      return *this;
    }
    ~TailRegistration() { reset(); }
    /// Deregister now (no-op if empty or the tracer already died).
    void reset();

   private:
    friend class Tracer;
    std::weak_ptr<TracerTailSet> set_;
    const Histogram* hist_ = nullptr;
  };

  /// Register `hist` and return the RAII handle that deregisters it.
  [[nodiscard]] TailRegistration register_tail_histogram(
      const Histogram* hist);

  static constexpr std::uint64_t kTailRefreshPeriod = 1024;
  static constexpr std::uint64_t kTailMinCount = 256;

  /// The cached p99 estimate the gate currently compares against (0 while
  /// the merged distribution is still below kTailMinCount samples).
  [[nodiscard]] std::uint64_t tail_threshold_ns() const {
    // Relaxed: a gate threshold; off-by-a-refresh reads are fine.
    return tail_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// One committed slow frame, for `trace.slow`.
  struct SlowFrame {
    std::uint64_t trace_id = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t forward_ns = 0;
    std::uint64_t threshold_ns = 0;  // the p99 estimate it exceeded
    std::uint32_t src_port = 0;
    std::uint32_t dst_port = 0;
  };

  /// Record a committed tail capture (bounded ledger, newest kept).
  void note_slow(const SlowFrame& slow);
  [[nodiscard]] std::vector<SlowFrame> slow_frames() const;
  [[nodiscard]] std::uint64_t slow_total() const {
    return slow_total_.load(std::memory_order_relaxed);  // monitoring read
  }
  static constexpr std::size_t kSlowLedgerCapacity = 64;

  // ---- export (control plane; takes the registry mutex) ----

  /// {"events": [{trace_id, ts_ns, dur_ns, stage, detail, arg, component,
  /// site}...], "dropped": n} — events merged across rings, ts order.
  /// `max_events` bounds the dump (0 = no bound).
  [[nodiscard]] Json to_json(std::size_t max_events = 0) const;

  /// Chrome trace-event JSON (the "traceEvents" array format) loadable in
  /// ui.perfetto.dev: one pid per component, one tid per site ring, "X"
  /// complete events for spans, "i" instants, "M" metadata naming both.
  /// Timestamps are microseconds with ns precision kept in the fraction.
  [[nodiscard]] Json to_perfetto_json() const;
  [[nodiscard]] std::string to_perfetto() const;

 private:
  struct RingEntry {
    std::string component;
    std::string site;
    std::unique_ptr<SpanRing> ring;
  };
  struct TaggedEvent {
    TraceEvent event;
    std::size_t entry = 0;  // index into rings_
  };
  [[nodiscard]] std::vector<TaggedEvent> merged_events() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> head_period_{kDefaultHeadSamplePeriod};
  std::atomic<std::uint64_t> head_counter_{0};
  std::atomic<std::uint64_t> next_id_{1};

  void refresh_tail_threshold(const Histogram* caller_hist);

  // Tail gate: shared by every shard's route-server thread, so the cached
  // threshold and the call counter are relaxed atomics. The registered-
  // histogram list is mutex-guarded (mutated on the control plane only;
  // the refresh path copies it under the lock once per kTailRefreshPeriod).
  std::atomic<std::uint64_t> tail_threshold_ns_{0};
  std::atomic<std::uint64_t> tail_calls_{0};
  std::shared_ptr<TracerTailSet> tail_set_ = std::make_shared<TracerTailSet>();

  std::atomic<std::uint64_t> slow_total_{0};
  mutable std::mutex mutex_;  // guards rings_ vector and slow ledger
  std::vector<RingEntry> rings_;
  std::vector<SlowFrame> slow_;  // ring, newest overwrites oldest
  std::size_t slow_next_ = 0;
};

}  // namespace rnl::util
