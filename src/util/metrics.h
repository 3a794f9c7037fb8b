#pragma once

// Process-wide metrics: named counters, gauges, and fixed-bucket log2
// latency histograms.
//
// Cost model (the data plane records per frame, so this is a contract):
//   - Counter/Gauge/Histogram writes are a handful of arithmetic ops on a
//     pre-resolved pointer — no locks, no allocation, no name lookup.
//   - Name lookup (get-or-create) happens once, at component construction.
//   - Readers (metrics.dump, the webui /metrics page, Prometheus scrape)
//     walk the registry maps; they run on the control plane.
//
// Concurrency contract — sharded writers, relaxed-atomic instruments:
// every shard (scheduler + route server slice + RIS sites) runs on one
// thread and owns its own MetricsRegistry, so an instrument still has one
// hot-path writer (Testbed and ShardedRouteServer wire this up). The words
// themselves are relaxed atomics, because the shard-per-core server reads
// instruments across threads — the Tracer's tail gate aggregates every
// shard's forward histogram (trace.h), and the control plane merges
// per-shard registry snapshots (merge_snapshots). A relaxed fetch_add makes
// the cross-thread reads defined, but it is still an atomic read-modify-
// write: a locked instruction on x86 (lock xadd) and an exclusive-monitor
// loop or LSE atomic on ARM, several times the cost of a plain store. The
// instruments keep it because not every one provably has a single writer
// (the sim-stream counters are shared by every stream in a registry); a
// counter with exactly one writer by construction can use a relaxed load
// and a relaxed store instead (SpscRing's counters do). A concurrent reader
// may observe a histogram mid-record (count ahead of a bucket); snapshots
// taken on the owning shard (ShardedRouteServer::run_on_shard) are exact.
// MetricsRegistry::global() exists for components constructed without an
// explicit registry — fine in single-world processes; never give two
// shards the same registry, or their probe callbacks race.
//
// Two instrument flavours:
//   - Owned: `registry.counter("x")` returns a registry-owned instrument
//     with a stable address for the registry's lifetime. Owned instruments
//     are never removed, so cached handles cannot dangle.
//   - Probes: `registry.probe_counter("x", fn)` registers a read-only
//     callback evaluated at dump time. Components that already keep cheap
//     hot-path counters (RouteServerStats, RisStats) expose them as probes
//     — the dump reads the very same memory the hot path writes, so the
//     registry and the structs cannot disagree. A probe's owner MUST call
//     remove_prefix() before it is destroyed, or the callback dangles.

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/concurrency.h"
#include "util/json.h"

namespace rnl::util {

/// Wall-clock nanoseconds on a monotonic clock, anchored at first use.
/// For instrumentation only — simulated time stays in SimTime/Duration.
std::uint64_t monotonic_ns();

// Histograms are parameterized over concurrency traits (util/concurrency.h):
// the shipped Histogram alias below uses StdConcurrency, while the model
// checker instantiates BasicHistogram<ModelConcurrency> to explore the
// hot-path increments against a concurrent snapshot reader (DESIGN.md §13).
// Counters and gauges are plain std::atomic cells.

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    // Relaxed: single hot-path writer per shard; atomicity only makes the
    // cross-shard dump reads defined (file comment above).
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    // Relaxed: monitoring read, same contract as inc().
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  // Relaxed throughout: single hot-path writer per shard; atomicity only
  // makes the cross-shard dump reads defined (file comment above).
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  // Relaxed: same single-writer contract as set() above.
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);  // relaxed: dump read
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket log2 histogram: bucket b holds values whose bit width is b,
/// i.e. bucket 0 = {0} and bucket b = [2^(b-1), 2^b - 1]. Recording is O(1)
/// (one bit_width + four adds); percentiles walk the 65 buckets and return
/// the matched bucket's upper bound, so a reported percentile is an upper
/// estimate within 2x of the true order statistic — the right resolution
/// for latency tails, where powers of two are the story.
template <typename Concurrency = StdConcurrency>
class BasicHistogram {
 public:
  static constexpr std::size_t kBucketCount = 65;  // bit widths 0..64
  /// Plain snapshot of the bucket counters (see buckets()).
  using Buckets = std::array<std::uint64_t, kBucketCount>;

  void record(std::uint64_t value) {
    // Relaxed throughout: the hot path has one writer per instrument (one
    // shard); atomics only make the cross-shard snapshot reads defined.
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);    // relaxed: see above
    sum_.fetch_add(value, std::memory_order_relaxed);  // relaxed: see above
    std::uint64_t seen = min_.load(std::memory_order_relaxed);  // see above
    while (value < seen && !min_.compare_exchange_weak(
                               seen, value,
                               std::memory_order_relaxed)) {  // see above
    }
    seen = max_.load(std::memory_order_relaxed);  // relaxed: see above
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value,
                               std::memory_order_relaxed)) {  // see above
    }
  }

  [[nodiscard]] std::uint64_t count() const {
    // Relaxed: monitoring reads, same contract as record().
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    // Relaxed: monitoring read (see record()).
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const {
    // Relaxed: monitoring read (see record()).
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const {
    // Relaxed: monitoring read (see record()).
    return max_.load(std::memory_order_relaxed);
  }
  /// p in [0, 100]. Empty histogram reports 0.
  [[nodiscard]] std::uint64_t percentile(double p) const {
    return percentile_from(buckets(), count(), min(), max(), p);
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Inclusive bounds of bucket b: [bucket_floor(b), bucket_ceil(b)].
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t b) {
    if (b == 0) return 0;
    return std::uint64_t{1} << (b - 1);
  }
  [[nodiscard]] static std::uint64_t bucket_ceil(std::size_t b) {
    if (b == 0) return 0;
    if (b >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << b) - 1;
  }
  /// By-value snapshot (relaxed loads), so readers on other threads never
  /// hold a reference into words the owner keeps writing.
  [[nodiscard]] Buckets buckets() const {
    Buckets out{};
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      // Relaxed: monitoring read (see record()).
      out[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Percentile walk over an explicit bucket array — the shared core of
  /// percentile(), the Tracer's cross-shard tail aggregation, and
  /// MetricsRegistry::merge_snapshots. Bounds are clamped to [min, max].
  [[nodiscard]] static std::uint64_t percentile_from(const Buckets& buckets,
                                                     std::uint64_t count,
                                                     std::uint64_t min,
                                                     std::uint64_t max,
                                                     double p) {
    if (count == 0) return 0;
    if (p < 0) p = 0;
    if (p > 100) p = 100;
    // Rank of the order statistic, 1-based; p=0 means the first sample.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    if (rank == 0) rank = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      cumulative += buckets[b];
      if (cumulative >= rank) {
        // The bucket's upper bound, clamped to the observed extremes so a
        // single-sample histogram reports the sample itself.
        std::uint64_t bound = bucket_ceil(b);
        if (bound > max) bound = max;
        if (bound < min) bound = min;
        return bound;
      }
    }
    return max;
  }

 private:
  template <typename U>
  using Atomic = typename Concurrency::template Atomic<U>;

  std::array<Atomic<std::uint64_t>, kBucketCount> buckets_{};
  Atomic<std::uint64_t> count_{0};
  Atomic<std::uint64_t> sum_{0};
  Atomic<std::uint64_t> min_{~std::uint64_t{0}};
  Atomic<std::uint64_t> max_{0};
};

/// The shipped histogram: plain std::atomic cells.
using Histogram = BasicHistogram<StdConcurrency>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Fallback registry for components constructed without one. Single-world
  /// processes only — never write it from two threads.
  static MetricsRegistry& global();

  // Get-or-create; returned references stay valid for the registry's
  // lifetime (owned instruments are never removed).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Read-only probes, evaluated at dump time. Re-registering a name
  // replaces the callback (components recreated with a shared registry).
  void probe_counter(const std::string& name,
                     std::function<std::uint64_t()> read);
  void probe_gauge(const std::string& name, std::function<std::int64_t()> read);
  /// Drops every probe whose name starts with `prefix`. Owned instruments
  /// are untouched. Probe owners call this from their destructor.
  /// O(log n + k) for k removed probes: a range erase of the ordered maps.
  void remove_prefix(std::string_view prefix);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, p50, p90, p99, buckets: [{le, count}, ...nonzero only]}}}.
  [[nodiscard]] Json to_json() const;
  /// Prometheus text exposition (counters, gauges, histograms with
  /// cumulative le buckets). Metric names are `<ns>_<name>` with
  /// non-alphanumerics folded to '_'.
  [[nodiscard]] std::string to_prometheus(std::string_view ns = "rnl") const;

  /// Merge per-shard to_json() snapshots into one registry-shaped Json:
  /// counters and gauges sum by name, histogram buckets add up, min/max
  /// take the extremes, and p50/p90/p99 are recomputed from the merged
  /// buckets (same upper-bound semantics as Histogram::percentile). The
  /// sharded route server's control plane uses this so `metrics.dump`
  /// keeps one process-wide view.
  [[nodiscard]] static Json merge_snapshots(const std::vector<Json>& shards);

 private:
  // std::map: deterministic dump order, and node stability gives owned
  // instruments their forever-valid addresses. The probe maps compare
  // transparently so remove_prefix can look up a string_view.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<std::uint64_t()>, std::less<>>
      counter_probes_;
  std::map<std::string, std::function<std::int64_t()>, std::less<>>
      gauge_probes_;
};

}  // namespace rnl::util
