#include "util/metrics.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace rnl::util {

std::uint64_t monotonic_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point anchor = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           anchor)
          .count());
}

// Histogram/Counter/Gauge bodies live in metrics.h: they are templates over
// the concurrency traits so the model checker can instantiate them.

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::probe_counter(const std::string& name,
                                    std::function<std::uint64_t()> read) {
  counter_probes_[name] = std::move(read);
}

void MetricsRegistry::probe_gauge(const std::string& name,
                                  std::function<std::int64_t()> read) {
  gauge_probes_[name] = std::move(read);
}

void MetricsRegistry::remove_prefix(std::string_view prefix) {
  // The names sharing a prefix are one contiguous run of the ordered map,
  // starting at lower_bound(prefix): erase that run and touch nothing else.
  auto drop = [prefix](auto& probes) {
    const auto first = probes.lower_bound(prefix);
    auto last = first;
    while (last != probes.end() && last->first.starts_with(prefix)) ++last;
    probes.erase(first, last);
  };
  drop(counter_probes_);
  drop(gauge_probes_);
}

Json MetricsRegistry::to_json() const {
  Json counters = Json::object();
  for (const auto& [name, counter] : counters_) {
    counters.set(name, counter->value());
  }
  for (const auto& [name, read] : counter_probes_) counters.set(name, read());

  Json gauges = Json::object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.set(name, static_cast<std::int64_t>(gauge->value()));
  }
  for (const auto& [name, read] : gauge_probes_) {
    gauges.set(name, static_cast<std::int64_t>(read()));
  }

  Json histograms = Json::object();
  for (const auto& [name, histogram] : histograms_) {
    Json h = Json::object();
    h.set("count", histogram->count());
    h.set("sum", histogram->sum());
    h.set("min", histogram->min());
    h.set("max", histogram->max());
    h.set("p50", histogram->percentile(50));
    h.set("p90", histogram->percentile(90));
    h.set("p99", histogram->percentile(99));
    Json buckets = Json::array();
    const Histogram::Buckets counts = histogram->buckets();
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      if (counts[b] == 0) continue;
      Json bucket = Json::object();
      bucket.set("le", Histogram::bucket_ceil(b));
      bucket.set("count", counts[b]);
      buckets.push_back(std::move(bucket));
    }
    h.set("buckets", std::move(buckets));
    histograms.set(name, std::move(h));
  }

  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

namespace {

std::string prometheus_name(std::string_view ns, std::string_view name) {
  std::string out(ns);
  out.push_back('_');
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_prometheus(std::string_view ns) const {
  std::string out;
  auto emit = [&](const std::string& name, const char* type,
                  const std::string& value) {
    std::string metric = prometheus_name(ns, name);
    out += "# TYPE " + metric + " " + type + "\n";
    out += metric + " " + value + "\n";
  };
  for (const auto& [name, counter] : counters_) {
    emit(name, "counter", std::to_string(counter->value()));
  }
  for (const auto& [name, read] : counter_probes_) {
    emit(name, "counter", std::to_string(read()));
  }
  for (const auto& [name, gauge] : gauges_) {
    emit(name, "gauge", std::to_string(gauge->value()));
  }
  for (const auto& [name, read] : gauge_probes_) {
    emit(name, "gauge", std::to_string(read()));
  }
  for (const auto& [name, histogram] : histograms_) {
    std::string metric = prometheus_name(ns, name);
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    const Histogram::Buckets counts = histogram->buckets();
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      if (counts[b] == 0) continue;
      cumulative += counts[b];
      out += metric + "_bucket{le=\"" +
             std::to_string(Histogram::bucket_ceil(b)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " +
           std::to_string(histogram->count()) + "\n";
    out += metric + "_sum " + std::to_string(histogram->sum()) + "\n";
    out += metric + "_count " + std::to_string(histogram->count()) + "\n";
    // Precomputed quantile gauges alongside the buckets: dashboards get
    // p50/p90/p99 without a PromQL histogram_quantile() over the coarse
    // power-of-two buckets (whose interpolation error can reach 2x).
    const std::string quantile = metric + "_quantile";
    out += "# TYPE " + quantile + " gauge\n";
    for (const double q : {50.0, 90.0, 99.0}) {
      char label[16];
      std::snprintf(label, sizeof(label), "%.2f", q / 100.0);
      out += quantile + "{quantile=\"" + label + "\"} " +
             std::to_string(histogram->percentile(q)) + "\n";
    }
  }
  return out;
}

namespace {

// Json numbers are doubles, so a bucket's serialized `le` cannot round-trip
// all 64 bits; recover the bucket index by matching against the canonical
// bucket ceilings instead.
std::size_t bucket_index_of_le(double le) {
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
    if (static_cast<double>(Histogram::bucket_ceil(b)) == le) return b;
  }
  return Histogram::kBucketCount;  // unknown; caller drops the bucket
}

std::uint64_t as_u64(const Json& node) {
  const double v = node.as_number(0);
  return v <= 0 ? 0 : static_cast<std::uint64_t>(v);
}

}  // namespace

Json MetricsRegistry::merge_snapshots(const std::vector<Json>& shards) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  struct MergedHist {
    Histogram::Buckets buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
  };
  std::map<std::string, MergedHist> hists;

  for (const Json& shard : shards) {
    for (const auto& [name, value] : shard["counters"].as_object()) {
      counters[name] += as_u64(value);
    }
    for (const auto& [name, value] : shard["gauges"].as_object()) {
      gauges[name] += value.as_int(0);
    }
    for (const auto& [name, h] : shard["histograms"].as_object()) {
      MergedHist& merged = hists[name];
      const std::uint64_t count = as_u64(h["count"]);
      merged.count += count;
      merged.sum += as_u64(h["sum"]);
      if (count > 0) {
        const std::uint64_t lo = as_u64(h["min"]);
        const std::uint64_t hi = as_u64(h["max"]);
        if (lo < merged.min) merged.min = lo;
        if (hi > merged.max) merged.max = hi;
      }
      for (const Json& bucket : h["buckets"].as_array()) {
        const std::size_t b = bucket_index_of_le(bucket["le"].as_number(-1));
        if (b < Histogram::kBucketCount) {
          merged.buckets[b] += as_u64(bucket["count"]);
        }
      }
    }
  }

  Json counters_json = Json::object();
  for (const auto& [name, value] : counters) counters_json.set(name, value);
  Json gauges_json = Json::object();
  for (const auto& [name, value] : gauges) gauges_json.set(name, value);
  Json hists_json = Json::object();
  for (const auto& [name, merged] : hists) {
    Json h = Json::object();
    const std::uint64_t min = merged.count == 0 ? 0 : merged.min;
    h.set("count", merged.count);
    h.set("sum", merged.sum);
    h.set("min", min);
    h.set("max", merged.max);
    h.set("p50", Histogram::percentile_from(merged.buckets, merged.count, min,
                                            merged.max, 50));
    h.set("p90", Histogram::percentile_from(merged.buckets, merged.count, min,
                                            merged.max, 90));
    h.set("p99", Histogram::percentile_from(merged.buckets, merged.count, min,
                                            merged.max, 99));
    Json buckets = Json::array();
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      if (merged.buckets[b] == 0) continue;
      Json bucket = Json::object();
      bucket.set("le", Histogram::bucket_ceil(b));
      bucket.set("count", merged.buckets[b]);
      buckets.push_back(std::move(bucket));
    }
    h.set("buckets", std::move(buckets));
    hists_json.set(name, std::move(h));
  }

  Json out = Json::object();
  out.set("counters", std::move(counters_json));
  out.set("gauges", std::move(gauges_json));
  out.set("histograms", std::move(hists_json));
  return out;
}

}  // namespace rnl::util
