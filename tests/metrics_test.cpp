#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/testbed.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace rnl {
namespace {

using packet::Ipv4Address;
using packet::Ipv4Prefix;
using util::Histogram;
using util::MetricsRegistry;

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix prefix(const char* s) { return *Ipv4Prefix::parse(s); }

// ---------------------------------------------------------------------------
// Histogram buckets and percentiles
// ---------------------------------------------------------------------------

TEST(MetricsHistogram, BucketBoundariesFollowBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);

  // Every bucket's floor and ceil must map back into that bucket, and
  // adjacent buckets must tile the value range with no gap or overlap.
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_ceil(0), 0u);
  for (std::size_t b = 1; b < Histogram::kBucketCount; ++b) {
    EXPECT_EQ(Histogram::bucket_floor(b), std::uint64_t{1} << (b - 1));
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_floor(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_ceil(b)), b);
    EXPECT_EQ(Histogram::bucket_floor(b), Histogram::bucket_ceil(b - 1) + 1);
  }
  EXPECT_EQ(Histogram::bucket_ceil(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(MetricsHistogram, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
}

TEST(MetricsHistogram, SingleSampleReportsTheSampleAtEveryPercentile) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.percentile(0), 1000u);
  EXPECT_EQ(h.percentile(50), 1000u);
  EXPECT_EQ(h.percentile(100), 1000u);
}

TEST(MetricsHistogram, OverflowBucketHoldsHugeValues) {
  Histogram h;
  h.record(std::numeric_limits<std::uint64_t>::max());
  h.record(std::numeric_limits<std::uint64_t>::max() - 1);
  EXPECT_EQ(h.percentile(99), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
}

TEST(MetricsHistogram, PercentilesAreOrderedUpperEstimates) {
  Histogram h;
  // 90 fast samples around 100 and 10 slow ones around 100000: the p50
  // answer must stay in the fast bucket and the p99 answer in the slow one.
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(100000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LE(h.percentile(50), h.percentile(90));
  EXPECT_LE(h.percentile(90), h.percentile(99));
  EXPECT_LE(h.percentile(99), h.max());
  // Upper estimate within the bucket's 2x resolution.
  EXPECT_GE(h.percentile(50), 100u);
  EXPECT_LT(h.percentile(50), 200u);
  EXPECT_GE(h.percentile(99), 100000u);
  EXPECT_LT(h.percentile(99), 200000u);
  // min/max clamp the estimates to observed extremes.
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100000u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, OwnedInstrumentsHaveStableAddresses) {
  MetricsRegistry registry;
  util::Counter& c = registry.counter("a.frames");
  util::Histogram& h = registry.histogram("a.latency");
  c.inc(3);
  // Creating more instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&registry.counter("a.frames"), &c);
  EXPECT_EQ(&registry.histogram("a.latency"), &h);
  EXPECT_EQ(registry.counter("a.frames").value(), 3u);
}

TEST(MetricsRegistryTest, ProbesShadowOwnedValuesAndRemoveByPrefix) {
  MetricsRegistry registry;
  registry.counter("site.frames").inc(1);
  std::uint64_t live = 42;
  registry.probe_counter("site.frames", [&live] { return live; });
  registry.probe_gauge("site.depth", [] { return std::int64_t{-7}; });

  util::Json dump = registry.to_json();
  EXPECT_EQ(dump["counters"]["site.frames"].as_int(), 42);
  EXPECT_EQ(dump["gauges"]["site.depth"].as_int(), -7);

  live = 43;
  EXPECT_EQ(registry.to_json()["counters"]["site.frames"].as_int(), 43);

  // Dropping the probes falls back to the owned instrument and must not
  // evaluate the (about to dangle) callbacks again.
  registry.remove_prefix("site.");
  util::Json after = registry.to_json();
  EXPECT_EQ(after["counters"]["site.frames"].as_int(), 1);
  EXPECT_TRUE(after["gauges"]["site.depth"].is_null());
}

TEST(MetricsRegistryTest, RemovePrefixDropsExactlyTheNamesUnderIt) {
  // Neighbours on both sides of the "routeserver.site.a." run in sort
  // order: the bare name sorts before it, "a/" ('/' follows '.') and "ab."
  // sort after it. Owned instruments under the prefix are never removed.
  MetricsRegistry registry;
  const std::vector<std::string> names = {
      "routeserver.site.a",   "routeserver.site.a.x", "routeserver.site.a.y",
      "routeserver.site.a/z", "routeserver.site.ab.x"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto value = static_cast<std::int64_t>(i + 1);
    registry.probe_counter(names[i], [value] {
      return static_cast<std::uint64_t>(value);
    });
    registry.probe_gauge(names[i], [value] { return -value; });
  }
  registry.counter("routeserver.site.a.owned").inc(5);
  registry.gauge("routeserver.site.a.level").set(6);
  registry.histogram("routeserver.site.a.lat").record(7);

  const util::Json all = registry.to_json();
  EXPECT_EQ(all["counters"].size(), names.size() + 1);
  // Prefixes that match nothing: one sorting before the first name, one
  // after the last, and one landing between two names.
  registry.remove_prefix("aaa");
  registry.remove_prefix("zzz");
  registry.remove_prefix("routeserver.site.a.w");
  EXPECT_EQ(registry.to_json(), all);

  registry.remove_prefix("routeserver.site.a.");
  util::Json after = registry.to_json();
  for (const char* kind : {"counters", "gauges"}) {
    SCOPED_TRACE(kind);
    EXPECT_TRUE(after[kind]["routeserver.site.a.x"].is_null());
    EXPECT_TRUE(after[kind]["routeserver.site.a.y"].is_null());
    for (std::size_t i : {0u, 3u, 4u}) {
      EXPECT_EQ(after[kind][names[i]], all[kind][names[i]]) << names[i];
    }
  }
  EXPECT_EQ(after["counters"].size(), 4u);  // three neighbours + owned
  EXPECT_EQ(after["gauges"].size(), 4u);
  EXPECT_EQ(after["counters"]["routeserver.site.a.owned"].as_int(), 5);
  EXPECT_EQ(after["gauges"]["routeserver.site.a.level"].as_int(), 6);
  EXPECT_EQ(after["histograms"]["routeserver.site.a.lat"]["count"].as_int(), 1);
}

TEST(MetricsRegistryTest, DistinctInstrumentsWrittenFromDistinctThreads) {
  // The concurrency contract: one writer per instrument. Two threads
  // hammering two different counters of the same registry must both land
  // exact totals (instrument creation happens before the threads start).
  MetricsRegistry registry;
  util::Counter& a = registry.counter("thread.a");
  util::Counter& b = registry.counter("thread.b");
  constexpr std::uint64_t kIters = 200000;
  std::thread ta([&a] {
    for (std::uint64_t i = 0; i < kIters; ++i) a.inc();
  });
  std::thread tb([&b] {
    for (std::uint64_t i = 0; i < kIters; ++i) b.inc(2);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.value(), kIters);
  EXPECT_EQ(b.value(), 2 * kIters);
}

TEST(MetricsRegistryTest, JsonDumpCarriesHistogramShape) {
  MetricsRegistry registry;
  util::Histogram& h = registry.histogram("x.lat");
  h.record(3);
  h.record(3);
  h.record(900);
  util::Json dump = registry.to_json();
  const util::Json& hist = dump["histograms"]["x.lat"];
  EXPECT_EQ(hist["count"].as_int(), 3);
  EXPECT_EQ(hist["sum"].as_int(), 906);
  EXPECT_EQ(hist["min"].as_int(), 3);
  EXPECT_EQ(hist["max"].as_int(), 900);
  EXPECT_EQ(hist["p50"].as_int(), 3);
  // Only non-empty buckets are emitted: {2,3} and [512,1023].
  ASSERT_EQ(hist["buckets"].size(), 2u);
  EXPECT_EQ(hist["buckets"].at(0)["le"].as_int(), 3);
  EXPECT_EQ(hist["buckets"].at(0)["count"].as_int(), 2);
  EXPECT_EQ(hist["buckets"].at(1)["le"].as_int(), 1023);
  EXPECT_EQ(hist["buckets"].at(1)["count"].as_int(), 1);
}

TEST(MetricsRegistryTest, PrometheusExpositionFormat) {
  MetricsRegistry registry;
  registry.counter("routeserver.frames_routed").inc(5);
  registry.gauge("transport.chunks_in_flight").set(2);
  util::Histogram& h = registry.histogram("routeserver.forward_ns");
  h.record(100);
  h.record(300);
  std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE rnl_routeserver_frames_routed counter"),
            std::string::npos);
  EXPECT_NE(text.find("rnl_routeserver_frames_routed 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rnl_transport_chunks_in_flight gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rnl_routeserver_forward_ns histogram"),
            std::string::npos);
  // Buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("rnl_routeserver_forward_ns_bucket{le=\"127\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rnl_routeserver_forward_ns_bucket{le=\"511\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rnl_routeserver_forward_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rnl_routeserver_forward_ns_sum 400"),
            std::string::npos);
  EXPECT_NE(text.find("rnl_routeserver_forward_ns_count 2"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusQuantileGaugeLineShape) {
  // The quantile companion series (PR 7) emits precomputed p50/p90/p99 as
  // a gauge named <metric>_quantile with a two-decimal quantile label.
  MetricsRegistry registry;
  util::Histogram& h = registry.histogram("routeserver.forward_ns");
  for (int i = 0; i < 9; ++i) h.record(100);  // bucket le=127
  h.record(5000);                             // the p99 tail
  const std::string text = registry.to_prometheus();

  EXPECT_NE(text.find("# TYPE rnl_routeserver_forward_ns_quantile gauge"),
            std::string::npos);
  const struct {
    const char* label;
    double q;
  } kQuantiles[] = {{"0.50", 50.0}, {"0.90", 90.0}, {"0.99", 99.0}};
  for (const auto& [label, q] : kQuantiles) {
    const std::string line =
        "rnl_routeserver_forward_ns_quantile{quantile=\"" +
        std::string(label) + "\"} " + std::to_string(h.percentile(q));
    EXPECT_NE(text.find(line), std::string::npos)
        << "missing exposition line: " << line << "\nfull text:\n" << text;
  }
  // Pin the semantics, not just the shape: nine samples in the le=127
  // bucket put p50/p90 at that bucket's ceiling, and the tail sample is
  // the p99 (clamped to the observed max).
  EXPECT_EQ(h.percentile(50.0), 127u);
  EXPECT_EQ(h.percentile(90.0), 127u);
  EXPECT_EQ(h.percentile(99.0), 5000u);
  // Exactly one TYPE header for the quantile series.
  const std::string type_line =
      "# TYPE rnl_routeserver_forward_ns_quantile gauge";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line));
}

TEST(MetricsRegistryTest, MergeSnapshotsSumsShardsAndRecomputesPercentiles) {
  // The sharded route server dumps one registry per shard and merges the
  // snapshots: counters and gauges sum, histogram buckets add bucket-wise,
  // and the percentiles are recomputed from the merged distribution (a
  // mean-of-percentiles would hide one shard's slow tail entirely).
  MetricsRegistry r0;
  MetricsRegistry r1;
  r0.counter("routeserver.frames_routed").inc(3);
  r1.counter("routeserver.frames_routed").inc(5);
  r0.counter("only.in.shard0").inc(2);
  r0.gauge("routeserver.sites").set(1);
  r1.gauge("routeserver.sites").set(4);
  util::Histogram& h0 = r0.histogram("routeserver.forward_ns");
  util::Histogram& h1 = r1.histogram("routeserver.forward_ns");
  for (int i = 0; i < 90; ++i) h0.record(100);  // the fast shard
  for (int i = 0; i < 10; ++i) h1.record(1'000'000);  // the slow one

  std::vector<util::Json> snapshots;
  snapshots.push_back(r0.to_json());
  snapshots.push_back(r1.to_json());
  util::Json merged = MetricsRegistry::merge_snapshots(snapshots);

  EXPECT_EQ(merged["counters"]["routeserver.frames_routed"].as_int(), 8);
  EXPECT_EQ(merged["counters"]["only.in.shard0"].as_int(), 2);
  EXPECT_EQ(merged["gauges"]["routeserver.sites"].as_int(), 5);
  const util::Json& hist = merged["histograms"]["routeserver.forward_ns"];
  EXPECT_EQ(hist["count"].as_int(), 100);
  EXPECT_EQ(hist["min"].as_int(), 100);
  EXPECT_EQ(hist["max"].as_int(), 1'000'000);
  EXPECT_EQ(hist["sum"].as_int(), 90 * 100 + 10 * 1'000'000);
  // Rank 50 of the merged 100 samples sits in shard 0's fast bucket; rank
  // 99 must land in shard 1's slow bucket even though shard 0 alone would
  // report a tiny p99.
  EXPECT_LE(hist["p50"].as_int(), 127);
  EXPECT_GE(hist["p99"].as_int(), 500'000);
  // Degenerate inputs stay well-formed.
  util::Json empty = MetricsRegistry::merge_snapshots({});
  EXPECT_TRUE(empty["counters"].is_object());
  std::vector<util::Json> one;
  one.push_back(r0.to_json());
  util::Json single = MetricsRegistry::merge_snapshots(one);
  EXPECT_EQ(single["counters"]["routeserver.frames_routed"].as_int(), 3);
}

// ---------------------------------------------------------------------------
// End-to-end: testbed traffic shows up in the registry and the API
// ---------------------------------------------------------------------------

/// Two sites, one host each, an impaired virtual wire between them, and
/// compression on — every instrumented layer records something.
class MetricsEndToEnd : public ::testing::Test {
 protected:
  MetricsEndToEnd() : bed(7) {
    ris::RouterInterface& s1 = bed.add_site("west");
    ris::RouterInterface& s2 = bed.add_site("east");
    h1 = &bed.add_host(s1, "h1");
    h2 = &bed.add_host(s2, "h2");
    h1->configure(prefix("10.0.0.1/24"), ip("10.0.0.254"));
    h2->configure(prefix("10.0.0.2/24"), ip("10.0.0.254"));
    bed.server().set_compression_enabled(true);
    s1.set_compression_enabled(true);
    s2.set_compression_enabled(true);
    bed.join_all();
  }

  void connect_and_ping(int pings) {
    ASSERT_TRUE(bed.server()
                    .connect_ports(bed.port_id("west/h1", "eth0"),
                                   bed.port_id("east/h2", "eth0"),
                                   wire::NetemProfile::metro())
                    .ok());
    h1->ping(ip("10.0.0.2"), pings);
    bed.run_for(util::Duration::seconds(3 + pings / 10));
    ASSERT_EQ(h1->ping_replies().size(), static_cast<std::size_t>(pings));
  }

  util::Json api(const std::string& method,
                 util::Json params = util::Json::object()) {
    util::Json request = util::Json::object();
    request.set("method", method);
    request.set("params", std::move(params));
    return bed.api().handle(request);
  }

  core::Testbed bed;
  devices::Host* h1 = nullptr;
  devices::Host* h2 = nullptr;
};

TEST_F(MetricsEndToEnd, ForwardHistogramTracksFramesRouted) {
  connect_and_ping(20);
  const auto& stats = bed.server().stats();
  const util::Histogram& forward =
      bed.metrics().histogram("routeserver.forward_ns");
  EXPECT_GT(stats.frames_routed, 0u);
  // One forward-latency sample per routed frame, injected frames excluded.
  EXPECT_EQ(forward.count(), stats.frames_routed);
  EXPECT_GT(forward.percentile(99), 0u);
  EXPECT_LE(forward.percentile(50), forward.percentile(99));
}

TEST_F(MetricsEndToEnd, EveryInstrumentedLayerRecords) {
  connect_and_ping(20);
  util::Json dump = bed.metrics().to_json();
  const util::Json& counters = dump["counters"];
  const util::Json& histograms = dump["histograms"];
  EXPECT_GT(counters["routeserver.frames_routed"].as_int(), 0);
  EXPECT_GT(counters["ris.west.frames_up"].as_int(), 0);
  EXPECT_GT(counters["ris.east.frames_down"].as_int(), 0);
  EXPECT_GT(counters["transport.bytes_sent"].as_int(), 0);
  EXPECT_GT(counters["transport.bytes_delivered"].as_int(), 0);
  // The world is quiescent after run_for: nothing left in flight.
  EXPECT_EQ(dump["gauges"]["transport.chunks_in_flight"].as_int(), 0);
  EXPECT_EQ(dump["gauges"]["routeserver.sites"].as_int(), 2);
  // The acceptance trio: forward path, netem applied delay (the wire is
  // metro-impaired), and compression ratio (template echo traffic).
  EXPECT_GT(histograms["routeserver.forward_ns"]["count"].as_int(), 0);
  EXPECT_GT(histograms["wire.netem_applied_delay_ns"]["count"].as_int(), 0);
  EXPECT_GT(histograms["wire.compression_ratio_x100"]["count"].as_int(), 0);
  // Metro profile: 2 ms base delay, so applied delay clusters near 2e6 ns.
  EXPECT_GE(histograms["wire.netem_applied_delay_ns"]["p50"].as_int(),
            1000000);
  // Compressed echo frames shrink: ratio x100 above 100 (1.0x).
  EXPECT_GT(histograms["wire.compression_ratio_x100"]["p50"].as_int(), 100);
  EXPECT_GT(histograms["ris.west.capture_ns"]["count"].as_int(), 0);
  EXPECT_GT(histograms["ris.east.replay_ns"]["count"].as_int(), 0);
}

TEST_F(MetricsEndToEnd, MetricsDumpApiIsWellFormed) {
  connect_and_ping(10);
  util::Json response = api("metrics.dump");
  ASSERT_TRUE(response["ok"].as_bool());
  const util::Json& result = response["result"];
  ASSERT_TRUE(result["counters"].is_object());
  ASSERT_TRUE(result["gauges"].is_object());
  ASSERT_TRUE(result["histograms"].is_object());
  EXPECT_GT(result["counters"]["routeserver.frames_routed"].as_int(), 0);
  // The dump round-trips through the JSON codec (what a web client sees).
  auto reparsed = util::Json::parse(response.dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)["result"]["counters"]["routeserver.frames_routed"]
                .as_int(),
            result["counters"]["routeserver.frames_routed"].as_int());

  util::Json prometheus = api("metrics.prometheus");
  ASSERT_TRUE(prometheus["ok"].as_bool());
  EXPECT_NE(prometheus["result"]["text"].as_string().find(
                "rnl_routeserver_frames_routed"),
            std::string::npos);
}

TEST_F(MetricsEndToEnd, TraceApiPairsEachLookupWithItsPeerEnqueue) {
  // Per-port forwarding history comes from the tracer at head period 1:
  // every frame sent from P leaves a matrix_lookup span with arg P and, in
  // the same trace, an egress_enqueue span toward P's peer.
  util::Json on = util::Json::object();
  on.set("head_sample_period", 1);
  ASSERT_TRUE(api("trace.enable", std::move(on))["ok"].as_bool());
  connect_and_ping(10);
  const wire::PortId p1 = bed.port_id("west/h1", "eth0");
  const wire::PortId p2 = bed.port_id("east/h2", "eth0");

  util::Json dump = api("trace.dump");
  ASSERT_TRUE(dump["ok"].as_bool());
  std::map<std::string, std::int64_t> enqueued_to;  // trace id -> arg
  std::vector<std::string> lookups_from_p1;
  for (const auto& e : dump["result"]["events"].as_array()) {
    const std::string& stage = e["stage"].as_string();
    if (stage == "egress_enqueue") {
      enqueued_to[e["trace_id"].as_string()] = e["arg"].as_int();
    } else if (stage == "matrix_lookup" &&
               e["arg"].as_int() == static_cast<std::int64_t>(p1)) {
      lookups_from_p1.push_back(e["trace_id"].as_string());
    }
  }
  // Ten echo requests plus the ARP exchange crossed from P.
  EXPECT_GE(lookups_from_p1.size(), 10u);
  for (const std::string& id : lookups_from_p1) {
    ASSERT_EQ(enqueued_to.count(id), 1u) << id;
    EXPECT_EQ(enqueued_to[id], static_cast<std::int64_t>(p2)) << id;
  }
}

TEST_F(MetricsEndToEnd, StatsApiExposesFullDataPlaneLedger) {
  connect_and_ping(10);
  util::Json response = api("stats");
  ASSERT_TRUE(response["ok"].as_bool());
  const util::Json& result = response["result"];
  const auto& stats = bed.server().stats();
  EXPECT_EQ(result["frames_routed"].as_int(),
            static_cast<std::int64_t>(stats.frames_routed));
  EXPECT_EQ(result["decode_errors"].as_int(),
            static_cast<std::int64_t>(stats.decode_errors));
  EXPECT_EQ(result["sites_joined"].as_int(),
            static_cast<std::int64_t>(stats.sites_joined));
  // The overload ledger rides in the same response (quiescent here: no
  // site was ever backpressured in this scenario).
  EXPECT_EQ(result["shed_data_frames"].as_int(),
            static_cast<std::int64_t>(stats.shed_data_frames));
  EXPECT_EQ(result["control_frames_deferred"].as_int(),
            static_cast<std::int64_t>(stats.control_frames_deferred));
  EXPECT_EQ(result["shed_entries"].as_int(),
            static_cast<std::int64_t>(stats.shed_entries));
  EXPECT_EQ(result["hard_cap_evictions"].as_int(),
            static_cast<std::int64_t>(stats.hard_cap_evictions));
  EXPECT_EQ(result["stalled_evictions"].as_int(),
            static_cast<std::int64_t>(stats.stalled_evictions));
  EXPECT_EQ(result["sites_shedding"].as_int(), 0);
  EXPECT_FALSE(result["overloaded"].as_bool());
  ASSERT_TRUE(result["dataplane"].is_object());
  EXPECT_EQ(result["dataplane"]["payload_allocs"].as_int(),
            static_cast<std::int64_t>(stats.dataplane.payload_allocs));
  EXPECT_EQ(result["dataplane"]["slow_path_frames"].as_int(),
            static_cast<std::int64_t>(stats.dataplane.slow_path_frames));
  EXPECT_EQ(result["dataplane"]["bytes_copied"].as_int(),
            static_cast<std::int64_t>(stats.dataplane.bytes_copied));
}

TEST_F(MetricsEndToEnd, RegistryAgreesWithStatsAcrossCaptureToggles) {
  connect_and_ping(5);
  wire::PortId p1 = bed.port_id("west/h1", "eth0");

  // Toggle capture (fast path off, then on again) with traffic in between;
  // the registry must agree with the struct ledger at every step.
  auto expect_equivalence = [this] {
    util::Json counters = bed.metrics().to_json()["counters"];
    const auto& stats = bed.server().stats();
    EXPECT_EQ(counters["routeserver.frames_routed"].as_int(),
              static_cast<std::int64_t>(stats.frames_routed));
    EXPECT_EQ(counters["routeserver.fast_path_frames"].as_int(),
              static_cast<std::int64_t>(stats.dataplane.fast_path_frames));
    EXPECT_EQ(counters["routeserver.slow_path_frames"].as_int(),
              static_cast<std::int64_t>(stats.dataplane.slow_path_frames));
    EXPECT_EQ(counters["routeserver.payload_allocs"].as_int(),
              static_cast<std::int64_t>(stats.dataplane.payload_allocs));
    EXPECT_EQ(counters["routeserver.bytes_routed"].as_int(),
              static_cast<std::int64_t>(stats.bytes_routed));
    EXPECT_EQ(counters["routeserver.shed_frames_data"].as_int(),
              static_cast<std::int64_t>(stats.shed_data_frames));
    EXPECT_EQ(counters["routeserver.shed_frames_control_deferred"].as_int(),
              static_cast<std::int64_t>(stats.control_frames_deferred));
  };
  expect_equivalence();

  bed.server().start_capture(p1);
  h1->ping(ip("10.0.0.2"), 5);
  bed.run_for(util::Duration::seconds(2));
  expect_equivalence();

  bed.server().stop_capture(p1);
  h1->ping(ip("10.0.0.2"), 5);
  bed.run_for(util::Duration::seconds(2));
  ASSERT_EQ(h1->ping_replies().size(), 15u);
  expect_equivalence();

  const util::Histogram& forward =
      bed.metrics().histogram("routeserver.forward_ns");
  EXPECT_EQ(forward.count(), bed.server().stats().frames_routed);
}

// ---------------------------------------------------------------------------
// Logging satellites: level spec, API, timestamp prefix
// ---------------------------------------------------------------------------

class LoggingLevels : public ::testing::Test {
 protected:
  void TearDown() override {
    util::Logger::instance().set_threshold(saved_);
    util::Logger::instance().set_sink(
        [](util::LogLevel level, const std::string& line) {
          std::fprintf(stderr, "[%s] %s\n",
                       std::string(util::to_string(level)).c_str(),
                       line.c_str());
        });
  }
  util::LogLevel saved_ = util::Logger::instance().threshold();
};

TEST_F(LoggingLevels, LevelSpecParsing) {
  EXPECT_EQ(util::level_from_string("trace"), util::LogLevel::kTrace);
  EXPECT_EQ(util::level_from_string("DEBUG"), util::LogLevel::kDebug);
  EXPECT_EQ(util::level_from_string("Info"), util::LogLevel::kInfo);
  EXPECT_EQ(util::level_from_string("WARNING"), util::LogLevel::kWarn);
  EXPECT_EQ(util::level_from_string("error"), util::LogLevel::kError);
  EXPECT_FALSE(util::level_from_string("loud").has_value());
  EXPECT_FALSE(util::level_from_string("").has_value());

  util::Logger& logger = util::Logger::instance();
  EXPECT_TRUE(logger.apply_level_spec("debug"));
  EXPECT_EQ(logger.threshold(), util::LogLevel::kDebug);
  // A bad spec (or unset env var) leaves the threshold untouched.
  EXPECT_FALSE(logger.apply_level_spec("bogus"));
  EXPECT_FALSE(logger.apply_level_spec(nullptr));
  EXPECT_EQ(logger.threshold(), util::LogLevel::kDebug);
}

TEST_F(LoggingLevels, SetLevelApiMethod) {
  core::Testbed bed(11);
  util::Json request = util::Json::object();
  request.set("method", "log.set_level");
  util::Json params = util::Json::object();
  params.set("level", "error");
  request.set("params", std::move(params));
  util::Json response = bed.api().handle(request);
  EXPECT_TRUE(response["ok"].as_bool());
  EXPECT_EQ(util::Logger::instance().threshold(), util::LogLevel::kError);

  util::Json bad = util::Json::object();
  bad.set("method", "log.set_level");
  util::Json bad_params = util::Json::object();
  bad_params.set("level", "shouting");
  bad.set("params", std::move(bad_params));
  util::Json bad_response = bed.api().handle(bad);
  EXPECT_FALSE(bad_response["ok"].as_bool());
  EXPECT_EQ(util::Logger::instance().threshold(), util::LogLevel::kError);
}

TEST_F(LoggingLevels, ThresholdRetunedWhileWorkersLog) {
  // The log.set_level API method can retune the threshold while worker
  // threads are mid-RNL_LOG. enabled() races set_threshold by design; the
  // threshold is atomic so ThreadSanitizer (scripts/check.sh --tsan) proves
  // the pattern is a benign race, not undefined behavior.
  util::Logger& logger = util::Logger::instance();
  logger.set_threshold(util::LogLevel::kWarn);
  std::atomic<int> delivered{0};
  logger.set_sink([&delivered](util::LogLevel, const std::string&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });

  std::atomic<bool> stop{false};
  std::thread writer([&logger, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (logger.enabled(util::LogLevel::kInfo)) {
        logger.write(util::LogLevel::kInfo, "tsan_test", "tick");
      }
    }
  });
  std::thread tuner([&logger] {
    for (int i = 0; i < 2000; ++i) {
      logger.set_threshold(i % 2 == 0 ? util::LogLevel::kTrace
                                      : util::LogLevel::kError);
    }
  });
  tuner.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  // No exact count: delivery depends on interleaving. The test's value is
  // that TSan observes the read/write pair on threshold_.
  SUCCEED() << "delivered " << delivered.load() << " lines";
}

TEST_F(LoggingLevels, WritePrefixesMonotonicTimestamp) {
  util::Logger& logger = util::Logger::instance();
  logger.set_threshold(util::LogLevel::kInfo);
  std::vector<std::string> lines;
  logger.set_sink([&lines](util::LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  logger.write(util::LogLevel::kInfo, "metrics_test", "first");
  logger.write(util::LogLevel::kInfo, "metrics_test", "second");
  ASSERT_EQ(lines.size(), 2u);
  std::regex stamped(R"(^(\d+\.\d{6}) metrics_test: first$)");
  std::smatch match;
  ASSERT_TRUE(std::regex_match(lines[0], match, stamped));
  // Timestamps come from the same monotonic clock the histograms use: they
  // never run backwards between consecutive lines.
  double first = std::stod(match[1]);
  std::regex stamped2(R"(^(\d+\.\d{6}) metrics_test: second$)");
  ASSERT_TRUE(std::regex_match(lines[1], match, stamped2));
  EXPECT_GE(std::stod(match[1]), first);
}

}  // namespace
}  // namespace rnl
