// Unit tests for the tracing layer (util/trace.h): the seqlock span ring
// under wraparound and concurrent writers, the tracer's head-sampling and
// tail-capture policies, the slow-frame ledger, and the export formats
// (trace.dump JSON and the Perfetto trace-event schema).
//
// The *Concurrent* tests double as the --tsan surface (scripts/check.sh
// runs them under ThreadSanitizer): every slot word is atomic, so a data
// race here is a protocol bug, not a benign one.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace rnl::util {
namespace {

TraceEvent span(std::uint64_t id, std::uint64_t ts, std::uint64_t dur,
                TraceStage stage, std::uint32_t arg = 0) {
  return {id, ts, dur, stage, TraceInstant::kNone, arg};
}

TraceEvent instant(std::uint64_t id, std::uint64_t ts, TraceInstant detail,
                   std::uint32_t arg = 0) {
  return {id, ts, 0, TraceStage::kLifecycle, detail, arg};
}

TEST(SpanRing, RetainsEventsInPushOrder) {
  SpanRing ring(8);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ring.push(span(i, i * 100, 10, TraceStage::kForward, 7));
  }
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].trace_id, i + 1);
    EXPECT_EQ(events[i].ts_ns, (i + 1) * 100);
    EXPECT_EQ(events[i].dur_ns, 10u);
    EXPECT_EQ(events[i].stage, TraceStage::kForward);
    EXPECT_EQ(events[i].detail, TraceInstant::kNone);
    EXPECT_EQ(events[i].arg, 7u);
  }
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpanRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpanRing(5).capacity(), 8u);
  EXPECT_EQ(SpanRing(1).capacity(), 2u);   // floor: a 1-slot ring is useless
  EXPECT_EQ(SpanRing(0).capacity(), 2u);
  EXPECT_EQ(SpanRing(64).capacity(), 64u);
}

// The tail-capture commit is a span immediately followed by its kSlowFrame
// instant. Push far more commits than the ring holds: the ring must retain
// only the newest events, keep them in order, and never produce a
// half-overwritten event in the snapshot.
TEST(SpanRing, WrapsAroundDuringTailCaptureCommits) {
  constexpr std::size_t kCapacity = 16;
  constexpr std::uint64_t kCommits = 100;
  SpanRing ring(kCapacity);
  for (std::uint64_t id = 1; id <= kCommits; ++id) {
    ring.push(span(id, id * 1000, 500, TraceStage::kForward));
    ring.push(instant(id, id * 1000 + 500, TraceInstant::kSlowFrame));
  }
  EXPECT_EQ(ring.total(), 2 * kCommits);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  // Oldest retained ticket is 2*kCommits - kCapacity → id 93's instant
  // onward; rather than hard-code, check ordering and pairing invariants.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns) << "snapshot out of order";
  }
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.trace_id, kCommits - kCapacity) << "ancient event retained";
    if (e.dur_ns != 0) {
      EXPECT_EQ(e.stage, TraceStage::kForward);
    } else {
      EXPECT_EQ(e.detail, TraceInstant::kSlowFrame);
      EXPECT_EQ(e.ts_ns, e.trace_id * 1000 + 500) << "torn slot in snapshot";
    }
  }
  // The newest commit is fully present.
  EXPECT_EQ(events.back().trace_id, kCommits);
  EXPECT_EQ(events.back().detail, TraceInstant::kSlowFrame);
}

TEST(SpanRing, ConcurrentWritersLoseNothingToRaces) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  SpanRing ring(1024);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Encode writer and sequence into the payload so a torn slot would
        // be visible as an inconsistent event.
        const std::uint64_t id = (std::uint64_t{static_cast<std::uint64_t>(t)}
                                  << 32) |
                                 i;
        ring.push(span(id, id, id, TraceStage::kCapture,
                       static_cast<std::uint32_t>(t)));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(ring.total(), kThreads * kPerThread);
  auto events = ring.snapshot();
  EXPECT_EQ(events.size(), ring.capacity());
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, e.ts_ns);
    EXPECT_EQ(e.trace_id, e.dur_ns);
    EXPECT_EQ(e.arg, static_cast<std::uint32_t>(e.trace_id >> 32));
  }
}

TEST(SpanRing, ConcurrentReaderSeesOnlyCompleteEvents) {
  SpanRing ring(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      // All four payload words carry the same value: any mix is a tear.
      ring.push(span(i, i, i, TraceStage::kReplay,
                     static_cast<std::uint32_t>(i & 0xFFFFFFFF)));
      ++i;
    }
  });
  for (int pass = 0; pass < 200; ++pass) {
    for (const TraceEvent& e : ring.snapshot()) {
      ASSERT_EQ(e.trace_id, e.ts_ns);
      ASSERT_EQ(e.trace_id, e.dur_ns);
      ASSERT_EQ(e.arg, static_cast<std::uint32_t>(e.trace_id & 0xFFFFFFFF));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(Tracer, HeadSamplingHonorsPeriodAndEnableSwitch) {
  Tracer tracer;
  // Disabled: never samples, even at period 1.
  tracer.set_head_sample_period(1);
  EXPECT_EQ(tracer.head_sample(), 0u);
  tracer.set_enabled(true);
  // Period 1: every call mints a fresh id.
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t id = tracer.head_sample();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 10u);
  // Period 4: exactly 1 in 4.
  tracer.set_head_sample_period(4);
  int sampled = 0;
  for (int i = 0; i < 400; ++i) {
    if (tracer.head_sample() != 0) ++sampled;
  }
  EXPECT_EQ(sampled, 100);
  // Period 0: head sampling off while tail capture can stay on.
  tracer.set_head_sample_period(0);
  EXPECT_EQ(tracer.head_sample(), 0u);
  // Non-power-of-two rounds up.
  tracer.set_head_sample_period(5);
  EXPECT_EQ(tracer.head_sample_period(), 8u);
}

TEST(Tracer, HeadSamplePeriodClampsValuesBeyondBitCeilRange) {
  Tracer tracer;
  tracer.set_head_sample_period(0xFFFFFFFFu);
  EXPECT_EQ(tracer.head_sample_period(), 1u << 31);
}

TEST(Tracer, SharedStageSampleKnobIsPowerOfTwo) {
  static_assert((kDefaultStageSamplePeriod &
                 (kDefaultStageSamplePeriod - 1)) == 0,
                "mask-based samplers require a power of two");
  EXPECT_EQ(kDefaultStageSamplePeriod, 16u);
  // The head sampler defaults sparser than the stage clocks: a traced
  // frame costs a wire prefix plus ~8 spans, and the bench acceptance
  // caps default-sampling overhead at 3%.
  static_assert((kDefaultHeadSamplePeriod &
                 (kDefaultHeadSamplePeriod - 1)) == 0,
                "head sampling uses the same mask gate");
  EXPECT_EQ(kDefaultHeadSamplePeriod, 64u);
  EXPECT_GT(kDefaultHeadSamplePeriod, kDefaultStageSamplePeriod);
  EXPECT_EQ(Tracer{}.head_sample_period(), kDefaultHeadSamplePeriod);
}

TEST(Tracer, TailGateStaysClosedUntilHistogramWarmsUp) {
  Tracer tracer;
  tracer.set_enabled(true);
  Histogram hist;
  // Below kTailMinCount samples: everything passes as "not slow".
  for (std::uint64_t i = 0; i < Tracer::kTailMinCount - 1; ++i) {
    hist.record(100);
  }
  EXPECT_FALSE(tracer.tail_exceeds(hist, 1'000'000'000));
  EXPECT_EQ(tracer.tail_threshold_ns(), 0u);
  // Warm: p99 of an all-100ns distribution is tiny, so a huge outlier
  // trips the gate — after the cached estimate refreshes.
  hist.record(100);
  for (std::uint64_t i = 0; i < Tracer::kTailRefreshPeriod; ++i) {
    (void)tracer.tail_exceeds(hist, 100);
  }
  EXPECT_GT(tracer.tail_threshold_ns(), 0u);
  EXPECT_TRUE(tracer.tail_exceeds(hist, 1'000'000'000));
  EXPECT_FALSE(tracer.tail_exceeds(hist, 1));
  // Disabled tracer never commits a tail capture.
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.tail_exceeds(hist, 1'000'000'000));
}

TEST(Tracer, TailThresholdAggregatesAcrossRegisteredShardHistograms) {
  // Sharded servers register one forward histogram each; the tail gate must
  // compare against the p99 of the *merged* distribution, not whichever
  // shard happened to trigger the refresh. Shard a is uniformly fast, shard
  // b uniformly slow — a's own p99 would call half of b's normal frames
  // "slow" and flood the ledger.
  Tracer tracer;
  tracer.set_enabled(true);
  Histogram a;
  Histogram b;
  Tracer::TailRegistration reg_a = tracer.register_tail_histogram(&a);
  Tracer::TailRegistration reg_b = tracer.register_tail_histogram(&b);
  for (int i = 0; i < 512; ++i) a.record(1'000);
  for (int i = 0; i < 512; ++i) b.record(1'000'000);
  for (std::uint64_t i = 0; i <= Tracer::kTailRefreshPeriod; ++i) {
    (void)tracer.tail_exceeds(a, 1'000);  // a's gate, merged estimate
  }
  // Merged p99 sits in b's magnitude, far above a's 1µs world.
  EXPECT_GE(tracer.tail_threshold_ns(), 100'000u);
  EXPECT_FALSE(tracer.tail_exceeds(b, 500'000));  // normal for shard b
  EXPECT_TRUE(tracer.tail_exceeds(a, 1'000'000'000));
  // Dropping b (its shard shut down) re-tightens the merged threshold.
  reg_b.reset();
  for (std::uint64_t i = 0; i <= Tracer::kTailRefreshPeriod; ++i) {
    (void)tracer.tail_exceeds(a, 1'000);
  }
  EXPECT_GT(tracer.tail_threshold_ns(), 0u);
  EXPECT_LT(tracer.tail_threshold_ns(), 100'000u);
  EXPECT_TRUE(tracer.tail_exceeds(a, 500'000));
}

TEST(Tracer, TailRegistrationIsSafeInEitherDestructionOrder) {
  // Regression: RouteServer's destructor used to deregister its forward
  // histogram from its tracer unconditionally. A fixture that
  // declares the tracer after the server destroys the tracer first, and
  // the unregister locked a destroyed mutex (garbage memory decides
  // between a futex hang and a pthread assertion — and a zeroed heap page
  // makes it "pass", which is why only the plain build ever crashed).
  Histogram hist;
  hist.record(7);

  // Tracer dies first: releasing the registration must be a no-op.
  Tracer::TailRegistration outliving;
  {
    Tracer tracer;
    outliving = tracer.register_tail_histogram(&hist);
  }
  outliving.reset();

  // Registrant dies first: the handle must actually deregister, so a
  // later refresh never touches the dead histogram.
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Histogram shard_hist;
    for (int i = 0; i < 512; ++i) shard_hist.record(1'000'000);
    Tracer::TailRegistration registration =
        tracer.register_tail_histogram(&shard_hist);
    for (std::uint64_t i = 0; i <= Tracer::kTailRefreshPeriod; ++i) {
      (void)tracer.tail_exceeds(shard_hist, 1'000);
    }
    EXPECT_GE(tracer.tail_threshold_ns(), 100'000u);
  }
  for (int i = 0; i < 512; ++i) hist.record(1'000);
  for (std::uint64_t i = 0; i <= Tracer::kTailRefreshPeriod; ++i) {
    (void)tracer.tail_exceeds(hist, 1'000);
  }
  // Only `hist` (1µs world) remains registered: the dead shard's 1ms
  // distribution no longer inflates the merged p99.
  EXPECT_GT(tracer.tail_threshold_ns(), 0u);
  EXPECT_LT(tracer.tail_threshold_ns(), 100'000u);
}

TEST(Tracer, SlowLedgerKeepsTheNewestEntries) {
  Tracer tracer;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    tracer.note_slow({i, i * 10, i * 100, 50, 1, 2});
  }
  EXPECT_EQ(tracer.slow_total(), 100u);
  auto slow = tracer.slow_frames();
  ASSERT_EQ(slow.size(), Tracer::kSlowLedgerCapacity);
  // Oldest first; the newest 64 of 100 are ids 37..100.
  EXPECT_EQ(slow.front().trace_id, 100 - Tracer::kSlowLedgerCapacity + 1);
  EXPECT_EQ(slow.back().trace_id, 100u);
  for (std::size_t i = 1; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].trace_id, slow[i - 1].trace_id + 1);
  }
}

TEST(Tracer, ToJsonMergesRingsAndBoundsTheDump) {
  Tracer tracer;
  SpanRing& server = tracer.ring("routeserver", "server");
  SpanRing& site = tracer.ring("ris", "west");
  // Interleaved timestamps across the two rings.
  server.push(span(1, 200, 10, TraceStage::kForward));
  site.push(span(1, 100, 20, TraceStage::kCapture));
  site.push(instant(1, 400, TraceInstant::kShedDrop, 9));
  server.push(span(2, 300, 10, TraceStage::kForward));

  Json dump = tracer.to_json();
  const auto& events = dump["events"].as_array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(dump["dropped"].as_int(), 0);
  // Merged in timestamp order regardless of source ring.
  EXPECT_EQ(events[0]["component"].as_string(), "ris");
  EXPECT_EQ(events[0]["stage"].as_string(), "capture");
  EXPECT_EQ(events[1]["component"].as_string(), "routeserver");
  EXPECT_EQ(events[1]["site"].as_string(), "server");
  EXPECT_EQ(events[3]["detail"].as_string(), "shed_drop");
  EXPECT_EQ(events[3]["arg"].as_int(), 9);
  EXPECT_EQ(events[0]["trace_id"].as_string(), "0x1");

  // max_events keeps the newest, reports the rest as dropped.
  Json bounded = tracer.to_json(2);
  ASSERT_EQ(bounded["events"].as_array().size(), 2u);
  EXPECT_EQ(bounded["dropped"].as_int(), 2);
  EXPECT_EQ(bounded["events"].as_array()[0]["ts_ns"].as_int(), 300);

  // ring() is get-or-create: same pointer for the same (component, site).
  EXPECT_EQ(&tracer.ring("ris", "west"), &site);
  EXPECT_NE(&tracer.ring("ris", "east"), &site);
}

TEST(Tracer, PerfettoExportMatchesTheTraceEventSchema) {
  Tracer tracer;
  tracer.ring("routeserver", "server")
      .push(span(0x2A, 1000, 500, TraceStage::kForward, 3));
  tracer.ring("ris", "west").push(span(0x2A, 0, 900, TraceStage::kCapture));
  tracer.ring("ris", "west")
      .push(instant(0x2A, 2000, TraceInstant::kEviction, 12));

  // The string form must parse back — that is what ui.perfetto.dev loads.
  auto parsed = Json::parse(tracer.to_perfetto());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const Json& trace = *parsed;
  EXPECT_EQ(trace["displayTimeUnit"].as_string(), "ns");
  const auto& events = trace["traceEvents"].as_array();

  int process_names = 0;
  int thread_names = 0;
  int complete = 0;
  int instants = 0;
  std::set<std::pair<std::int64_t, std::int64_t>> span_pid_tid;
  for (const auto& e : events) {
    const std::string& ph = e["ph"].as_string();
    if (ph == "M") {
      if (e["name"].as_string() == "process_name") ++process_names;
      if (e["name"].as_string() == "thread_name") ++thread_names;
    } else if (ph == "X") {
      ++complete;
      EXPECT_GE(e["dur"].as_number(), 0.0);
      EXPECT_EQ(e["args"]["trace_id"].as_string(), "0x2a");
      span_pid_tid.insert({e["pid"].as_int(), e["tid"].as_int()});
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e["s"].as_string(), "g");
      EXPECT_EQ(e["name"].as_string(), "eviction");
    }
  }
  EXPECT_EQ(process_names, 2);  // routeserver + ris
  EXPECT_EQ(thread_names, 2);   // server + west
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instants, 1);
  // The two spans come from different components → different pids.
  EXPECT_EQ(span_pid_tid.size(), 2u);
}

TEST(Tracer, HexTraceIdRendersMinimalHex) {
  EXPECT_EQ(hex_trace_id(0), "0x0");
  EXPECT_EQ(hex_trace_id(0x2A), "0x2a");
  EXPECT_EQ(hex_trace_id(0xDEADBEEFCAFE), "0xdeadbeefcafe");
  EXPECT_EQ(hex_trace_id(~std::uint64_t{0}), "0xffffffffffffffff");
}

TEST(Tracer, StageAndInstantNamesAreStable) {
  EXPECT_EQ(to_string(TraceStage::kCapture), "capture");
  EXPECT_EQ(to_string(TraceStage::kMatrixLookup), "matrix_lookup");
  EXPECT_EQ(to_string(TraceStage::kEgressFlush), "egress_flush");
  EXPECT_EQ(to_string(TraceInstant::kStaleEpochDrop), "stale_epoch_drop");
  EXPECT_EQ(to_string(TraceInstant::kSpoofedPortDrop), "spoofed_port_drop");
  EXPECT_EQ(to_string(TraceInstant::kWatermarkEnter), "watermark_enter");
}

}  // namespace
}  // namespace rnl::util
