// Model-check harnesses for the lock-free protocols the sharded route
// server rests on (DESIGN.md §13). Each harness instantiates the *shipped*
// primitive template on modeled atomics (ModelConcurrency) and explores
// every interleaving within the preemption bound; the engine reports data
// races (missing release/acquire edges), failed invariants, deadlocks, and
// livelocks, each with a replayable schedule token.
//
// Harness state is held in shared_ptrs captured by the thread lambdas: a
// violating execution skips after(), so raw new/delete would leak there.

#include "util/modelcheck.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/spsc.h"
#include "util/trace.h"

namespace mc = rnl::util::modelcheck;
using rnl::util::BasicHistogram;
using rnl::util::BasicSpanRing;
using rnl::util::SpscRing;
using rnl::util::TraceEvent;
using rnl::util::TraceStage;

namespace {

// The acceptance bar: each harness must cover at least this many distinct
// interleavings in exhaustive-bounded mode (ISSUE 9).
constexpr std::uint64_t kMinExecutions = 10000;

// ---------------------------------------------------------------------------
// Harness 1: SPSC ring push/pop/full-drop, including seq-recycle wraparound.
// ---------------------------------------------------------------------------

// Capacity 2 with 5 pushes forces slot reuse (tickets lap the ring), so the
// seq-recycle path (`seq = tail + capacity`) is inside the explored space.
void spsc_harness(mc::Model& m) {
  constexpr int kPushes = 5;
  struct State {
    SpscRing<int, mc::ModelConcurrency> ring{2};
    std::vector<int> popped;
    int pushed_ok = 0;
  };
  auto st = std::make_shared<State>();

  m.thread("producer", [st] {
    for (int i = 1; i <= kPushes; ++i) {
      if (st->ring.push(i)) st->pushed_ok += 1;
    }
  });
  m.thread("consumer", [st] {
    for (int attempts = 0; attempts < 8; ++attempts) {
      int v = 0;
      if (st->ring.pop(v)) st->popped.push_back(v);
    }
  });
  m.after([st] {
    // Drain what the consumer left behind; the full history must be FIFO
    // and account for every push attempt.
    int v = 0;
    while (st->ring.pop(v)) st->popped.push_back(v);
    mc::check(static_cast<int>(st->popped.size()) == st->pushed_ok,
              "every successful push is popped exactly once");
    // Strictly increasing, not consecutive: a full-ring drop leaves a gap
    // in the popped values but must never reorder them.
    int prev = 0;
    for (int got : st->popped) {
      mc::check(got > prev, "FIFO order survives wraparound");
      prev = got;
    }
    mc::check(st->ring.dropped() ==
                  static_cast<std::uint64_t>(kPushes - st->pushed_ok),
              "full-ring rejections are counted as drops");
  });
}

TEST(ModelCheckSpsc, PushPopFullDropWraparoundIsRaceFree) {
  mc::Options opts;
  opts.preemption_bound = 5;
  opts.max_executions = 120000;
  const mc::Result result = mc::explore(opts, spsc_harness);
  ASSERT_TRUE(result.ok()) << result.violation->format();
  EXPECT_GE(result.executions, kMinExecutions) << result.summary();
}

// A seeded random walk samples schedules beyond the preemption bound.
TEST(ModelCheckSpsc, RandomWalkBeyondThePreemptionBoundStaysClean) {
  mc::Options opts;
  opts.mode = mc::Options::Mode::kRandomWalk;
  opts.random_walks = 2000;
  opts.seed = 7;
  const mc::Result result = mc::explore(opts, spsc_harness);
  ASSERT_TRUE(result.ok()) << result.violation->format();
  EXPECT_EQ(result.executions, 2000u);
}

// ---------------------------------------------------------------------------
// Seeded ordering bug: demote the producer's release publish to relaxed and
// the checker must catch it — as a data race on the slot payload the seq
// word was supposed to publish — with a trace and a replayable token.
// ---------------------------------------------------------------------------

template <typename U>
class DemotedStoreAtomic {
 public:
  DemotedStoreAtomic() = default;
  DemotedStoreAtomic(U v) : inner_(v) {}  // NOLINT(google-explicit-constructor)

  U load(std::memory_order order = std::memory_order_seq_cst) const {
    return inner_.load(order);
  }
  void store(U v, std::memory_order order = std::memory_order_seq_cst) {
    // The seeded bug: every release store is demoted to relaxed, exactly
    // what a careless "it's just a counter" edit to spsc.h would do.
    inner_.store(v, order == std::memory_order_release
                        ? std::memory_order_relaxed
                        : order);
  }
  U fetch_add(U d, std::memory_order order = std::memory_order_seq_cst) {
    return inner_.fetch_add(d, order);
  }
  U exchange(U v, std::memory_order order = std::memory_order_seq_cst) {
    return inner_.exchange(v, order);
  }
  bool compare_exchange_weak(
      U& expected, U desired,
      std::memory_order order = std::memory_order_seq_cst) {
    return inner_.compare_exchange_weak(expected, desired, order);
  }
  bool compare_exchange_strong(
      U& expected, U desired,
      std::memory_order order = std::memory_order_seq_cst) {
    return inner_.compare_exchange_strong(expected, desired, order);
  }

 private:
  mc::Atomic<U> inner_;
};

struct DemotedConcurrency {
  template <typename U>
  using Atomic = DemotedStoreAtomic<U>;
  template <typename U>
  using Shared = mc::Raced<U>;
  static void thread_fence(std::memory_order order) {
    mc::ModelConcurrency::thread_fence(order);
  }
};

void demoted_spsc_harness(mc::Model& m) {
  struct State {
    SpscRing<int, DemotedConcurrency> ring{2};
    int sink = 0;
  };
  auto st = std::make_shared<State>();
  m.thread("producer", [st] { st->ring.push(42); });
  m.thread("consumer", [st] {
    int v = 0;
    if (st->ring.pop(v)) st->sink = v;
  });
}

TEST(ModelCheckSpsc, DemotedReleasePublishIsCaughtWithTraceAndToken) {
  mc::Options opts;
  opts.quiet = true;
  const mc::Result result = mc::explore(opts, demoted_spsc_harness);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violation->kind, "data_race");
  EXPECT_FALSE(result.violation->trace.empty());
  ASSERT_NE(result.violation->token.find("mc1:"), std::string::npos);

  // The token deterministically replays the failing schedule.
  mc::Options replay;
  replay.mode = mc::Options::Mode::kReplay;
  replay.replay_token = result.violation->token;
  replay.quiet = true;
  const mc::Result again = mc::explore(replay, demoted_spsc_harness);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.violation->kind, "data_race");
  EXPECT_EQ(again.violation->token, result.violation->token);
  EXPECT_EQ(again.executions, 1u);
  EXPECT_FALSE(again.violation->trace.empty());
  // The trace names the racing object: the slot payload.
  bool mentions_raced = false;
  for (const mc::Step& step : again.violation->trace) {
    if (step.op.find("raced#") != std::string::npos) mentions_raced = true;
  }
  EXPECT_TRUE(mentions_raced);
}

// ---------------------------------------------------------------------------
// Harness 2: SpanRing seqlock — concurrent writers vs. a snapshot reader
// must never surface a torn slot.
// ---------------------------------------------------------------------------

TraceEvent consistent_event(std::uint64_t tag) {
  // All payload words carry the same tag, so a snapshot that mixes words
  // from two different writes is detectable as an inconsistent event.
  TraceEvent event;
  event.trace_id = tag;
  event.ts_ns = tag;
  event.dur_ns = tag;
  event.stage = TraceStage::kForward;
  event.arg = static_cast<std::uint32_t>(tag);
  return event;
}

void check_consistent(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& event : events) {
    mc::check(event.ts_ns == event.trace_id && event.dur_ns == event.trace_id,
              "snapshot never surfaces a torn slot");
    mc::check(event.trace_id == 100 || event.trace_id == 200,
              "snapshot only surfaces values some writer actually wrote");
  }
}

void spanring_harness(mc::Model& m) {
  auto ring = std::make_shared<BasicSpanRing<mc::ModelConcurrency>>(2);
  m.thread("writer-a", [ring] { ring->push(consistent_event(100)); });
  m.thread("writer-b", [ring] { ring->push(consistent_event(200)); });
  m.thread("reader", [ring] { check_consistent(ring->snapshot()); });
  m.after([ring] {
    const std::vector<TraceEvent> final_events = ring->snapshot();
    check_consistent(final_events);
    mc::check(final_events.size() == 2,
              "both published events are visible once quiescent");
    mc::check(ring->total() == 2, "every push took a ticket");
  });
}

TEST(ModelCheckSpanRing, WriterVsReaderTornSlotsAreDiscarded) {
  mc::Options opts;
  opts.preemption_bound = 3;  // 3 threads: bound 3 covers >10k schedules
  opts.max_executions = 120000;
  const mc::Result result = mc::explore(opts, spanring_harness);
  ASSERT_TRUE(result.ok()) << result.violation->format();
  EXPECT_GE(result.executions, kMinExecutions) << result.summary();
}

// ---------------------------------------------------------------------------
// Harness 3: posted-command teardown vs. in-flight cross-shard wire push —
// the protocol replica of ShardedRouteServer's drain_commands/drain_wires
// planes (sharded.cpp): a peer shard pushes frames into the SPSC wire and
// then posts a teardown command; the owning shard drains frames, then
// commands, and must account for every frame no matter how the teardown
// lands relative to in-flight pushes.
// ---------------------------------------------------------------------------

void teardown_harness(mc::Model& m) {
  constexpr int kFrames = 4;
  struct State {
    SpscRing<int, mc::ModelConcurrency> wire{2};
    mc::Mutex commands_mutex;
    // Guarded by commands_mutex (the posted-command plane is locked; only
    // the wire itself is lock-free).
    mc::Raced<int> teardown_posted{0};
    // Owner-shard state: only the consumer thread (and after()) touch it —
    // exactly the owner-thread discipline the RNL_DCHECKs in sharded.cpp
    // assert, so a schedule that breaks it shows up as a data race here.
    mc::Raced<int> delivered{0};
    mc::Raced<int> torn_down{0};
  };
  auto st = std::make_shared<State>();

  m.thread("peer-shard", [st] {
    for (int i = 1; i <= kFrames; ++i) st->wire.push(i);
    st->commands_mutex.lock();
    st->teardown_posted = 1;
    st->commands_mutex.unlock();
  });
  m.thread("owner-shard", [st] {
    for (int loop = 0; loop < 3; ++loop) {
      // drain_wires: deliver everything in flight.
      int frame = 0;
      while (st->wire.pop(frame)) st->delivered = st->delivered + 1;
      // drain_commands: teardown wins over any frame pushed after it.
      st->commands_mutex.lock();
      const int posted = st->teardown_posted;
      st->commands_mutex.unlock();
      if (posted != 0) {
        mc::check(st->torn_down == 0, "teardown runs exactly once");
        st->torn_down = 1;
        break;
      }
    }
  });
  m.after([st] {
    // Frames the owner never drained (torn down early or loop budget) are
    // still in the ring or counted as producer-side drops: nothing leaks.
    int remaining = 0;
    int frame = 0;
    while (st->wire.pop(frame)) ++remaining;
    const int delivered = st->delivered;
    mc::check(delivered + remaining +
                  static_cast<int>(st->wire.dropped()) == kFrames,
              "every frame is delivered, still in flight, or a counted drop");
  });
}

TEST(ModelCheckSharded, TeardownVsInFlightWirePushAccountsForEveryFrame) {
  mc::Options opts;
  opts.preemption_bound = 4;
  opts.max_executions = 120000;
  const mc::Result result = mc::explore(opts, teardown_harness);
  ASSERT_TRUE(result.ok()) << result.violation->format();
  EXPECT_GE(result.executions, kMinExecutions) << result.summary();
}

// ---------------------------------------------------------------------------
// Harness 3b: recycled cross-shard buffers — the protocol replica of
// ShardedRouteServer's wire (sharded.cpp: the remote-deliver handler and
// drain_wires). Buffers travel producer -> consumer in the frame ring and
// back in the spare ring. A buffer's bytes are plain memory, published only
// by the two rings' release/acquire pairs, so the consumer must be done
// reading a frame before it hands the buffer back. Freeing a buffer is
// modeled as a write to it: whoever frees must be its only user.
// ---------------------------------------------------------------------------

struct RecycledBuffer {
  mc::Raced<int> bytes{0};
};

/// What the explored executions reached, summed across all of them.
struct RecycleCoverage {
  std::uint64_t wire_full = 0;    // a frame dropped on a full frame ring
  std::uint64_t spares_full = 0;  // a buffer freed on a full spare ring
  std::uint64_t reused = 0;       // a frame copied into a returned buffer
};

void recycle_harness(mc::Model& m, RecycleCoverage* coverage,
                     bool return_before_read) {
  constexpr int kFrames = 4;
  struct State {
    SpscRing<RecycledBuffer*, mc::ModelConcurrency> frames{2};
    SpscRing<RecycledBuffer*, mc::ModelConcurrency> spares{2};
    // Producer-owned: every buffer it ever allocated (the model's heap).
    std::vector<std::unique_ptr<RecycledBuffer>> heap;
    int reused = 0;                   // producer-only
    std::vector<int> delivered;       // consumer-only until after()
    int freed_on_full_spares = 0;     // consumer-only until after()
  };
  auto st = std::make_shared<State>();

  m.thread("producer-shard", [st] {
    for (int frame = 1; frame <= kFrames; ++frame) {
      RecycledBuffer* buffer = nullptr;
      if (st->spares.pop(buffer)) {
        ++st->reused;
      } else {  // cold start: nothing came back yet
        st->heap.push_back(std::make_unique<RecycledBuffer>());
        buffer = st->heap.back().get();
      }
      buffer->bytes = frame;  // the frame's copy into the buffer
      if (!st->frames.push(buffer)) buffer->bytes = -1;  // dropped: freed
    }
  });
  m.thread("consumer-shard", [st, return_before_read] {
    for (int attempt = 0; attempt < 6; ++attempt) {
      RecycledBuffer* buffer = nullptr;
      if (!st->frames.pop(buffer)) continue;
      bool returned = false;
      // The seeded bug: hand the buffer back before delivering its frame.
      if (return_before_read) returned = st->spares.push(buffer);
      st->delivered.push_back(buffer->bytes);  // deliver_remote's view
      if (!return_before_read) returned = st->spares.push(buffer);
      if (!returned) {
        ++st->freed_on_full_spares;
        buffer->bytes = -1;  // freed
      }
    }
  });
  m.after([st, coverage] {
    RecycledBuffer* buffer = nullptr;
    while (st->frames.pop(buffer)) st->delivered.push_back(buffer->bytes);
    const int dropped = static_cast<int>(st->frames.dropped());
    mc::check(static_cast<int>(st->delivered.size()) + dropped == kFrames,
              "every frame is delivered once or dropped on a full ring");
    int previous = 0;
    for (int got : st->delivered) {
      mc::check(got > previous,
                "each delivery reads its own frame, in FIFO order");
      previous = got;
    }
    mc::check(st->spares.dropped() ==
                  static_cast<std::uint64_t>(st->freed_on_full_spares),
              "a buffer is freed only when the spare ring is full");
    coverage->wire_full += dropped > 0 ? 1 : 0;
    coverage->spares_full += st->freed_on_full_spares > 0 ? 1 : 0;
    coverage->reused += st->reused > 0 ? 1 : 0;
  });
}

TEST(ModelCheckSharded, RecycledWireBuffersRoundTripRaceFree) {
  RecycleCoverage coverage;
  mc::Options opts;
  opts.preemption_bound = 4;
  opts.max_executions = 120000;
  const mc::Result result = mc::explore(opts, [&](mc::Model& m) {
    recycle_harness(m, &coverage, /*return_before_read=*/false);
  });
  ASSERT_TRUE(result.ok()) << result.violation->format();
  EXPECT_GE(result.executions, kMinExecutions) << result.summary();
  // The explored space covers the full-ring paths of both rings and the
  // reuse of a returned buffer, not just the happy path.
  EXPECT_GT(coverage.wire_full, 0u);
  EXPECT_GT(coverage.spares_full, 0u);
  EXPECT_GT(coverage.reused, 0u);
}

TEST(ModelCheckSharded, ReturningABufferBeforeReadingItIsARace) {
  RecycleCoverage coverage;
  mc::Options opts;
  opts.quiet = true;
  opts.preemption_bound = 3;
  const mc::Result result = mc::explore(opts, [&](mc::Model& m) {
    recycle_harness(m, &coverage, /*return_before_read=*/true);
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violation->kind, "data_race");
  ASSERT_NE(result.violation->token.find("mc1:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Harness 4: metrics — a hot-path writer racing the cross-shard snapshot
// reader that merge_snapshots/the tail gate rely on.
// ---------------------------------------------------------------------------

void metrics_harness(mc::Model& m) {
  using ModelHistogram = BasicHistogram<mc::ModelConcurrency>;
  auto hist = std::make_shared<ModelHistogram>();
  m.thread("hot-path", [hist] {
    hist->record(1);
    hist->record(3);
  });
  m.thread("scraper", [hist] {
    // The cross-shard read path: the summary words plus the by-value bucket
    // snapshot, what the Tracer tail gate and merge_snapshots consume.
    const std::uint64_t count = hist->count();
    const ModelHistogram::Buckets buckets = hist->buckets();
    std::uint64_t in_buckets = 0;
    for (std::uint64_t b : buckets) in_buckets += b;
    mc::check(in_buckets <= 2, "snapshot never overcounts");
    mc::check(count <= 2, "count never exceeds the writes issued");
    // record() bumps the bucket before the count, and this reader read the
    // count first: under the model's sequentially consistent interleavings
    // every counted record is already in the buckets. (The real relaxed
    // hot path only promises per-location coherence; the merge path
    // tolerates mid-record skew — see the metrics.h file comment.)
    mc::check(in_buckets >= count, "counted records have their bucket");
    // Mid-record reads may catch min_ still at its sentinel (count is
    // bumped before min): the documented "reader may observe a histogram
    // mid-record" contract, which the model proves is the *only* skew.
    const std::uint64_t min = hist->min();
    const std::uint64_t max = hist->max();
    mc::check(min == 0 || min == 1 ||
                  min == std::numeric_limits<std::uint64_t>::max(),
              "min is unset, the sentinel mid-record, or the true min");
    mc::check(max == 0 || max == 1 || max == 3,
              "max only takes recorded values");
    // The percentile walk must stay total on any torn snapshot.
    (void)ModelHistogram::percentile_from(buckets, count, min, max, 99.0);
  });
  m.after([hist] {
    mc::check(hist->count() == 2, "quiescent count is exact");
    mc::check(hist->sum() == 4, "quiescent sum is exact");
    mc::check(hist->min() == 1 && hist->max() == 3,
              "quiescent extremes are exact");
    const ModelHistogram::Buckets buckets = hist->buckets();
    std::uint64_t in_buckets = 0;
    for (std::uint64_t b : buckets) in_buckets += b;
    mc::check(in_buckets == 2, "quiescent bucket sum matches count");
    mc::check(hist->percentile(99.0) == 3, "quiescent p99 is the max");
  });
}

TEST(ModelCheckMetrics, SnapshotReaderVsHotPathWriterStaysConsistent) {
  mc::Options opts;
  opts.preemption_bound = 3;
  opts.max_executions = 16000;
  const mc::Result result = mc::explore(opts, metrics_harness);
  ASSERT_TRUE(result.ok()) << result.violation->format();
  EXPECT_GE(result.executions, kMinExecutions) << result.summary();
}

// ---------------------------------------------------------------------------
// Engine self-checks: the detectors themselves.
// ---------------------------------------------------------------------------

TEST(ModelCheckEngine, FailedInvariantReportsScheduleAndReplays) {
  mc::Options opts;
  opts.quiet = true;
  const mc::Result result = mc::explore(opts, [](mc::Model& m) {
    auto flag = std::make_shared<mc::Atomic<int>>(0);
    m.thread("a", [flag] { flag->store(1, std::memory_order_release); });
    m.thread("b", [flag] {
      mc::check(flag->load(std::memory_order_acquire) == 0,
                "b expects to run before a");
    });
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violation->kind, "check");
  EXPECT_FALSE(result.violation->trace.empty());
  EXPECT_NE(result.violation->format().find("replay token"),
            std::string::npos);
}

TEST(ModelCheckEngine, AbBaLockOrderIsReportedAsDeadlock) {
  mc::Options opts;
  opts.quiet = true;
  const mc::Result result = mc::explore(opts, [](mc::Model& m) {
    auto a = std::make_shared<mc::Mutex>();
    auto b = std::make_shared<mc::Mutex>();
    m.thread("ab", [a, b] {
      a->lock();
      b->lock();
      b->unlock();
      a->unlock();
    });
    m.thread("ba", [a, b] {
      b->lock();
      a->lock();
      a->unlock();
      b->unlock();
    });
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violation->kind, "deadlock");
}

TEST(ModelCheckEngine, UnsynchronizedSharedWriteIsADataRace) {
  mc::Options opts;
  opts.quiet = true;
  const mc::Result result = mc::explore(opts, [](mc::Model& m) {
    auto shared = std::make_shared<mc::Raced<int>>(0);
    m.thread("w1", [shared] { *shared = 1; });
    m.thread("w2", [shared] { *shared = 2; });
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violation->kind, "data_race");
}

TEST(ModelCheckEngine, ReleaseAcquireHandoffIsNotARace) {
  const mc::Result result = mc::explore({}, [](mc::Model& m) {
    struct State {
      mc::Raced<int> payload{0};
      mc::Atomic<int> ready{0};
    };
    auto st = std::make_shared<State>();
    m.thread("producer", [st] {
      st->payload = 42;
      st->ready.store(1, std::memory_order_release);
    });
    m.thread("consumer", [st] {
      if (st->ready.load(std::memory_order_acquire) == 1) {
        mc::check(st->payload == 42, "published payload is visible");
      }
    });
  });
  ASSERT_TRUE(result.ok()) << result.violation->format();
  EXPECT_TRUE(result.exhausted);
}

}  // namespace
