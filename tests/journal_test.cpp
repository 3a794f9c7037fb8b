// Crash-safety tests for the event-sourced JournalStore (DESIGN.md §14).
//
// The centerpiece is the kill-point matrix: a reference journal is truncated
// at EVERY byte offset — every record boundary and every mid-record point —
// and recovery must reproduce exactly the committed state as of the last
// fully-written record, never a torn or invented one. A snapshot+tail
// variant runs the same matrix with a compaction in the middle.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/journal.h"
#include "core/testbed.h"
#include "util/json.h"

namespace rnl::core {
namespace {

using util::Duration;
using util::Json;

class TempDir {
 public:
  TempDir() {
    std::string pattern =
        std::filesystem::temp_directory_path() / "rnl-journal-XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    path_ = mkdtemp(buffer.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

JournalStore::Options no_fsync() {
  JournalStore::Options options;
  options.fsync = false;
  return options;
}

std::map<std::string, Json> dump(const JournalStore& store) {
  std::map<std::string, Json> out;
  for (const auto& key : store.keys("")) out.emplace(key, *store.get(key));
  return out;
}

/// One scripted kv mutation plus the full expected state after it commits.
struct Step {
  std::function<void(JournalStore&)> mutate;
  std::map<std::string, Json> expected_after;
};

/// Issues a put/remove script against `store`, recording the expected state
/// after every step. Returns the per-step expectations (index 0 = state
/// after zero steps, i.e. empty or the inherited snapshot state).
std::vector<std::map<std::string, Json>> run_script(JournalStore& store) {
  std::vector<std::map<std::string, Json>> after;
  std::map<std::string, Json> state = dump(store);
  after.push_back(state);
  auto put = [&](const std::string& key, Json value) {
    EXPECT_TRUE(store.put(key, value).ok());
    state.erase(key);
    state.emplace(key, value);
    after.push_back(state);
  };
  auto remove = [&](const std::string& key) {
    EXPECT_TRUE(store.remove(key).ok());
    state.erase(key);
    after.push_back(state);
  };
  put("design/alice/a", Json("v1"));
  put("design/bob/b", Json(7));
  Json nested = Json::object();
  nested.set("routers", 3);
  nested.set("label", "core-lab");
  put("design/alice/a", nested);  // overwrite
  remove("design/bob/b");
  put("config/r1", Json("hostname r1"));
  put("epoch/us-west", Json(12));
  remove("design/alice/a");
  put("design/carol/c", Json(true));
  return after;
}

/// Record boundaries (cumulative byte offsets) of a journal image — offset 0
/// plus the end of every well-framed record.
std::vector<std::size_t> record_boundaries(std::string_view image) {
  std::vector<std::size_t> bounds{0};
  Journal::ScanResult scanned = Journal::scan(image);
  std::size_t offset = 0;
  for (const auto& record : scanned.records) {
    offset += Journal::kHeaderBytes + record.payload.size();
    bounds.push_back(offset);
  }
  return bounds;
}

TEST(JournalKillPoints, EveryTruncationYieldsExactlyCommittedState) {
  TempDir ref;
  std::vector<std::map<std::string, Json>> expected;
  {
    JournalStore store(ref.path(), nullptr, no_fsync());
    expected = run_script(store);
  }
  const std::string image = read_file(ref.path() + "/journal.log");
  const std::vector<std::size_t> bounds = record_boundaries(image);
  ASSERT_EQ(bounds.size(), expected.size());  // one record per step
  ASSERT_EQ(bounds.back(), image.size());     // clean reference log

  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    // The crash committed every record that fits entirely below `cut`.
    std::size_t committed = 0;
    while (committed + 1 < bounds.size() && bounds[committed + 1] <= cut) {
      ++committed;
    }
    const bool mid_record = cut != bounds[committed];

    TempDir crash;
    write_file(crash.path() + "/journal.log", image.substr(0, cut));
    JournalStore recovered(crash.path(), nullptr, no_fsync());
    EXPECT_EQ(dump(recovered), expected[committed])
        << "truncated at byte " << cut << " (" << committed
        << " records committed)";
    EXPECT_EQ(recovered.stats().records_replayed, committed)
        << "at byte " << cut;
    EXPECT_EQ(recovered.stats().torn_tail_truncations, mid_record ? 1u : 0u)
        << "at byte " << cut;
    EXPECT_EQ(recovered.stats().quarantined_records, 0u) << "at byte " << cut;
  }
}

TEST(JournalKillPoints, SnapshotPlusTailMatrix) {
  TempDir ref;
  std::vector<std::map<std::string, Json>> expected;
  std::map<std::string, Json> snapshot_state;
  {
    JournalStore store(ref.path(), nullptr, no_fsync());
    ASSERT_TRUE(store.put("base/one", Json(1)).ok());
    ASSERT_TRUE(store.put("base/two", Json(2)).ok());
    ASSERT_TRUE(store.compact().ok());  // journal truncated, snapshot holds
    snapshot_state = dump(store);
    expected = run_script(store);  // tail records on top of the snapshot
  }
  const std::string image = read_file(ref.path() + "/journal.log");
  const std::string snapshot = read_file(ref.path() + "/snapshot.json");
  const std::vector<std::size_t> bounds = record_boundaries(image);
  ASSERT_EQ(bounds.size(), expected.size());
  ASSERT_EQ(expected.front(), snapshot_state);

  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    std::size_t committed = 0;
    while (committed + 1 < bounds.size() && bounds[committed + 1] <= cut) {
      ++committed;
    }
    TempDir crash;
    write_file(crash.path() + "/snapshot.json", snapshot);
    write_file(crash.path() + "/journal.log", image.substr(0, cut));
    JournalStore recovered(crash.path(), nullptr, no_fsync());
    EXPECT_EQ(dump(recovered), expected[committed])
        << "tail truncated at byte " << cut;
    EXPECT_EQ(recovered.stats().snapshot_loads, 1u);
  }
}

TEST(JournalKillPoints, CrashBetweenSnapshotAndTruncateSkipsStaleRecords) {
  // A crash after the snapshot rename but before the journal truncate
  // leaves the whole pre-compaction log behind; its records all carry
  // seq <= snapshot seq and must be skipped, not replayed twice.
  TempDir ref;
  std::string pre_compact_log;
  std::map<std::string, Json> final_state;
  {
    JournalStore store(ref.path(), nullptr, no_fsync());
    ASSERT_TRUE(store.put("k", Json(1)).ok());
    ASSERT_TRUE(store.remove("k").ok());
    ASSERT_TRUE(store.put("k", Json(3)).ok());
    pre_compact_log = read_file(store.journal_path());
    ASSERT_TRUE(store.compact().ok());
    final_state = dump(store);
  }
  // Restore the stale journal next to the fresh snapshot.
  write_file(ref.path() + "/journal.log", pre_compact_log);
  JournalStore recovered(ref.path(), nullptr, no_fsync());
  EXPECT_EQ(dump(recovered), final_state);
  EXPECT_EQ(recovered.stats().stale_records_skipped, 3u);
  EXPECT_EQ(recovered.stats().records_replayed, 0u);
  // The stale log was rewritten away: a third open sees a clean world.
  JournalStore again(ref.path(), nullptr, no_fsync());
  EXPECT_EQ(again.stats().stale_records_skipped, 0u);
  EXPECT_EQ(dump(again), final_state);
}

TEST(JournalRecovery, CorruptRecordIsQuarantinedNotFatal) {
  TempDir dir;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    ASSERT_TRUE(store.put("a", Json(1)).ok());
    ASSERT_TRUE(store.put("b", Json(2)).ok());
    ASSERT_TRUE(store.put("c", Json(3)).ok());
  }
  // Flip one payload byte of the middle record: framing stays plausible,
  // the checksum does not.
  std::string image = read_file(dir.path() + "/journal.log");
  const std::vector<std::size_t> bounds = record_boundaries(image);
  ASSERT_EQ(bounds.size(), 4u);
  image[bounds[1] + Journal::kHeaderBytes + 2] ^= 0x40;
  write_file(dir.path() + "/journal.log", image);

  std::map<std::string, Json> state;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    EXPECT_EQ(store.stats().quarantined_records, 1u);
    EXPECT_EQ(store.stats().records_replayed, 2u);  // a and c survive
    EXPECT_TRUE(store.contains("a"));
    EXPECT_FALSE(store.contains("b"));
    EXPECT_TRUE(store.contains("c"));
    state = dump(store);
    // The refused bytes are preserved, not silently dropped.
    EXPECT_FALSE(read_file(store.quarantine_path()).empty());
    EXPECT_EQ(store.stats().journal_rewrites, 1u);
  }
  // Idempotent: the damage was rewritten away on the first recovery.
  JournalStore again(dir.path(), nullptr, no_fsync());
  EXPECT_EQ(again.stats().quarantined_records, 0u);
  EXPECT_EQ(again.stats().torn_tail_truncations, 0u);
  EXPECT_EQ(dump(again), state);
}

TEST(JournalRecovery, RecoveryIsIdempotentAfterTornTail) {
  TempDir dir;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    ASSERT_TRUE(store.put("k", Json("durable")).ok());
  }
  {
    const char torn[] = {0x00, 0x00, 0x00, 0x2a, '\xde', '\xad'};
    std::ofstream out(dir.path() + "/journal.log",
                      std::ios::binary | std::ios::app);
    out.write(torn, sizeof torn);  // EOF inside a header
  }
  std::map<std::string, Json> state;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    EXPECT_EQ(store.stats().torn_tail_truncations, 1u);
    state = dump(store);
  }
  JournalStore again(dir.path(), nullptr, no_fsync());
  EXPECT_EQ(again.stats().torn_tail_truncations, 0u);
  EXPECT_EQ(again.stats().quarantined_records, 0u);
  EXPECT_EQ(dump(again), state);
}

TEST(JournalStreams, RegisteredStreamReplaysSnapshotThenTail) {
  TempDir dir;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    std::map<std::string, std::int64_t> epochs;
    const auto registration = store.register_stream(
        "epochs",
        JournalStore::StreamHooks{
            [&] {
              Json state = Json::object();
              for (const auto& [site, next] : epochs) state.set(site, next);
              return state;
            },
            [&](const Json& state) {
              epochs.clear();
              for (const auto& [site, next] : state.as_object()) {
                epochs[site] = next.as_int();
              }
            },
            [&](const Json& event) {
              epochs[event["site"].as_string()] = event["next"].as_int();
            },
        });
    auto record = [&](const std::string& site, int next) {
      epochs[site] = next;
      Json event = Json::object();
      event.set("site", site);
      event.set("next", next);
      ASSERT_TRUE(store.append("epochs", event).ok());
    };
    record("us-west", 2);
    record("eu-central", 5);
    ASSERT_TRUE(store.compact().ok());  // stream state enters the snapshot
    record("us-west", 3);               // tail event on top
  }
  std::map<std::string, std::int64_t> recovered;
  JournalStore store(dir.path(), nullptr, no_fsync());
  const auto registration = store.register_stream(
      "epochs",
      JournalStore::StreamHooks{
          [] { return Json::object(); },
          [&](const Json& state) {
            for (const auto& [site, next] : state.as_object()) {
              recovered[site] = next.as_int();
            }
          },
          [&](const Json& event) {
            recovered[event["site"].as_string()] = event["next"].as_int();
          },
      });
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered["us-west"], 3);      // snapshot 2, tail raised to 3
  EXPECT_EQ(recovered["eu-central"], 5);   // from the snapshot
}

TEST(JournalStreams, AutoCompactionKeepsTheLogBounded) {
  TempDir dir;
  auto store = std::make_unique<JournalStore>(dir.path(), nullptr, no_fsync());
  auto log_size = [&] {
    return std::filesystem::file_size(store->journal_path());
  };
  auto log_records = [&] {
    return Journal::scan(read_file(store->journal_path())).records.size();
  };
  const Json small(std::string(1000, 's'));
  // Nothing compacts while the log stays within the floor.
  while (log_size() <= JournalStore::kCompactionFloorBytes) {
    ASSERT_EQ(store->stats().compactions, 0u);
    ASSERT_TRUE(store->put("small", small).ok());
  }
  EXPECT_EQ(store->stats().compactions, 0u);
  // The first append that finds the log past the floor compacts, then
  // starts the fresh log with its own record, which a reopen replays.
  ASSERT_TRUE(store->put("edge", small).ok());
  EXPECT_EQ(store->stats().compactions, 1u);
  EXPECT_EQ(log_records(), 1u);

  // A snapshot larger than the floor raises the bar to its own size, and a
  // reopened store reads that size back from the snapshot it recovers.
  ASSERT_TRUE(store->put("big", Json(std::string(128 * 1024, 'b'))).ok());
  ASSERT_TRUE(store->put("small", small).ok());
  EXPECT_EQ(store->stats().compactions, 2u);
  const std::uintmax_t snapshot =
      std::filesystem::file_size(store->snapshot_path());
  ASSERT_GT(snapshot, JournalStore::kCompactionFloorBytes);
  store = std::make_unique<JournalStore>(dir.path(), nullptr, no_fsync());
  while (log_size() <= snapshot) {
    ASSERT_EQ(store->stats().compactions, 0u);
    ASSERT_TRUE(store->put("small", small).ok());
  }
  EXPECT_EQ(store->stats().compactions, 0u);
  ASSERT_TRUE(store->put("small", small).ok());
  EXPECT_EQ(store->stats().compactions, 1u);
  EXPECT_EQ(log_records(), 1u);

  JournalStore reopened(dir.path(), nullptr, no_fsync());
  EXPECT_TRUE(reopened.get("edge").ok());
  ASSERT_TRUE(reopened.get("big").ok());
  EXPECT_EQ(reopened.get("big")->as_string().size(), 128u * 1024);
}

TEST(JournalPersistence, ReservationsSurviveServiceRestartViaJournal) {
  TempDir dir;
  ReservationId reservation = 0;
  {
    Testbed bed(1405, wire::NetemProfile::lan());
    auto& site = bed.add_site("hq");
    bed.add_host(site, "h1");
    bed.add_host(site, "h2");
    bed.join_all();
    JournalStore store(dir.path(), nullptr, no_fsync());
    bed.service().attach_store(&store);
    DesignId id = bed.service().create_design("alice", "journaled");
    ASSERT_TRUE(bed.service().design(id)->add_router(bed.router_id("hq/h1")).ok());
    ASSERT_TRUE(bed.service().design(id)->add_router(bed.router_id("hq/h2")).ok());
    auto reserved = bed.service().reserve(id, bed.net().now(),
                                          bed.net().now() + Duration::hours(2));
    ASSERT_TRUE(reserved.ok()) << reserved.error();
    reservation = *reserved;
    bed.service().attach_store(nullptr);  // detach before the store dies
  }
  // A brand-new world recovers the calendar from the journal alone.
  Testbed bed2(1406, wire::NetemProfile::lan());
  auto& site2 = bed2.add_site("hq");
  bed2.add_host(site2, "h1");
  bed2.add_host(site2, "h2");
  bed2.join_all();
  JournalStore store2(dir.path(), nullptr, no_fsync());
  bed2.service().attach_store(&store2);
  auto restored = bed2.service().calendar().get(reservation);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->user, "alice");
  EXPECT_EQ(restored->routers.size(), 2u);
  EXPECT_FALSE(restored->cancelled);
  // And the restored calendar still admits/serves mutations that journal.
  ASSERT_TRUE(bed2.service().calendar().cancel(reservation).ok());
  EXPECT_GE(store2.stats().events_appended, 1u);
  bed2.service().attach_store(nullptr);
}

TEST(JournalPersistence, DetachedServiceLeavesItsReservationsToTheNext) {
  TempDir dir;
  JournalStore store(dir.path(), nullptr, no_fsync());
  ReservationId reservation = 0;
  {
    Testbed bed(1407, wire::NetemProfile::lan());
    auto& site = bed.add_site("hq");
    bed.add_host(site, "h1");
    bed.join_all();
    bed.service().attach_store(&store);
    DesignId id = bed.service().create_design("alice", "handed-over");
    ASSERT_TRUE(bed.service().design(id)->add_router(bed.router_id("hq/h1")).ok());
    auto reserved = bed.service().reserve(id, bed.net().now(),
                                          bed.net().now() + Duration::hours(2));
    ASSERT_TRUE(reserved.ok()) << reserved.error();
    reservation = *reserved;
    bed.service().attach_store(nullptr);
  }
  // The service that journaled the reservation is gone: the snapshot must
  // come from the state its detach left behind, not from its calendar.
  ASSERT_TRUE(store.compact().ok());
  Testbed bed2(1408, wire::NetemProfile::lan());
  auto& site2 = bed2.add_site("hq");
  bed2.add_host(site2, "h1");
  bed2.join_all();
  bed2.service().attach_store(&store);
  auto restored = bed2.service().calendar().get(reservation);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->user, "alice");
  EXPECT_EQ(restored->routers.size(), 1u);
  bed2.service().attach_store(nullptr);
}

TEST(JournalStreams, ReleasedStreamKeepsItsStateForTheNextRegistration) {
  TempDir dir;
  JournalStore::StreamRegistration outlives_store;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    auto first = store.register_stream(
        "epochs", JournalStore::StreamHooks{
                      [] {
                        Json state = Json::object();
                        state.set("us-west", 4);
                        return state;
                      },
                      nullptr, nullptr});
    first.reset();  // freezes {"us-west": 4}; the hooks are never called again
    ASSERT_TRUE(store.compact().ok());
    std::int64_t restored = 0;
    outlives_store = store.register_stream(
        "epochs", JournalStore::StreamHooks{
                      [] { return Json::object(); },
                      [&](const Json& state) {
                        restored = state["us-west"].as_int();
                      },
                      nullptr});
    EXPECT_EQ(restored, 4);
  }
  outlives_store.reset();  // the store died first: nothing to release
  JournalStore reopened(dir.path(), nullptr, no_fsync());
  std::int64_t recovered = 0;
  const auto registration = reopened.register_stream(
      "epochs", JournalStore::StreamHooks{
                    [] { return Json::object(); },
                    [&](const Json& state) {
                      recovered = state["us-west"].as_int();
                    },
                    nullptr});
  EXPECT_EQ(recovered, 4);  // from the snapshot the released state entered
}

TEST(JournalStore, KvInterfaceListsSortedKeysAndRejectsHostileOnes) {
  TempDir dir;
  JournalStore store(dir.path(), nullptr, no_fsync());
  EXPECT_FALSE(store.get("missing").ok());
  for (const char* key :
       {"", "..", "a/../b", "a//b", "a/./b", "a b", "a\\b", "key\n",
        "../escape"}) {
    EXPECT_FALSE(store.put(key, Json(1)).ok()) << key;
    EXPECT_FALSE(store.get(key).ok()) << key;
  }
  EXPECT_TRUE(JournalStore::valid_key("design/alice/my-lab_v2.1"));
  ASSERT_TRUE(store.put("design/bob/b", Json(1)).ok());
  ASSERT_TRUE(store.put("design/alice/a2", Json(2)).ok());
  ASSERT_TRUE(store.put("design/alice/a1", Json(3)).ok());
  ASSERT_TRUE(store.put("config/z", Json(4)).ok());
  EXPECT_EQ(store.keys("design"),
            (std::vector<std::string>{"design/alice/a1", "design/alice/a2",
                                      "design/bob/b"}));
  EXPECT_EQ(store.keys("design/alice").size(), 2u);
  EXPECT_TRUE(store.keys("nothing").empty());
  EXPECT_TRUE(store.remove("design/alice/a1").ok());
  EXPECT_FALSE(store.remove("design/alice/a1").ok());  // already gone
  EXPECT_FALSE(store.contains("design/alice/a1"));
  EXPECT_FALSE(store.get("design/alice/a1").ok());
}

TEST(JournalStore, RefusesDocumentsTheSnapshotCouldNotReadBack) {
  // A snapshot nests each kv document and each pending stream event four
  // levels deep, so recovery parses it back only if the document itself is
  // at most Json::kMaxDepth - 4 deep.
  auto nested = [](int depth) {
    Json doc(1);
    for (int i = 0; i < depth; ++i) doc = Json(util::JsonArray{doc});
    return doc;
  };
  const int deepest = JournalStore::kMaxDocumentDepth;
  ASSERT_EQ(deepest, Json::kMaxDepth - 4);
  const Json shallow = *Json::parse(
      R"({"site":"hq","routers":[{"name":"r1","ports":[1,2,3]}]})");
  TempDir dir;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    EXPECT_FALSE(store.put("deep", nested(Json::kMaxDepth)).ok());
    EXPECT_FALSE(store.put("deep", nested(deepest + 1)).ok());
    EXPECT_FALSE(store.append("events", nested(deepest + 1)).ok());
    EXPECT_EQ(store.stats().events_appended, 0u);  // journaled nothing
    ASSERT_TRUE(store.put("edge", nested(deepest)).ok());
    ASSERT_TRUE(store.put("shallow", shallow).ok());
    ASSERT_TRUE(store.append("events", nested(deepest)).ok());
  }
  {
    // Recovery holds the event as the stream's pending tail; the snapshot
    // carries it forward beside the kv documents.
    JournalStore store(dir.path(), nullptr, no_fsync());
    ASSERT_TRUE(store.compact().ok());
  }
  JournalStore store(dir.path(), nullptr, no_fsync());
  EXPECT_EQ(store.stats().quarantined_records, 0u);
  EXPECT_EQ(store.stats().snapshot_loads, 1u);
  EXPECT_FALSE(store.contains("deep"));
  auto edge = store.get("edge");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(*edge, nested(deepest));
  auto back = store.get("shallow");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, shallow);
  std::vector<Json> events;
  JournalStore::StreamHooks hooks;
  hooks.apply = [&](const Json& event) { events.push_back(event); };
  auto registration = store.register_stream("events", hooks);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], nested(deepest));
}

TEST(JournalStreams, CompactionRefusesAStreamStateRecoveryCouldNotParse) {
  // A snapshot nests each stream's state three levels deep, so recovery
  // parses it back only if the state is at most Json::kMaxDepth - 3 deep.
  // A deeper one would lose the whole snapshot, kv documents included.
  auto nested = [](int depth) {
    Json doc(1);
    for (int i = 0; i < depth; ++i) doc = Json(util::JsonArray{doc});
    return doc;
  };
  const Json shallow = *Json::parse(R"({"site":"hq","ports":[1,2,3]})");
  TempDir dir;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    ASSERT_TRUE(store.put("shallow", shallow).ok());
    int depth = Json::kMaxDepth - 3;
    const auto registration = store.register_stream(
        "deep", JournalStore::StreamHooks{[&] { return nested(depth); },
                                          nullptr, nullptr});
    ASSERT_TRUE(store.compact().ok());  // the deepest state that reads back
    depth = Json::kMaxDepth - 2;
    const util::Status refused = store.compact();
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.error().find("'deep'"), std::string::npos)
        << refused.error();
    EXPECT_EQ(store.stats().compactions, 1u);
    // An append that must compact first fails with the compaction.
    const Json big(std::string(2 * JournalStore::kCompactionFloorBytes, 'b'));
    ASSERT_TRUE(store.put("big", big).ok());
    EXPECT_FALSE(store.put("later", shallow).ok());
    EXPECT_FALSE(store.contains("later"));
  }
  JournalStore store(dir.path(), nullptr, no_fsync());
  EXPECT_EQ(store.stats().quarantined_records, 0u);
  EXPECT_EQ(store.stats().snapshot_loads, 1u);
  auto back = store.get("shallow");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, shallow);
  EXPECT_TRUE(store.contains("big"));
  EXPECT_FALSE(store.contains("later"));
}

TEST(JournalStreams, EventsForAnUnregisteredStreamSurviveCompaction) {
  Json event = Json::object();
  event.set("site", "us-west");
  event.set("next", 2);
  TempDir dir;
  {
    JournalStore store(dir.path(), nullptr, no_fsync());
    ASSERT_TRUE(store.append("orphan", event).ok());
    ASSERT_TRUE(store.compact().ok());  // truncates the log holding it
  }
  JournalStore store(dir.path(), nullptr, no_fsync());
  std::vector<Json> replayed;
  const auto registration = store.register_stream(
      "orphan",
      JournalStore::StreamHooks{
          [] { return Json::object(); }, nullptr,
          [&](const Json& tail) { replayed.push_back(tail); }});
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], event);
}

}  // namespace
}  // namespace rnl::core
