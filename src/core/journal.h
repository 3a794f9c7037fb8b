#pragma once

// Event-sourced crash-safe store (DESIGN.md §14).
//
// The service plane's durable state (§2.1: designs and archived configs
// live on the web server; plus the reservation calendar and route-server
// epochs) is small but mutates under churn: thousands of sites reserving,
// deploying, and rejoining. Rewriting whole documents per mutation is both
// slow and torn-write prone; the JournalStore instead appends one
// checksummed record per mutation to a write-ahead journal and compacts the
// log into a snapshot (temp-file + rename + fsync) once the log outgrows the
// last snapshot.
//
// Record wire format (big-endian, like every RNL wire), one per mutation:
//
//   [u32 payload_len][u32 crc32(seq || payload)][u64 seq][payload bytes]
//
// `payload` is a JSON document `{"s": <stream>, "e": <event>}`. `seq` is a
// monotonically increasing store-wide sequence number; records whose seq is
// <= the snapshot's seq are skipped on replay (they were compacted away, or
// a crash interrupted the post-snapshot truncate).
//
// Recovery invariants:
//   - A torn tail (EOF inside a header or payload, or an implausible
//     length) is truncated; everything before it replays. One truncation
//     per recovery is counted in `store.torn_tail_truncations`.
//   - A record with plausible framing but a bad checksum or unparseable
//     payload is quarantined (raw bytes appended to quarantine.log), not
//     aborted on; replay continues at the next record.
//   - Recovery is idempotent: when damage was found, the journal is
//     rewritten clean (temp + rename + fsync), so recovering again reports
//     zero anomalies and reproduces the same state.
//
// Beyond its key/value documents (an internal "kv" stream), callers
// register named event streams with three hooks — a `state` reducer used at
// compaction, `restore` for snapshot state, `apply` for tail events — so
// components like the reservation calendar journal mutations instead of
// serializing themselves wholesale on every change. A stream stays
// registered while its StreamRegistration lives.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/result.h"

namespace rnl::core {

/// Ledger of everything the journal has seen; exposed as `store.*` probes.
struct JournalStats {
  std::uint64_t recoveries = 0;          // opens that found prior state
  std::uint64_t torn_tail_truncations = 0;
  std::uint64_t quarantined_records = 0;
  std::uint64_t stale_records_skipped = 0;
  std::uint64_t records_replayed = 0;    // good records applied at recovery
  std::uint64_t events_appended = 0;
  std::uint64_t compactions = 0;
  std::uint64_t snapshot_loads = 0;
  std::uint64_t journal_rewrites = 0;    // recovery rewrote a damaged log
};

/// The low-level record log: framing, checksums, and the tolerant scan.
/// JSON-agnostic — payload bytes are opaque here. Exposed for the recovery
/// tests and the fuzz harness, which feed it adversarial bytes directly.
class Journal {
 public:
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::uint32_t kMaxPayloadBytes = 4u << 20;  // 4 MiB

  struct Record {
    std::uint64_t seq = 0;
    std::string payload;
  };

  struct ScanResult {
    std::vector<Record> records;     // good records, in file order
    std::size_t torn_tail_bytes = 0; // bytes dropped at EOF (0 = clean end)
    /// Raw spans of records skipped for bad checksum — preserved so the
    /// store can quarantine them instead of silently losing bytes.
    std::vector<std::string> quarantined;

    [[nodiscard]] bool damaged() const {
      return torn_tail_bytes > 0 || !quarantined.empty();
    }
  };

  /// One encoded record, ready to append.
  [[nodiscard]] static std::string encode(std::uint64_t seq,
                                          std::string_view payload);

  /// Scans a whole journal image. Never throws on garbage: framing that
  /// runs past EOF (or an implausible length) ends the scan as a torn
  /// tail; checksum mismatches are quarantined and skipped.
  [[nodiscard]] static ScanResult scan(std::string_view bytes);
};

/// Event-sourced store rooted at a directory:
///   root/journal.log     — the write-ahead record log
///   root/snapshot.json   — last compaction ({"seq": N, "streams": {...}})
///   root/quarantine.log  — raw bytes of records recovery refused to apply
/// Keys look like "design/alice/failover-lab"; each '/'-separated segment
/// is restricted to a safe character set (valid_key).
class JournalStore {
 public:
  struct Options {
    /// fsync each append and snapshot. Tests and the simulated soak can
    /// turn this off; production keeps it on.
    bool fsync = true;
  };

  /// An append compacts first when the log holds more bytes than the last
  /// snapshot and more than this floor. Each snapshot byte is then paid
  /// for by at least one logged byte, so compaction costs amortized O(1)
  /// per appended byte however large the state grows.
  static constexpr std::uint64_t kCompactionFloorBytes = 64 * 1024;

  struct StreamHooks {
    /// Full current state, reduced for the snapshot.
    std::function<util::Json()> state;
    /// Replace in-memory state with snapshot state.
    std::function<void(const util::Json&)> restore;
    /// Apply one journal tail event on top of the restored state.
    std::function<void(const util::Json&)> apply;
  };

  /// Opens (creating if missing) and recovers: snapshot, then journal
  /// tail. `metrics` may be null. Recovery problems never throw — damage
  /// is truncated/quarantined and counted in stats(). (Two overloads
  /// instead of `Options options = {}`: GCC refuses a nested aggregate's
  /// NSDMIs in the enclosing class's default arguments.)
  explicit JournalStore(std::string root,
                        util::MetricsRegistry* metrics = nullptr);
  JournalStore(std::string root, util::MetricsRegistry* metrics,
               Options options);
  ~JournalStore();

  JournalStore(const JournalStore&) = delete;
  JournalStore& operator=(const JournalStore&) = delete;

  /// The deepest document put() and append() take. A snapshot nests each
  /// kv document, and each event of a stream's pending tail, four levels
  /// deep ({"streams":{"kv":{"state":{key: doc}}}}), and recovery parses it
  /// back only within util::Json::kMaxDepth.
  static constexpr int kMaxDocumentDepth = util::Json::kMaxDepth - 4;

  // Key/value documents — the journal's internal "kv" stream.
  util::Status put(const std::string& key, const util::Json& value);
  [[nodiscard]] util::Result<util::Json> get(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  util::Status remove(const std::string& key);
  /// All keys under `prefix` (e.g. "design/alice"), sorted.
  [[nodiscard]] std::vector<std::string> keys(const std::string& prefix) const;

  /// True iff every '/'-separated segment is non-empty and uses only
  /// [A-Za-z0-9._-] (and '.' segments like ".." are rejected outright).
  static bool valid_key(const std::string& key);

  /// Keeps one stream's hooks registered while it lives (move-only).
  /// Destroying or reset()ting it releases the stream: the store freezes
  /// the stream's current state() as if recovered but not yet registered,
  /// so the next snapshot and the next register_stream still carry it and
  /// the hooks are never called again. Safe to destroy before or after the
  /// store: once the store is gone, releasing does nothing.
  class StreamRegistration {
   public:
    StreamRegistration() = default;
    StreamRegistration(const StreamRegistration&) = delete;
    StreamRegistration& operator=(const StreamRegistration&) = delete;
    StreamRegistration(StreamRegistration&& other) noexcept;
    StreamRegistration& operator=(StreamRegistration&& other) noexcept;
    ~StreamRegistration() { reset(); }
    /// Release now (no-op if empty or the store already died).
    void reset();

   private:
    friend class JournalStore;
    StreamRegistration(std::shared_ptr<JournalStore*> store, std::string name,
                       std::uint64_t id)
        : store_(std::move(store)), name_(std::move(name)), id_(id) {}

    std::shared_ptr<JournalStore*> store_;
    std::string name_;
    std::uint64_t id_ = 0;
  };

  /// Registers an event stream. If recovery already replayed state for
  /// this stream (snapshot and/or tail events), or a released registration
  /// froze it, the hooks are fed it immediately: restore(snapshot) then
  /// apply(event) per tail event. A second registration of the same name
  /// replaces the first, whose release then does nothing.
  [[nodiscard]] StreamRegistration register_stream(const std::string& name,
                                                   StreamHooks hooks);

  /// Journals one event for `stream`. The caller's in-memory state is the
  /// source of truth; the event must already have been applied to it.
  /// Fails, journaling nothing, for an event nested too deep to snapshot.
  /// An event for a stream nobody has registered is also kept as that
  /// stream's pending tail, which snapshots carry and the next
  /// register_stream replays.
  util::Status append(const std::string& stream, const util::Json& event);

  /// Writes a snapshot (temp + rename + fsync) and truncates the journal.
  /// Fails, writing nothing, when a stream's state nests deeper than
  /// Json::kMaxDepth - 3, which recovery could not parse back; the error
  /// names the stream. An append that would compact then fails too.
  util::Status compact();

  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t last_sequence() const { return seq_; }
  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string quarantine_path() const;

  /// The kv stream name used in record payloads ("kv").
  static constexpr const char* kKvStream = "kv";

 private:
  struct PendingStream {
    util::Json state;                  // snapshot state (null if none)
    bool has_state = false;
    std::vector<util::Json> tail;      // replayed tail events
  };
  struct RegisteredStream {
    StreamHooks hooks;
    std::uint64_t id = 0;  // which StreamRegistration owns the hooks
  };

  void release_stream(const std::string& name, std::uint64_t id);

  void recover();
  void apply_kv_event(const util::Json& event);
  /// The snapshot document, or an error naming the first stream whose
  /// state nests too deep for recovery to parse back.
  [[nodiscard]] util::Result<util::Json> snapshot_json() const;
  util::Status append_record(const std::string& stream,
                             const util::Json& event);
  util::Status open_log_for_append();
  void quarantine_bytes(const std::string& bytes);
  void register_probes();

  std::string root_;
  util::MetricsRegistry* metrics_ = nullptr;
  Options options_;
  JournalStats stats_;

  std::map<std::string, util::Json> kv_;
  std::map<std::string, RegisteredStream> streams_;
  std::map<std::string, PendingStream> pending_;
  std::uint64_t next_registration_id_ = 1;
  /// Points at this store until it is destroyed; every StreamRegistration
  /// shares it, so a registration that outlives the store sees nullptr.
  std::shared_ptr<JournalStore*> self_ = std::make_shared<JournalStore*>(this);

  std::uint64_t seq_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  /// Size of the last snapshot written or recovered (0: none).
  std::uint64_t snapshot_bytes_ = 0;
  std::uint64_t journal_bytes_ = 0;
  int log_fd_ = -1;
};

}  // namespace rnl::core
