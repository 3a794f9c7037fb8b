#pragma once

// Event-sourced crash-safe store (DESIGN.md §14).
//
// The service plane's durable state (§2.1: designs and archived configs
// live on the web server; plus the reservation calendar and route-server
// epochs) is small but mutates under churn: thousands of sites reserving,
// deploying, and rejoining. Rewriting whole documents per mutation is both
// slow and torn-write prone; the JournalStore instead appends one
// checksummed record per mutation to a write-ahead journal and periodically
// compacts the log into a snapshot written with temp-file + rename + fsync.
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
// serializing themselves wholesale on every change.

#include <cstdint>
#include <functional>
#include <map>
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
    /// Auto-compact after this many appended events (0 = only explicit
    /// compact() calls).
    std::size_t compact_every = 256;
    /// fsync each append and snapshot. Tests and the simulated soak can
    /// turn this off; production keeps it on.
    bool fsync = true;
  };

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

  /// Registers an event stream. If recovery already replayed state for
  /// this stream (snapshot and/or tail events), the hooks are fed it
  /// immediately: restore(snapshot) then apply(event) per tail event.
  void register_stream(const std::string& name, StreamHooks hooks);

  /// Journals one event for `stream`. The caller's in-memory state is the
  /// source of truth; the event must already have been applied to it.
  util::Status append(const std::string& stream, const util::Json& event);

  /// Writes a snapshot (temp + rename + fsync) and truncates the journal.
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

  void recover();
  void apply_kv_event(const util::Json& event);
  [[nodiscard]] util::Json snapshot_json() const;
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
  std::map<std::string, StreamHooks> streams_;
  std::map<std::string, PendingStream> pending_;

  std::uint64_t seq_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  std::size_t appends_since_compact_ = 0;
  std::uint64_t journal_bytes_ = 0;
  int log_fd_ = -1;
};

}  // namespace rnl::core
