#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/fsutil.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/strings.h"

namespace rnl::core {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Journal: framing + tolerant scan

namespace {

/// The deepest stream state a snapshot can carry: recovery parses the
/// snapshot back only within Json::kMaxDepth, and each state sits three
/// levels down ({"streams":{name:{"state":...}}}).
constexpr int kMaxStateDepth = util::Json::kMaxDepth - 3;

/// True when `value` nests at most `depth` levels (a scalar or an empty
/// container nests 0). Descends no deeper than the limit.
bool nests_within(const util::Json& value, int depth) {
  if (depth < 0) return false;
  if (value.is_array()) {
    for (const util::Json& item : value.as_array()) {
      if (!nests_within(item, depth - 1)) return false;
    }
  } else if (value.is_object()) {
    for (const auto& [key, item] : value.as_object()) {
      if (!nests_within(item, depth - 1)) return false;
    }
  }
  return true;
}

std::uint32_t record_crc(std::uint64_t seq, std::string_view payload) {
  util::ByteWriter seq_bytes;
  seq_bytes.u64(seq);
  std::uint32_t crc = util::crc32_update(0, seq_bytes.view());
  return util::crc32_update(
      crc, util::BytesView(reinterpret_cast<const std::uint8_t*>(payload.data()),
                           payload.size()));
}

}  // namespace

std::string Journal::encode(std::uint64_t seq, std::string_view payload) {
  util::ByteWriter w(kHeaderBytes + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(record_crc(seq, payload));
  w.u64(seq);
  w.raw(payload.data(), payload.size());
  return std::string(reinterpret_cast<const char*>(w.view().data()), w.size());
}

Journal::ScanResult Journal::scan(std::string_view bytes) {
  ScanResult out;
  util::BytesView view(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
  std::size_t offset = 0;
  while (offset < view.size()) {
    std::size_t remaining = view.size() - offset;
    if (remaining < kHeaderBytes) {
      out.torn_tail_bytes = remaining;  // EOF inside a header
      break;
    }
    util::ByteReader r(view.subspan(offset, kHeaderBytes));
    std::uint32_t len = r.u32();
    std::uint32_t crc = r.u32();
    std::uint64_t seq = r.u64();
    if (len > kMaxPayloadBytes || kHeaderBytes + std::size_t{len} > remaining) {
      // Either the length field itself is garbage or the payload runs past
      // EOF; we cannot trust the framing from here on. Torn tail.
      out.torn_tail_bytes = remaining;
      break;
    }
    std::string_view payload = bytes.substr(offset + kHeaderBytes, len);
    std::size_t span = kHeaderBytes + std::size_t{len};
    if (record_crc(seq, payload) != crc) {
      out.quarantined.emplace_back(bytes.substr(offset, span));
    } else {
      out.records.push_back(Record{seq, std::string(payload)});
    }
    offset += span;
  }
  return out;
}

// ---------------------------------------------------------------------------
// JournalStore

JournalStore::JournalStore(std::string root, util::MetricsRegistry* metrics)
    : JournalStore(std::move(root), metrics, Options{}) {}

JournalStore::JournalStore(std::string root, util::MetricsRegistry* metrics,
                           Options options)
    : root_(std::move(root)), metrics_(metrics), options_(options) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  recover();
  (void)open_log_for_append();
  register_probes();
}

JournalStore::~JournalStore() {
  *self_ = nullptr;
  if (log_fd_ >= 0) ::close(log_fd_);
  if (metrics_ != nullptr) metrics_->remove_prefix("store.");
}

std::string JournalStore::journal_path() const { return root_ + "/journal.log"; }
std::string JournalStore::snapshot_path() const {
  return root_ + "/snapshot.json";
}
std::string JournalStore::quarantine_path() const {
  return root_ + "/quarantine.log";
}

void JournalStore::register_probes() {
  if (metrics_ == nullptr) return;
  auto expose = [this](const char* name, const std::uint64_t* cell) {
    metrics_->probe_counter(name, [cell] { return *cell; });
  };
  expose("store.recoveries", &stats_.recoveries);
  expose("store.torn_tail_truncations", &stats_.torn_tail_truncations);
  expose("store.quarantined_records", &stats_.quarantined_records);
  expose("store.stale_records_skipped", &stats_.stale_records_skipped);
  expose("store.records_replayed", &stats_.records_replayed);
  expose("store.events_appended", &stats_.events_appended);
  expose("store.compactions", &stats_.compactions);
  expose("store.snapshot_loads", &stats_.snapshot_loads);
  expose("store.journal_rewrites", &stats_.journal_rewrites);
  metrics_->probe_gauge("store.journal_bytes", [this] {
    return static_cast<std::int64_t>(journal_bytes_);
  });
  metrics_->probe_gauge("store.kv_keys", [this] {
    return static_cast<std::int64_t>(kv_.size());
  });
}

void JournalStore::apply_kv_event(const util::Json& event) {
  const std::string& op = event["op"].as_string();
  const std::string& key = event["key"].as_string();
  if (op == "put") {
    kv_[key] = event["value"];
  } else if (op == "rm") {
    kv_.erase(key);
  }
  // Unknown kv ops are ignored: an older binary replaying a newer journal
  // should not abort recovery over an event it cannot interpret.
}

void JournalStore::quarantine_bytes(const std::string& bytes) {
  std::ofstream out(quarantine_path(), std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void JournalStore::recover() {
  bool found_prior_state = false;

  // 1) Snapshot. A snapshot that exists but does not parse is moved aside
  //    (quarantined wholesale) and recovery continues from the journal
  //    alone — losing compacted state is better than refusing to start,
  //    and the .corrupt file preserves the bytes for forensics.
  std::string snapshot_text;
  bool snapshot_found = false;
  if (fsutil::read_file(snapshot_path(), &snapshot_text, &snapshot_found).ok() &&
      snapshot_found) {
    found_prior_state = true;
    util::Result<util::Json> snapshot = util::Json::parse(snapshot_text);
    if (snapshot.ok() && snapshot->is_object()) {
      snapshot_seq_ = static_cast<std::uint64_t>((*snapshot)["seq"].as_int());
      snapshot_bytes_ = snapshot_text.size();
      seq_ = snapshot_seq_;
      const util::Json& streams = (*snapshot)["streams"];
      for (const auto& [name, entry] : streams.as_object()) {
        if (name == kKvStream) {
          for (const auto& [key, value] : entry["state"].as_object()) {
            kv_[key] = value;
          }
          continue;
        }
        PendingStream pending;
        pending.state = entry["state"];
        pending.has_state = true;
        for (const auto& event : entry["tail"].as_array()) {
          pending.tail.push_back(event);
        }
        pending_[name] = std::move(pending);
      }
      ++stats_.snapshot_loads;
    } else {
      std::error_code ec;
      fs::rename(snapshot_path(), snapshot_path() + ".corrupt", ec);
      ++stats_.quarantined_records;
    }
  }

  // 2) Journal tail.
  std::string log_bytes;
  bool log_found = false;
  (void)fsutil::read_file(journal_path(), &log_bytes, &log_found);
  journal_bytes_ = log_bytes.size();
  if (log_found && !log_bytes.empty()) found_prior_state = true;

  Journal::ScanResult scan = Journal::scan(log_bytes);
  bool rewrite = scan.damaged();
  std::vector<Journal::Record> good;
  good.reserve(scan.records.size());
  for (Journal::Record& record : scan.records) {
    if (record.seq <= snapshot_seq_) {
      // Compacted away already (or a crash landed between snapshot write
      // and journal truncate). Expected; drop from the rewritten log.
      ++stats_.stale_records_skipped;
      rewrite = true;
      continue;
    }
    util::Result<util::Json> payload = util::Json::parse(record.payload);
    if (!payload.ok() || !payload->is_object()) {
      // Framing and checksum fine, content rotten: quarantine like a CRC
      // failure — the checksum was computed over these very bytes, so this
      // means the writer itself was sick, not the disk.
      scan.quarantined.push_back(Journal::encode(record.seq, record.payload));
      rewrite = true;
      continue;
    }
    if (record.seq > seq_) seq_ = record.seq;
    const std::string& stream = (*payload)["s"].as_string();
    const util::Json& event = (*payload)["e"];
    if (stream == kKvStream) {
      apply_kv_event(event);
    } else {
      pending_[stream].tail.push_back(event);
    }
    ++stats_.records_replayed;
    good.push_back(std::move(record));
  }

  if (scan.torn_tail_bytes > 0) ++stats_.torn_tail_truncations;
  for (const std::string& bytes : scan.quarantined) {
    quarantine_bytes(bytes);
    ++stats_.quarantined_records;
  }

  // 3) Idempotent repair: when anything was dropped, rewrite the log so the
  //    next recovery of this directory is clean and replays identically.
  if (rewrite) {
    std::string clean;
    for (const Journal::Record& record : good) {
      clean += Journal::encode(record.seq, record.payload);
    }
    if (fsutil::write_file_durable(journal_path(), clean).ok()) {
      journal_bytes_ = clean.size();
      ++stats_.journal_rewrites;
    }
  }

  if (found_prior_state) ++stats_.recoveries;
}

util::Status JournalStore::open_log_for_append() {
  if (log_fd_ >= 0) return util::Status::Ok();
  log_fd_ = ::open(journal_path().c_str(),
                   O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (log_fd_ < 0) {
    return util::Error{"journal: cannot open " + journal_path() + ": " +
                       std::strerror(errno)};
  }
  return util::Status::Ok();
}

util::Status JournalStore::append_record(const std::string& stream,
                                         const util::Json& event) {
  // Compact before logging, while the in-memory state holds exactly the
  // records logged so far: put() and remove() apply their event only after
  // this append returns.
  if (journal_bytes_ > std::max(kCompactionFloorBytes, snapshot_bytes_)) {
    util::Status compacted = compact();
    if (!compacted.ok()) return compacted;
  }
  util::Status open_status = open_log_for_append();
  if (!open_status.ok()) return open_status;
  util::Json payload = util::Json::object();
  payload.set("s", stream);
  payload.set("e", event);
  std::string encoded = Journal::encode(seq_ + 1, payload.dump());
  std::size_t done = 0;
  while (done < encoded.size()) {
    ssize_t n = ::write(log_fd_, encoded.data() + done, encoded.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Error{std::string("journal: append failed: ") +
                         std::strerror(errno)};
    }
    done += static_cast<std::size_t>(n);
  }
  if (options_.fsync && ::fsync(log_fd_) != 0) {
    return util::Error{std::string("journal: fsync failed: ") +
                       std::strerror(errno)};
  }
  ++seq_;
  journal_bytes_ += encoded.size();
  ++stats_.events_appended;
  return util::Status::Ok();
}

util::Result<util::Json> JournalStore::snapshot_json() const {
  auto too_deep = [](const std::string& name) {
    return util::Error{"journal: stream '" + name +
                       "' state nests too deep to snapshot"};
  };
  util::Json streams = util::Json::object();
  {
    util::Json state = util::Json::object();
    for (const auto& [key, value] : kv_) state.set(key, value);
    util::Json entry = util::Json::object();
    entry.set("state", std::move(state));
    entry.set("tail", util::Json::array());
    streams.set(kKvStream, std::move(entry));
  }
  for (const auto& [name, stream] : streams_) {
    const StreamHooks& hooks = stream.hooks;
    util::Json state = hooks.state ? hooks.state() : util::Json();
    if (!nests_within(state, kMaxStateDepth)) return too_deep(name);
    util::Json entry = util::Json::object();
    entry.set("state", std::move(state));
    entry.set("tail", util::Json::array());
    streams.set(name, std::move(entry));
  }
  // Streams not registered in this process (recovered, released, or only
  // appended to): carry their state and pending tail forward verbatim so
  // the next register_stream replays them.
  for (const auto& [name, pending] : pending_) {
    if (streams_.count(name) != 0) continue;
    if (!nests_within(pending.state, kMaxStateDepth)) return too_deep(name);
    util::Json entry = util::Json::object();
    entry.set("state", pending.has_state ? pending.state : util::Json());
    util::Json tail = util::Json::array();
    for (const util::Json& event : pending.tail) tail.push_back(event);
    entry.set("tail", std::move(tail));
    streams.set(name, std::move(entry));
  }
  util::Json snapshot = util::Json::object();
  snapshot.set("seq", seq_);
  snapshot.set("streams", std::move(streams));
  return snapshot;
}

util::Status JournalStore::compact() {
  // A state recovery could not parse back is refused before anything is
  // written: the previous snapshot and the log stay as they are.
  const util::Result<util::Json> built = snapshot_json();
  if (!built.ok()) return util::Error{built.error()};
  const std::string snapshot = built->dump();
  util::Status status = fsutil::write_file_durable(snapshot_path(), snapshot);
  if (!status.ok()) return status;
  snapshot_seq_ = seq_;
  snapshot_bytes_ = snapshot.size();
  // Truncate the journal: records at or below snapshot_seq_ are now in the
  // snapshot. A crash right before this truncate is safe — those records
  // replay as stale and are skipped.
  if (log_fd_ >= 0) {
    ::close(log_fd_);
    log_fd_ = -1;
  }
  int fd = ::open(journal_path().c_str(),
                  O_WRONLY | O_TRUNC | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return util::Error{"journal: truncate failed: " +
                       std::string(std::strerror(errno))};
  }
  ::close(fd);
  journal_bytes_ = 0;
  ++stats_.compactions;
  return open_log_for_append();
}

JournalStore::StreamRegistration JournalStore::register_stream(
    const std::string& name, StreamHooks hooks) {
  auto pending = pending_.find(name);
  if (pending != pending_.end()) {
    if (pending->second.has_state && hooks.restore) {
      hooks.restore(pending->second.state);
    }
    if (hooks.apply) {
      for (const util::Json& event : pending->second.tail) hooks.apply(event);
    }
    pending_.erase(pending);
  }
  const std::uint64_t id = next_registration_id_++;
  streams_[name] = RegisteredStream{std::move(hooks), id};
  return StreamRegistration(self_, name, id);
}

void JournalStore::release_stream(const std::string& name, std::uint64_t id) {
  auto it = streams_.find(name);
  if (it == streams_.end() || it->second.id != id) return;  // replaced
  PendingStream frozen;
  if (it->second.hooks.state) {
    frozen.state = it->second.hooks.state();
    frozen.has_state = true;
  }
  streams_.erase(it);
  pending_[name] = std::move(frozen);
}

JournalStore::StreamRegistration::StreamRegistration(
    StreamRegistration&& other) noexcept
    : store_(std::move(other.store_)),
      name_(std::move(other.name_)),
      id_(other.id_) {
  other.id_ = 0;
}

JournalStore::StreamRegistration& JournalStore::StreamRegistration::operator=(
    StreamRegistration&& other) noexcept {
  if (this != &other) {
    reset();
    store_ = std::move(other.store_);
    name_ = std::move(other.name_);
    id_ = other.id_;
    other.id_ = 0;
  }
  return *this;
}

void JournalStore::StreamRegistration::reset() {
  if (store_ != nullptr && *store_ != nullptr) {
    (*store_)->release_stream(name_, id_);
  }
  store_.reset();
  id_ = 0;
}

util::Status JournalStore::append(const std::string& stream,
                                  const util::Json& event) {
  if (stream == kKvStream) {
    return util::Error{"journal: stream name 'kv' is reserved"};
  }
  if (!nests_within(event, kMaxDocumentDepth)) {
    return util::Error{"journal: event nests too deep to snapshot"};
  }
  util::Status status = append_record(stream, event);
  // Nobody registered holds an unregistered stream's events: keep them as
  // its pending tail, as recovery does, so compaction carries them.
  if (status.ok() && streams_.count(stream) == 0) {
    pending_[stream].tail.push_back(event);
  }
  return status;
}

// ---------------------------------------------------------------------------
// Key/value documents (kv stream)

bool JournalStore::valid_key(const std::string& key) {
  if (key.empty()) return false;
  for (const auto& segment : util::split(key, '/')) {
    if (segment.empty()) return false;
    bool all_dots = true;
    for (char c : segment) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
      if (!ok) return false;
      if (c != '.') all_dots = false;
    }
    if (all_dots) return false;  // ".", "..", "..." are path tricks
  }
  return true;
}

util::Status JournalStore::put(const std::string& key,
                               const util::Json& value) {
  if (!valid_key(key)) return util::Error{"store: invalid key '" + key + "'"};
  if (!nests_within(value, kMaxDocumentDepth)) {
    return util::Error{"store: document nests too deep to snapshot"};
  }
  util::Json event = util::Json::object();
  event.set("op", "put");
  event.set("key", key);
  event.set("value", value);
  util::Status status = append_record(kKvStream, event);
  if (!status.ok()) return status;
  kv_[key] = value;
  return util::Status::Ok();
}

util::Result<util::Json> JournalStore::get(const std::string& key) const {
  if (!valid_key(key)) return util::Error{"store: invalid key '" + key + "'"};
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    return util::Error{"store: no such key '" + key + "'"};
  }
  return it->second;
}

bool JournalStore::contains(const std::string& key) const {
  return kv_.count(key) != 0;
}

util::Status JournalStore::remove(const std::string& key) {
  if (!valid_key(key)) return util::Error{"store: invalid key"};
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    return util::Error{"store: no such key '" + key + "'"};
  }
  util::Json event = util::Json::object();
  event.set("op", "rm");
  event.set("key", key);
  util::Status status = append_record(kKvStream, event);
  if (!status.ok()) return status;
  kv_.erase(key);
  return util::Status::Ok();
}

std::vector<std::string> JournalStore::keys(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : kv_) {
    if (prefix.empty() || key.rfind(prefix + "/", 0) == 0) {
      out.push_back(key);
    }
  }
  return out;  // std::map iteration order is already sorted
}

}  // namespace rnl::core
