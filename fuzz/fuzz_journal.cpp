// Fuzz harness for the crash-safe journal recovery path (core/journal.h,
// DESIGN.md §14) — the scan/truncate/quarantine logic that turns an
// arbitrary post-crash journal image back into committed state.
//
// The input bytes ARE the journal: they are written verbatim to
// root/journal.log and a JournalStore is opened on top. Properties:
//   - recovery never crashes, throws, or loops on any byte sequence;
//   - recovery is idempotent — reopening the recovered store reports zero
//     torn tails and zero quarantined records (damage was rewritten away)
//     and reproduces byte-identical kv state;
//   - the recovered store still accepts appends (the log survived repair).
//
// The low-level Journal::scan is also exercised directly so framing bugs
// surface even when the store-level recovery masks them.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "core/journal.h"
#include "fuzz_util.h"
#include "util/json.h"

namespace fs = std::filesystem;
using rnl::core::Journal;
using rnl::core::JournalStore;

namespace {

std::map<std::string, rnl::util::Json> dump_kv(const JournalStore& store) {
  std::map<std::string, rnl::util::Json> out;
  for (const auto& key : store.keys("")) {
    auto value = store.get(key);
    FUZZ_ASSERT(value.ok());
    out.emplace(key, *value);
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 1 << 16) return 0;  // bound per-input file I/O

  // Pure scan first: must terminate and classify every byte sequence.
  std::string_view image(reinterpret_cast<const char*>(data), size);
  Journal::ScanResult scanned = Journal::scan(image);
  std::size_t consumed = scanned.torn_tail_bytes;
  for (const auto& record : scanned.records) {
    consumed += Journal::kHeaderBytes + record.payload.size();
  }
  for (const auto& raw : scanned.quarantined) consumed += raw.size();
  FUZZ_ASSERT(consumed == size);

  const fs::path root =
      fs::temp_directory_path() / "rnl_fuzz_journal_store";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);
  {
    std::ofstream log(root / "journal.log", std::ios::binary);
    log.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }

  std::map<std::string, rnl::util::Json> recovered;
  std::uint64_t last_seq = 0;
  {
    JournalStore store(root.string(), nullptr,
                       {/*fsync=*/false});
    recovered = dump_kv(store);
    last_seq = store.last_sequence();
    if (last_seq >= UINT64_MAX - 2) {
      // A forged record claiming a near-max seq would wrap the counter on
      // append; not a recovery property, so skip the append-probe leg.
      fs::remove_all(root, ec);
      return 0;
    }
    // Repair must leave the log appendable.
    FUZZ_ASSERT(store.put("fuzz/probe", rnl::util::Json(1)).ok());
  }
  {
    JournalStore again(root.string(), nullptr,
                       {/*fsync=*/false});
    FUZZ_ASSERT(again.stats().torn_tail_truncations == 0);
    FUZZ_ASSERT(again.stats().quarantined_records == 0);
    FUZZ_ASSERT(again.last_sequence() > last_seq);  // probe got a seq
    auto replayed = dump_kv(again);
    auto probe = replayed.find("fuzz/probe");
    FUZZ_ASSERT(probe != replayed.end());
    replayed.erase(probe);
    FUZZ_ASSERT(replayed == recovered);
  }
  fs::remove_all(root, ec);
  return 0;
}
