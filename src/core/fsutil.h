#pragma once

// Crash-safe file primitives for the journal: whole-file reads and durable
// whole-file replacement (temp + fsync + rename + directory fsync).

#include <string>

#include "util/result.h"

namespace rnl::core::fsutil {

/// Reads the whole file into `out`. Distinguishes "missing" (returns false,
/// status ok) from an I/O failure (status error).
util::Status read_file(const std::string& path, std::string* out, bool* found);

/// Writes `bytes` to `path + ".tmp"`, fsyncs it, renames it over `path`,
/// and fsyncs the parent directory — after a crash the file holds either
/// its previous content or `bytes`, never a prefix.
util::Status write_file_durable(const std::string& path,
                                const std::string& bytes);

}  // namespace rnl::core::fsutil
