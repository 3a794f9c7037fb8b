#pragma once

// must(): the set-up check of the examples and of the experiment harnesses
// in bench/. A step that returns a util::Status or util::Result and fails
// ends the program with its error and the calling line, so a run never goes
// on against a half-built lab.

#include <cstdio>
#include <cstdlib>
#include <source_location>
#include <string>
#include <utility>

#include "util/result.h"

namespace rnl {

[[noreturn]] inline void fail_setup(const std::string& error,
                                    const std::source_location& where) {
  std::fprintf(stderr, "%s:%u: %s\n", where.file_name(),
               static_cast<unsigned>(where.line()), error.c_str());
  std::exit(1);
}

inline void must(
    const util::Status& status,
    const std::source_location where = std::source_location::current()) {
  if (!status.ok()) fail_setup(status.error(), where);
}

template <typename T>
T must(util::Result<T> result,
       const std::source_location where = std::source_location::current()) {
  if (!result.ok()) fail_setup(result.error(), where);
  return std::move(result).take();
}

}  // namespace rnl
