#pragma once

// Minimal leveled logger. Thread-safe sink, printf-free (streams assembled
// per call). Default sink is stderr; tests swap in a capture sink.

#include <atomic>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace rnl::util {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError };

std::string_view to_string(LogLevel level);
/// Parses "trace"/"debug"/"info"/"warn"/"error" (case-insensitive; "warning"
/// accepted). nullopt for anything else.
std::optional<LogLevel> level_from_string(std::string_view name);

/// Global log configuration. Messages below `threshold` are dropped before
/// formatting. The sink is invoked with the fully formatted line, which
/// carries a monotonic wall-clock timestamp prefix ("12.345678 component:
/// msg") so log lines correlate with trace spans.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& instance();

  void set_threshold(LogLevel level) {
    // Relaxed: a retuned threshold may lag by a few log calls, harmlessly.
    threshold_.store(level, std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel threshold() const {
    return threshold_.load(std::memory_order_relaxed);  // relaxed: see above
  }
  void set_sink(Sink sink);

  /// Applies `spec` (an RNL_LOG_LEVEL value) to the threshold; returns
  /// false and leaves the threshold alone if the spec does not parse. The
  /// constructor calls this with getenv("RNL_LOG_LEVEL"), so the env var is
  /// honored at startup; the `log.set_level` API method reuses it at
  /// runtime.
  bool apply_level_spec(const char* spec);

  [[nodiscard]] bool enabled(LogLevel level) const {
    // Relaxed: only gates log verbosity; no data is published through it.
    return level >= threshold_.load(std::memory_order_relaxed);
  }
  void write(LogLevel level, std::string_view component, std::string_view msg);

 private:
  Logger();
  // Atomic: the log.set_level API method can retune the threshold while
  // worker threads are mid-RNL_LOG (ThreadSanitizer flags the plain read).
  std::atomic<LogLevel> threshold_{LogLevel::kWarn};
  Sink sink_;
};

/// Stream-style log statement builder:
///   RNL_LOG(kInfo, "routeserver") << "router " << id << " joined";
class LogStatement {
 public:
  LogStatement(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogStatement() {
    Logger::instance().write(level_, component_, stream_.str());
  }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  template <typename T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};

}  // namespace rnl::util

#define RNL_LOG(level, component)                                       \
  if (!::rnl::util::Logger::instance().enabled(                        \
          ::rnl::util::LogLevel::level)) {                             \
  } else                                                               \
    ::rnl::util::LogStatement(::rnl::util::LogLevel::level, (component))
