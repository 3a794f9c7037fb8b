#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/metrics.h"
#include "util/strings.h"

namespace rnl::util {

namespace {
std::mutex g_sink_mutex;
}

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

std::optional<LogLevel> level_from_string(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  return std::nullopt;
}

bool Logger::apply_level_spec(const char* spec) {
  if (spec == nullptr) return false;
  auto level = level_from_string(spec);
  if (!level.has_value()) return false;
  threshold_ = *level;
  return true;
}

Logger::Logger() {
  apply_level_spec(std::getenv("RNL_LOG_LEVEL"));
  sink_ = [](LogLevel level, const std::string& line) {
    std::fprintf(stderr, "[%s] %s\n", std::string(to_string(level)).c_str(),
                 line.c_str());
  };
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  sink_ = std::move(sink);
}

void Logger::write(LogLevel level, std::string_view component,
                   std::string_view msg) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (sink_) {
    // Monotonic seconds since process start — the same clock the metrics
    // histograms and trace spans sample, so traces and logs correlate.
    std::string stamp =
        format("%.6f ", static_cast<double>(monotonic_ns()) / 1e9);
    std::string line;
    line.reserve(stamp.size() + component.size() + msg.size() + 2);
    line.append(stamp);
    line.append(component);
    line.append(": ");
    line.append(msg);
    sink_(level, line);
  }
}

}  // namespace rnl::util
