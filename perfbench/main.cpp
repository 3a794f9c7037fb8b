// The repository benchmark's harness: one single-threaded process pinned to
// one CPU runs one workload and prints a summary line, an environment line
// and, last, the result as one JSON object (see README.md).
//
//   rnl_perfbench --workload lab_forward|lab_deploy|fleet_rejoin
//                 --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 is the separate traced run that prints the per-layer metrics.

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "util/logging.h"

namespace {

using perfbench::RunOptions;
using perfbench::WorkloadResult;

/// Every end-to-end metric, as BENCHMARK.json lists them.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"throughput_per_s", "1/s"}, {"latency_us_p50", "us"},
    {"latency_us_p90", "us"},    {"latency_us_p99", "us"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, as BENCHMARK.json lists them. A workload fills
/// the ones of the layers it loads; the rest read 0 on it (that layer does
/// no work there by design).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    // lab_forward
    {"transport.send_ns_per_frame", "ns"},
    {"transport.sends_per_frame", "count"},
    {"transport.poll_ns_per_frame", "ns"},
    {"routeserver.rx_ns_per_frame", "ns"},
    {"routeserver.xshard_ns_per_frame", "ns"},
    {"ris.capture_ns_per_frame", "ns"},
    {"ris.replay_ns_per_frame", "ns"},
    {"routeserver.frames_per_egress_flush", "count"},
    {"ris.frames_per_uplink_flush", "count"},
    {"routeserver.slow_path_share", "ratio"},
    {"simnet.events_per_frame", "count"},
    {"harness.loop_rounds_per_probe", "count"},
    // lab_deploy
    {"api.design_us", "us"},
    {"api.reserve_us", "us"},
    {"api.deploy_us", "us"},
    {"api.console_us", "us"},
    {"api.teardown_us", "us"},
    {"labservice.deployments_held", "count"},
    {"ris.console_bytes_per_cycle", "bytes"},
    {"journal.appends_per_cycle", "count"},
    {"journal.compactions_per_1k_cycles", "count"},
    {"journal.recover_ms", "ms"},
    {"journal.records_replayed", "count"},
    // fleet_rejoin
    {"routeserver.join_us_per_rejoin", "us"},
    {"routeserver.teardown_us_per_rejoin", "us"},
    {"routeserver.registry_entries", "count"},
    {"routeserver.pump_us_per_rejoin", "us"},
    {"ris.session_us_per_rejoin", "us"},
    {"transport.send_us_per_rejoin", "us"},
    {"ris.dials_per_rejoin", "count"},
    {"routeserver.port_table_slots", "count"},
    {"routeserver.bringup_join_us_per_site", "us"},
    // every workload
    {"harness.unattributed_ns_per_op", "ns"},
    {"trace_overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rnl_perfbench: %s\nusage: rnl_perfbench --workload "
               "lab_forward|lab_deploy|fleet_rejoin --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || options.seconds <= 0 ||
          options.seconds > 120) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

/// Device interrupts (the numbered lines of /proc/interrupts) each CPU has
/// taken since boot; empty if the file cannot be read.
std::vector<unsigned long long> device_interrupts() {
  std::ifstream in("/proc/interrupts");
  std::string line;
  if (!std::getline(in, line)) return {};
  std::vector<int> cpus;  // column -> CPU number
  for (std::size_t at = line.find("CPU"); at != std::string::npos;
       at = line.find("CPU", at + 3)) {
    cpus.push_back(std::atoi(line.c_str() + at + 3));
  }
  std::vector<unsigned long long> counts;
  while (std::getline(in, line)) {
    char* cursor = nullptr;
    std::strtoul(line.c_str(), &cursor, 10);
    if (cursor == line.c_str() || *cursor != ':') continue;  // LOC, NMI...
    ++cursor;
    for (int cpu : cpus) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(cursor, &end, 10);
      if (end == cursor) break;
      cursor = end;
      if (cpu >= 0 && static_cast<std::size_t>(cpu) >= counts.size()) {
        counts.resize(static_cast<std::size_t>(cpu) + 1, 0);
      }
      if (cpu >= 0) counts[static_cast<std::size_t>(cpu)] += n;
    }
  }
  return counts;
}

/// Pins the process to one of the CPUs it may run on: the one that has
/// taken the fewest device interrupts (the disk's and the NIC's completion
/// interrupts land on one CPU and would otherwise preempt the run), the
/// highest-numbered on a tie. Returns that CPU, or -1 if pinning failed.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  const std::vector<unsigned long long> interrupts = device_interrupts();
  auto load = [&](int cpu) {
    const auto index = static_cast<std::size_t>(cpu);
    return index < interrupts.size() ? interrupts[index] : 0ULL;
  };
  int best = -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed) && (best < 0 || load(cpu) < load(best))) {
      best = cpu;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? best : -1;
}

/// Steal time the hypervisor has booked against `cpu` since boot, in
/// seconds; 0 if /proc/stat cannot be read.
double steal_seconds(int cpu) {
  std::ifstream in("/proc/stat");
  const std::string prefix = "cpu" + std::to_string(cpu) + " ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    // user nice system idle iowait irq softirq steal
    const char* cursor = line.c_str() + prefix.size();
    unsigned long long value = 0;
    for (int field = 0; field < 8; ++field) {
      char* end = nullptr;
      value = std::strtoull(cursor, &end, 10);
      if (end == cursor) return 0;
      cursor = end;
    }
    return static_cast<double>(value) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  return 0;
}

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions parsed = parse_args(argc, argv);
  // Every cut and rejoin logs at WARN; at fleet scale the log would be the
  // workload. Operators set the same threshold through RNL_LOG_LEVEL.
  rnl::util::Logger::instance().set_threshold(rnl::util::LogLevel::kError);

  const int cpu = pin_to_one_cpu();
  // Steal and CPU time against wall time over the run: where the host
  // slows the run without either moving, only the host probe shows it.
  const double steal_start = steal_seconds(cpu);
  const double cpu_start = process_cpu_seconds();
  const std::uint64_t wall_start = perfbench::steady_ns();
  RunOptions options = parsed;
  options.work_dir = ".bench_build/perfbench-work/" + options.workload;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  WorkloadResult result;
  try {
    if (options.workload == "lab_forward") {
      result = perfbench::run_lab_forward(options);
    } else if (options.workload == "lab_deploy") {
      result = perfbench::run_lab_deploy(options);
    } else if (options.workload == "fleet_rejoin") {
      result = perfbench::run_fleet_rejoin(options);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rnl_perfbench: %s\n", error.what());
    return 1;
  }
  std::filesystem::remove_all(options.work_dir, ec);
  if (options.trace) {
    // The traced run's spans, kept in memory until now (Perfetto loads it).
    const std::string dir = ".bench_build/perfbench-traces";
    const std::string path = dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    std::filesystem::create_directories(dir, ec);
    result.notes["trace_file"] =
        !ec && perfbench::g_spans.write(path) ? path : "not written";
  }
  if (result.attempted == 0) {
    // The workload never reached its timed phase: one op, failed.
    result.attempted = 1;
    result.failed = std::max<std::uint64_t>(result.failed, 1);
  }

  const double wall_s =
      static_cast<double>(perfbench::steady_ns() - wall_start) / 1e9;
  result.notes["wall_s"] = std::to_string(wall_s);
  result.notes["cpu_s"] = std::to_string(process_cpu_seconds() - cpu_start);
  result.notes["steal_s"] = std::to_string(steal_seconds(cpu) - steal_start);
  result.notes["host_probe_s"] =
      std::to_string(static_cast<double>(perfbench::g_probe_ns) / 1e9);
  result.notes["pinned_cpu"] = std::to_string(cpu);
  result.notes["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  result.notes["cpu_model"] = cpu_model();
  result.notes["threads"] = "1";
  result.notes["seed"] = std::to_string(options.seed);
  result.notes["seconds"] = json_number(options.seconds);
  result.notes["trace"] = options.trace ? "1" : "0";

  std::string env = "{\"workload\":" + json_string(options.workload);
  for (const auto& [key, value] : result.notes) {
    env += "," + json_string(key) + ":" + json_string(value);
  }
  env += "}";
  std::printf("env %s\n", env.c_str());
  for (const std::string& problem : result.problems) {
    std::printf("check failed: %s\n", problem.c_str());
  }

  const auto& wanted = options.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    auto it = result.metrics.find(name);
    const double value = it == result.metrics.end() ? 0.0 : it->second.value;
    if (!metrics.empty()) metrics += ",";
    metrics += json_string(name) + ":{\"value\":" + json_number(value) +
               ",\"unit\":" + json_string(unit) + "}";
  }
  const bool correct = result.problems.empty() && result.failed == 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
