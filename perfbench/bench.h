#pragma once

// Shared pieces of the repository benchmark (see README.md): run options,
// the result a workload hands back, the harness clock and host probe,
// windowed statistics, the harness device, and the traced run's span
// recorder with its transport decorator.
//
// Everything here runs on the one pinned benchmark thread, so nothing is
// synchronised.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "devices/device.h"
#include "transport/transport.h"
#include "util/rng.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (journal files, trace output).
  std::string work_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Environment and sample counts, printed on the summary line.
  std::map<std::string, std::string> notes;
  /// One line per failed output check; any entry makes the run incorrect.
  std::vector<std::string> problems;

  void problem(std::string what) { problems.push_back(std::move(what)); }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

WorkloadResult run_lab_forward(const RunOptions& options);
WorkloadResult run_lab_deploy(const RunOptions& options);
WorkloadResult run_fleet_rejoin(const RunOptions& options);

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Steady time spent inside probe_host_us() so far.
extern std::uint64_t g_probe_ns;

/// The harness clock: steady time with the host probes taken out, so a
/// probe never counts inside a timed op, window, set-up or span.
inline std::uint64_t now_ns() { return steady_ns() - g_probe_ns; }

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------
//
// The host is shared, and other tenants' load slows this process by up to
// 1.6x for seconds at a time (on a 4-vCPU Xeon KVM guest) with no steal
// time and no CPU time lost to show for it. So the harness times a fixed
// reference kernel (sorting, hashing, string maps, stream formatting,
// indirect calls and small allocations: the workloads' own kind of work)
// after every statistics window and every set-up, and reports each timing
// as it would read on a host that runs the kernel in kReferenceProbeUs. The probe of an interval is the mean of the probes
// taken just before and just after it; a time is multiplied by
// kReferenceProbeUs / probe, a rate by probe / kReferenceProbeUs. The
// unscaled figures are printed on the env line.

constexpr double kReferenceProbeUs = 3000;

/// Times the reference kernel (best of a few runs), in us. Its time is
/// taken off the harness clock.
double probe_host_us();

/// Set-up times, unscaled and scaled by the probes around them.
struct Setups {
  std::vector<double> raw_s;
  std::vector<double> scaled_s;

  /// Records a set-up of `ns` (harness clock) that has just ended.
  void add(std::uint64_t ns);
  [[nodiscard]] std::size_t size() const { return raw_s.size(); }
};

/// Nearest-rank percentile (p in [0, 100]) of `values`; reorders them.
double percentile(std::vector<double>& values, double p);
double median(std::vector<double> values);
/// Mean of the middle half of `values` (all of them when fewer than four).
double interquartile_mean(std::vector<double> values);

/// Peak resident set (VmHWM) of this process so far, in MB.
double peak_rss_mb();

/// A seeded site name: `prefix` plus eight random lowercase letters. Names
/// decide shard placement, so the seed decides it too.
std::string random_name(rnl::util::Rng& rng, const std::string& prefix);

/// Timed-phase samples cut into windows. Every window yields a throughput
/// and latency percentiles, scaled by the host probes around it, and a
/// run reports the interquartile mean over its windows: a burst of
/// interference the probe misses moves one window rather than the result.
/// Only timed stretches (start() to stop()) count: set-up between them is
/// left out, and a window may span stretches.
class WindowedSeries {
 public:
  /// A window closes after `window_ns` of timed time.
  static WindowedSeries by_time(std::uint64_t window_ns) {
    return WindowedSeries(window_ns, 0);
  }
  /// A window closes after `stretches` timed stretches.
  static WindowedSeries by_stretches(std::size_t stretches) {
    return WindowedSeries(0, stretches);
  }

  void start(std::uint64_t t);
  void add_ops(std::uint64_t n) { ops_ += n; }
  void add_latency_ns(std::uint64_t ns) {
    latencies_.push_back(static_cast<double>(ns));
  }
  /// Closes the open window if its time is up.
  void tick(std::uint64_t t);
  void stop(std::uint64_t t);
  /// Closes the last window if it is at least half full; drops it if not.
  void finish();

  /// Interquartile mean over windows of the window's throughput, scaled to
  /// the reference host unless `scaled` is false.
  [[nodiscard]] double throughput_per_s(bool scaled = true) const;
  /// Interquartile mean over windows of the window's `p`th latency
  /// percentile, in us, scaled like throughput_per_s().
  [[nodiscard]] double latency_us(double p, bool scaled = true) const;
  /// Median of the windows' host probes, in us.
  [[nodiscard]] double probe_us() const;
  [[nodiscard]] std::size_t windows() const { return windows_.size(); }
  [[nodiscard]] std::uint64_t total_ops() const { return total_ops_; }
  [[nodiscard]] std::uint64_t total_samples() const { return total_samples_; }

 private:
  struct Window {
    double throughput;
    double p50, p90, p99;
    double probe_us;
  };
  WindowedSeries(std::uint64_t window_ns, std::size_t stretches)
      : window_ns_(window_ns), stretches_per_window_(stretches) {}
  void close();
  void clear_open_window();

  std::uint64_t window_ns_;
  std::size_t stretches_per_window_;
  std::uint64_t stretch_start_ = 0;
  double open_probe_us_ = 0;  // the last probe before the open window began
  double active_ns_ = 0;  // the open window's timed time, closed stretches
  std::size_t stretches_ = 0;
  std::uint64_t ops_ = 0;
  std::vector<double> latencies_;
  std::vector<Window> windows_;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_samples_ = 0;
};

/// A bare device that carries harness traffic: N ports and no CLI
/// behaviour. Workloads install port receive handlers and transmit
/// directly, so the only RNL work per frame is the lab's own.
class HarnessDevice final : public rnl::devices::Device {
 public:
  HarnessDevice(rnl::simnet::Network& net, std::string name,
                std::size_t ports);
  std::string exec(const std::string&) override { return ""; }
  [[nodiscard]] std::string prompt() const override { return name() + ">"; }
  [[nodiscard]] std::string running_config() const override { return ""; }
};

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Span kinds: one per public call the harness times, named
/// "<layer>.<call>". The layer is the RNL module the call enters; time in
/// wire/util/devices/packet counts inside the layer that calls it.
enum class Kind : std::uint8_t {
  kTransportSend,    // Transport::send (decorator)
  kTransportPoll,    // TcpEventLoop::run_once
  kTransportCut,     // SimLinkFault::cut
  kTransportDial,    // make_sim_stream_pair / tcp_connect
  kRisRx,            // RIS-side receive handler (replay, acks, console)
  kRisClose,         // RIS-side close handler
  kServerRx,         // server-side receive handler (incl. dispatch sniff)
  kServerClose,      // server-side close handler
  kServerPump,       // ShardedRouteServer::pump_all
  kServerDispatch,   // ShardedRouteServer::dispatch / RouteServer::accept
  kServerControl,    // connect_ports during set-up
  kSimnetRun,        // Network::run_for
  kApiDesign,        // ApiServer::handle_text, design.* methods
  kApiReserve,
  kApiDeploy,
  kApiConsole,
  kApiTeardown,
  kJournalOpen,      // JournalStore construction (recovery)
  kHarnessDevice,    // harness device receive handlers
  kHarnessCheck,     // harness request building and output checks
  kCount
};
constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
const char* kind_name(Kind kind);
/// The layer a kind's self time is booked to ("transport", "ris", ...).
const char* kind_layer(Kind kind);

/// Per-kind call counts, inclusive time and self time (inclusive minus the
/// spans nested inside).
struct SpanTotals {
  std::array<std::uint64_t, kKinds> calls{};
  std::array<std::uint64_t, kKinds> total_ns{};
  std::array<std::uint64_t, kKinds> self_ns{};

  [[nodiscard]] std::uint64_t calls_of(Kind k) const {
    return calls[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] double total_of(Kind k) const {
    return static_cast<double>(total_ns[static_cast<std::size_t>(k)]);
  }
  [[nodiscard]] double self_of(Kind k) const {
    return static_cast<double>(self_ns[static_cast<std::size_t>(k)]);
  }
  [[nodiscard]] double self_sum() const;
  void add(const SpanTotals& other);
};

/// In-memory span recorder. Self time is computed as spans close, so the
/// totals are exact however many spans run. While keeping is on (the traced
/// timed phases), the first kMaxKept spans are also kept whole (name,
/// start, end, parent, op id) and written out as a Chrome trace-event file
/// when the run ends.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxKept = 100'000;

  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_keep(bool keep) { keep_ = keep; }
  [[nodiscard]] std::uint64_t op() const { return op_; }
  void set_op(std::uint64_t op) { op_ = op; }

  void begin(Kind kind);
  void end();

  /// Returns the totals gathered since the last take() and resets them.
  SpanTotals take();
  /// Writes the kept spans as Chrome trace-event JSON (Perfetto loads it).
  bool write(const std::string& path) const;

 private:
  struct Open {
    Kind kind;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int64_t kept;  // index into kept_, or -1
  };
  struct Kept {
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t op;
    std::int64_t parent;
    Kind kind;
  };

  bool on_ = false;
  bool keep_ = false;
  std::uint64_t op_ = 0;
  std::array<Open, 64> stack_{};
  std::size_t depth_ = 0;
  SpanTotals totals_;
  std::vector<Kept> kept_;
};

extern SpanRecorder g_spans;

/// Times one call as a span while the recorder is on.
class Span {
 public:
  explicit Span(Kind kind) : on_(g_spans.on()) {
    if (on_) g_spans.begin(kind);
  }
  ~Span() {
    if (on_) g_spans.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Tags spans with an op id for the scope's duration.
class OpScope {
 public:
  explicit OpScope(std::uint64_t op) : saved_(g_spans.op()) {
    g_spans.set_op(op);
  }
  ~OpScope() { g_spans.set_op(saved_); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Largest share of the traced wall time that may fall outside every span
/// (harness loop glue and the recorder's own clock reads) before the
/// traced run fails its sum check.
constexpr double kUnattributedTolerance = 0.15;

/// Sets the end-to-end metrics of an untraced run (the workload samples
/// peak_rss_mb itself), and notes their unscaled values.
void book_end_to_end(WorkloadResult& result, const WindowedSeries& series,
                     const Setups& setups);

/// Sets trace_overhead (untraced over traced throughput) and runs the
/// traced run's sum check: per-layer self time per op plus the unattributed
/// remainder (wall minus every span's self time) add up, by construction,
/// to the traced wall time per op. Fails the run if the remainder is
/// negative (spans double-counted) or above the tolerance. Sets
/// harness.unattributed_ns_per_op and the summary notes.
void book_traced_run(WorkloadResult& result, const WindowedSeries& untraced,
                     const WindowedSeries& traced, const SpanTotals& totals,
                     double wall_ns, double ops);

/// Which side of the tunnel a decorated transport serves: its receive and
/// close handlers are booked to that side's layer.
enum class Side { kRis, kServer };

/// Wraps a transport in the traced run's timing decorator: send() is a
/// transport span, and the handlers the owner installs run inside spans of
/// the owner's layer. `op_slot` (may be null) names the op id the
/// handlers' spans carry.
std::unique_ptr<rnl::transport::Transport> traced(
    std::unique_ptr<rnl::transport::Transport> inner, Side side,
    const std::uint64_t* op_slot = nullptr);

}  // namespace perfbench
