#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "devices/firmware.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

std::uint64_t g_probe_ns = 0;

namespace {

/// Runs of the kernel per probe; the fastest counts.
constexpr int kProbeRuns = 2;

volatile std::uint64_t g_probe_sink = 0;

/// The last probe_host_us() result; 0 before the first.
double g_last_probe_us = 0;

/// The probe of an interval between probes `before` (0: none) and `after`.
double bracketed(double before, double after) {
  return before > 0 ? (before + after) / 2 : after;
}

/// Sorting and hashing: sorts 8192 keys, fills a 4096-entry hash map, looks
/// up 8192 keys (half of them absent) and builds 512 short records.
std::uint64_t sort_and_hash() {
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> keys(8192);
  for (std::uint64_t& key : keys) key = next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::size_t i = 0; i < 4096; ++i) map[keys[(i * 7) % keys.size()]] = i;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hits += map.count(next() % 2 == 0 ? keys[i] : next());
  }
  std::string text;
  for (std::size_t i = 0; i < 512; ++i) {
    text += "{\"k\":";
    text += std::to_string(keys[i] % 100000);
    text += "}";
  }
  return hits + text.size();
}

/// Ordered string maps and stream formatting, as the API and JSON paths
/// use them.
std::uint64_t maps_and_streams() {
  std::map<std::string, int> counts;
  std::ostringstream out;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "site-" + std::to_string((i * 7919) % 1000) + "/r";
    counts[key] += i;
    out << "{\"k\":" << (i * 0.37) << ",\"n\":\"" << key << "\"}";
  }
  std::uint64_t found = 0;
  for (int i = 0; i < 600; ++i) {
    found += counts.count("site-" + std::to_string(i) + "/r");
  }
  return found + out.str().size();
}

struct Shape {
  virtual ~Shape() = default;
  [[nodiscard]] virtual std::uint64_t step(std::uint64_t x) const = 0;
};

template <int N>
struct ShapeN final : Shape {
  [[nodiscard]] std::uint64_t step(std::uint64_t x) const override {
    return x * (N + 3) + (x >> (N % 7));
  }
};

template <int N>
std::unique_ptr<Shape> make_shape() {
  return std::make_unique<ShapeN<N>>();
}

constexpr std::array<std::unique_ptr<Shape> (*)(), 8> kShapeMakers = {
    make_shape<0>, make_shape<1>, make_shape<2>, make_shape<3>,
    make_shape<4>, make_shape<5>, make_shape<6>, make_shape<7>};

/// Virtual and std::function calls over freshly allocated objects, and
/// small string allocations, as the event and handler paths use them.
std::uint64_t calls_and_allocations() {
  std::vector<std::unique_ptr<Shape>> shapes;
  std::vector<std::function<std::uint64_t(std::uint64_t)>> handlers;
  for (std::size_t i = 0; i < 2000; ++i) {
    shapes.push_back(kShapeMakers[i % kShapeMakers.size()]());
    handlers.emplace_back([i](std::uint64_t v) { return v + i; });
  }
  std::uint64_t x = 1;
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      x = shapes[(i * 13) % shapes.size()]->step(x);
      x = handlers[(i * 7) % handlers.size()](x);
    }
  }
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 2000; ++i) {
    names.emplace_back(16 + i % 64, static_cast<char>('a' + i % 26));
  }
  return x + names.size();
}

/// The reference kernel, about 3 ms on fixed inputs: the three parts
/// weighted 1:4:3. Alone, sorting and hashing slowed less than the
/// workloads when the host slowed, and maps and streams more; in this mix
/// the workloads' window throughput moved as the kernel's speed to the
/// power 0.93-1.08 (log-log fit, each workload, on a shared Xeon host).
void reference_kernel() {
  std::uint64_t sink = sort_and_hash();
  for (int i = 0; i < 4; ++i) sink += maps_and_streams();
  for (int i = 0; i < 3; ++i) sink += calls_and_allocations();
  g_probe_sink = sink;
}

}  // namespace

double probe_host_us() {
  const std::uint64_t start = steady_ns();
  std::uint64_t best = UINT64_MAX;
  for (int i = 0; i < kProbeRuns; ++i) {
    const std::uint64_t t0 = steady_ns();
    reference_kernel();
    best = std::min(best, steady_ns() - t0);
  }
  g_probe_ns += steady_ns() - start;
  g_last_probe_us = static_cast<double>(best) / 1e3;
  return g_last_probe_us;
}

void Setups::add(std::uint64_t ns) {
  const double seconds = static_cast<double>(ns) / 1e9;
  const double before = g_last_probe_us;
  raw_s.push_back(seconds);
  scaled_s.push_back(seconds * kReferenceProbeUs /
                     bracketed(before, probe_host_us()));
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t trim = n >= 4 ? n / 4 : 0;
  double sum = 0;
  for (std::size_t i = trim; i < n - trim; ++i) sum += values[i];
  return sum / static_cast<double>(n - 2 * trim);
}

std::string random_name(rnl::util::Rng& rng, const std::string& prefix) {
  std::string name = prefix;
  for (int i = 0; i < 8; ++i) {
    name += static_cast<char>('a' + rng.below(26));
  }
  return name;
}

// ---------------------------------------------------------------------------
// WindowedSeries
// ---------------------------------------------------------------------------

void WindowedSeries::start(std::uint64_t t) {
  if (active_ns_ == 0 && stretches_ == 0) open_probe_us_ = g_last_probe_us;
  stretch_start_ = t;
}

void WindowedSeries::tick(std::uint64_t t) {
  if (window_ns_ == 0) return;
  if (active_ns_ + static_cast<double>(t - stretch_start_) <
      static_cast<double>(window_ns_)) {
    return;
  }
  active_ns_ += static_cast<double>(t - stretch_start_);
  stretch_start_ = t;
  close();
}

void WindowedSeries::stop(std::uint64_t t) {
  active_ns_ += static_cast<double>(t - stretch_start_);
  stretch_start_ = t;
  if (stretches_per_window_ != 0 && ++stretches_ >= stretches_per_window_) {
    close();
  }
}

void WindowedSeries::finish() {
  const bool half_full =
      window_ns_ != 0 ? active_ns_ * 2 >= static_cast<double>(window_ns_)
                      : stretches_ * 2 >= stretches_per_window_;
  if (half_full && active_ns_ > 0) {
    close();
  } else {
    clear_open_window();
  }
}

void WindowedSeries::close() {
  Window window{};
  window.throughput = static_cast<double>(ops_) / (active_ns_ / 1e9);
  window.p50 = percentile(latencies_, 50);
  window.p90 = percentile(latencies_, 90);
  window.p99 = percentile(latencies_, 99);
  const double after = probe_host_us();
  window.probe_us = bracketed(open_probe_us_, after);
  open_probe_us_ = after;
  windows_.push_back(window);
  total_ops_ += ops_;
  total_samples_ += latencies_.size();
  clear_open_window();
}

void WindowedSeries::clear_open_window() {
  active_ns_ = 0;
  stretches_ = 0;
  ops_ = 0;
  latencies_.clear();
}

double WindowedSeries::throughput_per_s(bool scaled) const {
  std::vector<double> values;
  for (const Window& w : windows_) {
    values.push_back(w.throughput *
                     (scaled ? w.probe_us / kReferenceProbeUs : 1.0));
  }
  return interquartile_mean(std::move(values));
}

double WindowedSeries::latency_us(double p, bool scaled) const {
  std::vector<double> values;
  for (const Window& w : windows_) {
    const double ns = p <= 50 ? w.p50 : p <= 90 ? w.p90 : w.p99;
    values.push_back(ns / 1e3 *
                     (scaled ? kReferenceProbeUs / w.probe_us : 1.0));
  }
  return interquartile_mean(std::move(values));
}

double WindowedSeries::probe_us() const {
  std::vector<double> values;
  for (const Window& w : windows_) values.push_back(w.probe_us);
  return median(std::move(values));
}

// ---------------------------------------------------------------------------
// HarnessDevice
// ---------------------------------------------------------------------------

HarnessDevice::HarnessDevice(rnl::simnet::Network& net, std::string name,
                             std::size_t ports)
    : Device(net, std::move(name),
             rnl::devices::FirmwareCatalog::instance().default_image()) {
  for (std::size_t p = 0; p < ports; ++p) {
    std::string ifname = "p";
    ifname += std::to_string(p);
    add_port(ifname);
  }
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

SpanRecorder g_spans;

namespace {

struct KindInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<KindInfo, kKinds> kKindInfo = {{
    {"transport.send", "transport"},
    {"transport.run_once", "transport"},
    {"transport.cut", "transport"},
    {"transport.dial", "transport"},
    {"ris.receive", "ris"},
    {"ris.close", "ris"},
    {"routeserver.receive", "routeserver"},
    {"routeserver.close", "routeserver"},
    {"routeserver.pump_all", "routeserver"},
    {"routeserver.dispatch", "routeserver"},
    {"routeserver.connect_ports", "routeserver"},
    {"simnet.run_for", "simnet"},
    {"api.design", "api"},
    {"api.reserve", "api"},
    {"api.deploy", "api"},
    {"api.console", "api"},
    {"api.teardown", "api"},
    {"journal.open", "journal"},
    {"harness.device", "harness"},
    {"harness.check", "harness"},
}};

}  // namespace

const char* kind_name(Kind kind) {
  return kKindInfo[static_cast<std::size_t>(kind)].name;
}

const char* kind_layer(Kind kind) {
  return kKindInfo[static_cast<std::size_t>(kind)].layer;
}

double SpanTotals::self_sum() const {
  double sum = 0;
  for (std::uint64_t ns : self_ns) sum += static_cast<double>(ns);
  return sum;
}

void SpanTotals::add(const SpanTotals& other) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    calls[k] += other.calls[k];
    total_ns[k] += other.total_ns[k];
    self_ns[k] += other.self_ns[k];
  }
}

void SpanRecorder::begin(Kind kind) {
  const std::uint64_t t = now_ns();
  std::int64_t kept = -1;
  if (keep_ && kept_.size() < kMaxKept) {
    const std::int64_t parent = depth_ == 0 ? -1 : stack_[depth_ - 1].kept;
    kept = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(Kept{t, t, op_, parent, kind});
  }
  if (depth_ == stack_.size()) std::abort();  // runaway nesting: a bug
  stack_[depth_++] = Open{kind, t, 0, kept};
}

void SpanRecorder::end() {
  const std::uint64_t t = now_ns();
  const Open open = stack_[--depth_];
  const std::uint64_t duration = t - open.start;
  const auto k = static_cast<std::size_t>(open.kind);
  ++totals_.calls[k];
  totals_.total_ns[k] += duration;
  totals_.self_ns[k] += duration - std::min(duration, open.child_ns);
  if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
  if (open.kept >= 0) kept_[static_cast<std::size_t>(open.kept)].end = t;
}

SpanTotals SpanRecorder::take() { return std::exchange(totals_, SpanTotals{}); }

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  const std::uint64_t base = kept_.empty() ? 0 : kept_.front().start;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& span = kept_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", kind_name(span.kind),
                 kind_layer(span.kind),
                 static_cast<double>(span.start - base) / 1e3,
                 static_cast<double>(span.end - span.start) / 1e3, i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.op));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

void book_end_to_end(WorkloadResult& result, const WindowedSeries& series,
                     const Setups& setups) {
  result.set("throughput_per_s", series.throughput_per_s(), "1/s");
  result.set("latency_us_p50", series.latency_us(50), "us");
  result.set("latency_us_p90", series.latency_us(90), "us");
  result.set("latency_us_p99", series.latency_us(99), "us");
  result.set("setup_s", median(setups.scaled_s), "s");
  result.notes["probe_us_median"] = std::to_string(series.probe_us());
  result.notes["unscaled"] =
      "throughput_per_s=" + std::to_string(series.throughput_per_s(false)) +
      " latency_us_p50=" + std::to_string(series.latency_us(50, false)) +
      " latency_us_p90=" + std::to_string(series.latency_us(90, false)) +
      " latency_us_p99=" + std::to_string(series.latency_us(99, false)) +
      " setup_s=" + std::to_string(median(setups.raw_s));
}

void book_traced_run(WorkloadResult& result, const WindowedSeries& untraced,
                     const WindowedSeries& traced, const SpanTotals& totals,
                     double wall_ns, double ops) {
  const double traced_rate = traced.throughput_per_s();
  result.set("trace_overhead",
             traced_rate == 0 ? 0.0 : untraced.throughput_per_s() / traced_rate,
             "ratio");
  if (ops <= 0 || wall_ns <= 0) {
    result.problem("sum check: the traced phase completed no ops");
    return;
  }
  std::map<std::string, double> layer_ns;
  for (std::size_t k = 0; k < kKinds; ++k) {
    layer_ns[kind_layer(static_cast<Kind>(k))] +=
        static_cast<double>(totals.self_ns[k]);
  }
  const double unattributed = wall_ns - totals.self_sum();
  const double share = unattributed / wall_ns;
  std::string table;
  for (const auto& [layer, ns] : layer_ns) {
    table += layer + "=" + std::to_string(ns / ops) + " ";
  }
  table += "unattributed=" + std::to_string(unattributed / ops) +
           " wall=" + std::to_string(wall_ns / ops);
  result.notes["sum_check_ns_per_op"] = table;
  result.notes["sum_check_unattributed_share"] = std::to_string(share);
  result.notes["sum_check_tolerance"] = std::to_string(kUnattributedTolerance);
  result.set("harness.unattributed_ns_per_op", unattributed / ops, "ns");
  if (share < 0) {
    result.problem("sum check: spans cover more than the wall time");
  } else if (share > kUnattributedTolerance) {
    result.problem("sum check: unattributed share " + std::to_string(share) +
                   " above tolerance " +
                   std::to_string(kUnattributedTolerance));
  }
}

// ---------------------------------------------------------------------------
// Transport decorator
// ---------------------------------------------------------------------------

namespace {

using rnl::transport::Transport;

class TracedTransport final : public Transport {
 public:
  TracedTransport(std::unique_ptr<Transport> inner, Side side,
                  const std::uint64_t* op_slot)
      : inner_(std::move(inner)),
        receive_kind_(side == Side::kRis ? Kind::kRisRx : Kind::kServerRx),
        close_kind_(side == Side::kRis ? Kind::kRisClose : Kind::kServerClose),
        op_slot_(op_slot) {}

  void send(rnl::util::BytesView bytes) override {
    Span span(Kind::kTransportSend);
    inner_->send(bytes);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }

  // The wrapped handlers touch only their own captures and the recorder,
  // never `this`: a handler may destroy the transport that invokes it.
  void set_receive_handler(ReceiveHandler handler) override {
    if (!handler) return inner_->set_receive_handler(nullptr);
    inner_->set_receive_handler(
        [kind = receive_kind_, op = op_slot_,
         handler = std::move(handler)](rnl::util::BytesView bytes) {
          OpScope scope(op != nullptr ? *op : g_spans.op());
          Span span(kind);
          handler(bytes);
        });
  }
  void set_close_handler(CloseHandler handler) override {
    if (!handler) return inner_->set_close_handler(nullptr);
    inner_->set_close_handler(
        [kind = close_kind_, op = op_slot_, handler = std::move(handler)] {
          OpScope scope(op != nullptr ? *op : g_spans.op());
          Span span(kind);
          handler();
        });
  }
  void set_drain_handler(DrainHandler handler) override {
    if (!handler) return inner_->set_drain_handler(nullptr);
    inner_->set_drain_handler(
        [kind = receive_kind_, handler = std::move(handler)] {
          Span span(kind);
          handler();
        });
  }

  [[nodiscard]] std::size_t queued_bytes() const override {
    return inner_->queued_bytes();
  }
  void set_egress_watermarks(std::size_t high, std::size_t low) override {
    inner_->set_egress_watermarks(high, low);
  }
  [[nodiscard]] bool writable() const override { return inner_->writable(); }

 private:
  std::unique_ptr<Transport> inner_;
  Kind receive_kind_;
  Kind close_kind_;
  const std::uint64_t* op_slot_;
};

}  // namespace

std::unique_ptr<Transport> traced(std::unique_ptr<Transport> inner, Side side,
                                  const std::uint64_t* op_slot) {
  return std::make_unique<TracedTransport>(std::move(inner), side, op_slot);
}

}  // namespace perfbench
