// E15: what the control plane's JSON costs, operation by operation.
//
// Every site rejoin is a JOIN the route server parses and a JoinAck it
// encodes and the RIS parses (§2.2); every web-services API call (§2) is a
// JSON request and reply; every journal compaction dumps the soak's epochs
// snapshot, one member per site. This harness times each of those payloads
// alone and counts the heap allocations each one makes, so a move in
// perfbench's routeserver.join_us_per_rejoin or api.*_us can be traced to
// the codec (or cleared of it).
//
// Each row reports ns and allocations per operation as the min and the
// median over repetitions. Allocations are counted by replacing the global
// operator new in this binary.
//
//   bench_json [--quick] [--out <path>]
//
// --quick runs few repetitions (a smoke run for scripts/check.sh --bench);
// --out writes the rows as JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/rng.h"
#include "wire/tunnel.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC flags free() on memory from operator new even when both are replaced.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace rnl;

namespace {

/// The JOIN one perfbench fleet_rejoin site sends: one router with two
/// mapped ports (perfbench/fleet_rejoin.cpp, RouterInterface::map_port).
wire::JoinRequest fleet_join() {
  wire::JoinRequest join;
  join.site_name = "site-qwertyui";
  wire::RouterDeclaration router;
  router.name = join.site_name + "/h";
  router.description = "harness device";
  router.image_file = "h.png";
  for (int p = 0; p < 2; ++p) {
    wire::PortDeclaration port;
    port.name = "p" + std::to_string(p);
    port.description = port.name;
    port.nic = join.site_name + "-nic" + std::to_string(p + 1);
    port.rect_w = 40;
    port.rect_h = 20;
    router.ports.push_back(port);
  }
  join.routers.push_back(router);
  return join;
}

wire::JoinAck fleet_ack() {
  wire::JoinAck ack;
  ack.epoch = 3;
  ack.routers.push_back({514, {1027, 1028}});
  return ack;
}

/// The soak's epochs stream (core/chaos.cpp) as JournalStore writes it in a
/// snapshot: one member per site, names as perfbench draws them.
std::vector<std::pair<std::string, std::uint32_t>> epochs(std::size_t sites) {
  util::Rng rng(sites);
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (std::size_t i = 0; i < sites; ++i) {
    std::string name = "site-";
    for (int c = 0; c < 8; ++c) {
      name += static_cast<char>('a' + rng.below(26));
    }
    out.emplace_back(std::move(name),
                     static_cast<std::uint32_t>(rng.below(40)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Json epochs_snapshot(
    const std::vector<std::pair<std::string, std::uint32_t>>& sites) {
  util::Json state = util::Json::object();
  for (const auto& [site, next] : sites) state.set(site, next);
  util::Json entry = util::Json::object();
  entry.set("state", std::move(state));
  entry.set("tail", util::Json::array());
  util::Json streams = util::Json::object();
  streams.set("epochs", std::move(entry));
  util::Json snapshot = util::Json::object();
  snapshot.set("seq", static_cast<std::uint64_t>(sites.size()));
  snapshot.set("streams", std::move(streams));
  return snapshot;
}

struct Row {
  std::string name;
  std::size_t bytes = 0;
  double ns_min = 0;
  double ns_median = 0;
  double allocs_min = 0;
  double allocs_median = 0;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Runs `op` `inner` times per repetition; the sink keeps the optimizer
/// from discarding the work.
Row measure(const std::string& name, std::size_t bytes, int reps, int inner,
            const std::function<std::size_t()>& op) {
  std::vector<double> ns;
  std::vector<double> allocs;
  std::size_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t before = g_allocations.load();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < inner; ++i) sink += op();
    const auto stop = std::chrono::steady_clock::now();
    const std::uint64_t after = g_allocations.load();
    ns.push_back(std::chrono::duration<double, std::nano>(stop - start).count() /
                 inner);
    allocs.push_back(static_cast<double>(after - before) / inner);
  }
  if (sink == 0) std::fprintf(stderr, "%s: empty result\n", name.c_str());
  return {name,
          bytes,
          *std::min_element(ns.begin(), ns.end()),
          median(ns),
          *std::min_element(allocs.begin(), allocs.end()),
          median(allocs)};
}

std::size_t must_parse(const std::string& text) {
  auto parsed = util::Json::parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", parsed.error().c_str());
    std::exit(1);
  }
  return parsed->size();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  const int reps = quick ? 3 : 25;
  const int inner = quick ? 50 : 2000;
  std::vector<Row> rows;

  const wire::JoinRequest join = fleet_join();
  const std::string join_text = join.to_json().dump();
  rows.push_back(measure("join.parse", join_text.size(), reps, inner, [&] {
    auto parsed = util::Json::parse(join_text);
    auto request = wire::JoinRequest::from_json(*parsed);
    return request->routers.size();
  }));
  rows.push_back(measure("join.encode", join_text.size(), reps, inner,
                         [&] { return join.to_json().dump().size(); }));

  const wire::JoinAck ack = fleet_ack();
  const std::string ack_text = ack.to_json().dump();
  rows.push_back(measure("join_ack.encode", ack_text.size(), reps, inner,
                         [&] { return ack.to_json().dump().size(); }));
  rows.push_back(measure("join_ack.parse", ack_text.size(), reps, inner, [&] {
    auto parsed = util::Json::parse(ack_text);
    auto decoded = wire::JoinAck::from_json(*parsed);
    return decoded->routers.size();
  }));

  // lab_deploy's reserve call: the request ApiServer::handle_text parses,
  // the reply it builds and dumps, and the client's parse of that reply.
  const std::string request =
      R"({"method":"reserve","params":{"design_id":17,"start_s":86400,)"
      R"("end_s":86460}})";
  auto reply_json = [] {
    util::Json result = util::Json::object();
    result.set("reservation_id", 9);
    util::Json reply = util::Json::object();
    reply.set("ok", true);
    reply.set("result", std::move(result));
    return reply;
  };
  const std::string reply_text = reply_json().dump();
  rows.push_back(measure("api.request_parse", request.size(), reps, inner,
                         [&] { return must_parse(request); }));
  rows.push_back(measure("api.reply_encode", reply_text.size(), reps, inner,
                         [&] { return reply_json().dump().size(); }));
  rows.push_back(measure("api.reply_parse", reply_text.size(), reps, inner,
                         [&] { return must_parse(reply_text); }));

  for (std::size_t sites : {1'000, 16'000, 64'000}) {
    const auto members = epochs(sites);
    const std::string text = epochs_snapshot(members).dump();
    const int snapshot_reps = quick ? 2 : 15;
    const int snapshot_inner = std::max<int>(1, static_cast<int>(
                                                    (quick ? 2 : 20) * 1000 /
                                                    static_cast<int>(sites)));
    const std::string prefix = "epochs_" + std::to_string(sites / 1000) + "k";
    rows.push_back(measure(prefix + ".encode", text.size(), snapshot_reps,
                           snapshot_inner, [&] {
                             return epochs_snapshot(members).dump().size();
                           }));
    rows.push_back(measure(
        prefix + ".parse", text.size(), snapshot_reps, snapshot_inner, [&] {
          auto parsed = util::Json::parse(text);
          std::size_t sum = 0;
          const util::Json& state = (*parsed)["streams"]["epochs"]["state"];
          for (const auto& [site, next] : state.as_object()) {
            sum += site.size() + static_cast<std::size_t>(next.as_int());
          }
          return sum;
        }));
  }

  std::printf("%-20s %8s %12s %12s %10s %10s\n", "operation", "bytes",
              "ns_min", "ns_median", "allocs_min", "allocs_med");
  util::Json report = util::Json::object();
  util::Json json_rows = util::Json::array();
  for (const Row& row : rows) {
    std::printf("%-20s %8zu %12.0f %12.0f %10.1f %10.1f\n", row.name.c_str(),
                row.bytes, row.ns_min, row.ns_median, row.allocs_min,
                row.allocs_median);
    util::Json r = util::Json::object();
    r.set("name", row.name);
    r.set("bytes", static_cast<std::uint64_t>(row.bytes));
    r.set("ns_min", row.ns_min);
    r.set("ns_median", row.ns_median);
    r.set("allocs_min", row.allocs_min);
    r.set("allocs_median", row.allocs_median);
    json_rows.push_back(std::move(r));
  }
  report.set("quick", quick);
  report.set("rows", std::move(json_rows));
  if (!out_path.empty()) {
    std::ofstream(out_path) << report.dump_pretty() << "\n";
  }
  return 0;
}
