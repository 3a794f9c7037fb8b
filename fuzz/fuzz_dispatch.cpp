// Differential fuzz harness for the route server's front door: the sharded
// dispatch layer, which sniffs a connection's JOIN, places the connection
// on its shard, and hands the shard the JOIN it already parsed.
//
// One client byte stream goes to two servers:
//   - a 1-shard cooperative ShardedRouteServer, through dispatch() and
//     pump_all() after every chunk;
//   - a plain RouteServer, through accept(), fed exactly the chunks the
//     shard's server sees: everything buffered before placement as one
//     chunk, then each later chunk as it arrives.
// With one shard both allocate the same ids, so whenever dispatch places
// the connection the two must end with equal counters and gauges, equal
// inventory and byte-identical replies: the JOIN the shard reuses must be
// the parse it would have made itself, applied to the same frame.
//
// Input: [8B seed prefix][client byte stream]. The prefix's low nibble e
// caps chunks at 2^e bytes (e == 15: the whole stream in one chunk); the
// rest of the prefix seeds the split points.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fuzz_util.h"
#include "routeserver/routeserver.h"
#include "routeserver/sharded.h"
#include "simnet/scheduler.h"
#include "transport/transport.h"
#include "util/json.h"
#include "util/metrics.h"

namespace {

using namespace rnl;

class LoopTransport;

/// The client's view of one connection: what the server sent back, and the
/// server-side transport while it exists.
struct Endpoint {
  util::Bytes replies;
  LoopTransport* transport = nullptr;  // null once the server freed it
};

/// Server end of a connection whose client is the harness: deliver() is a
/// readable event, and send() lands in the endpoint's replies.
class LoopTransport final : public transport::Transport {
 public:
  explicit LoopTransport(Endpoint& end) : end_(end) { end_.transport = this; }
  ~LoopTransport() override { end_.transport = nullptr; }
  LoopTransport(const LoopTransport&) = delete;
  LoopTransport& operator=(const LoopTransport&) = delete;

  void send(util::BytesView bytes) override {
    if (open_) end_.replies.insert(end_.replies.end(), bytes.begin(), bytes.end());
  }
  void close() override {
    if (!open_) return;
    open_ = false;
    if (close_) close_();
  }
  [[nodiscard]] bool is_open() const override { return open_; }
  void set_receive_handler(ReceiveHandler handler) override {
    receive_ = std::move(handler);
  }
  void set_close_handler(CloseHandler handler) override {
    close_ = std::move(handler);
  }

  void deliver(util::BytesView chunk) {
    if (open_ && receive_) receive_(chunk);
  }

 private:
  Endpoint& end_;
  ReceiveHandler receive_;
  CloseHandler close_;
  bool open_ = true;
};

void deliver(Endpoint& end, util::BytesView chunk) {
  if (end.transport != nullptr) end.transport->deliver(chunk);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t x = (state += 0x9E3779B97F4A7C15ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Counters and gauges of a server's registry; histograms hold wall-clock
/// timings and are left out.
util::Json ledger(const util::MetricsRegistry& metrics) {
  util::Json dump = metrics.to_json();
  util::Json out = util::Json::object();
  out.set("counters", dump["counters"]);
  out.set("gauges", dump["gauges"]);
  return out;
}

util::Json inventory_json(const std::vector<routeserver::InventoryRouter>& all) {
  util::Json out = util::Json::array();
  for (const auto& router : all) {
    util::Json r = util::Json::object();
    r.set("id", router.id);
    r.set("site", router.site);
    r.set("name", router.name);
    r.set("description", router.description);
    r.set("image", router.image_file);
    r.set("console", router.has_console);
    r.set("online", router.online);
    util::Json ports = util::Json::array();
    for (const auto& port : router.ports) {
      util::Json p = util::Json::object();
      p.set("id", port.id);
      p.set("name", port.name);
      p.set("description", port.description);
      util::Json rect = util::Json::array();
      for (int v : {port.rect_x, port.rect_y, port.rect_w, port.rect_h}) {
        rect.push_back(v);
      }
      p.set("rect", std::move(rect));
      ports.push_back(std::move(p));
    }
    r.set("ports", std::move(ports));
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 8 || size > (1u << 17)) return 0;
  std::uint64_t seed = rnl::fuzz::seed_prefix(data, size);
  const unsigned exponent = seed & 0xF;
  const std::size_t cap = exponent == 15 ? size : std::size_t{1} << exponent;
  const util::BytesView stream(data + 8, size - 8);

  // The endpoints outlive the servers, whose transports point at them.
  Endpoint front;
  Endpoint direct;
  routeserver::ShardedRouteServer::Options options;
  options.shards = 1;
  routeserver::ShardedRouteServer sharded(options);
  routeserver::RouteServer& shard = sharded.shard(0);
  simnet::Scheduler scheduler(1);
  util::MetricsRegistry plain_metrics;
  routeserver::RouteServer plain(scheduler, &plain_metrics);

  sharded.dispatch(std::make_unique<LoopTransport>(front));
  plain.accept(std::make_unique<LoopTransport>(direct));

  util::Bytes unplaced;  // chunks the shard has not seen yet
  bool placed = false;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t n =
        std::min<std::size_t>(stream.size() - at, 1 + splitmix64(seed) % cap);
    const util::BytesView chunk = stream.subspan(at, n);
    at += n;
    deliver(front, chunk);
    if (placed) {
      deliver(direct, chunk);
      continue;
    }
    unplaced.insert(unplaced.end(), chunk.begin(), chunk.end());
    sharded.pump_all();
    if (sharded.pending_dispatch() != 0) continue;
    if (shard.site_count() == 0) break;  // reaped: no JOIN, or a bad one
    // Placement replayed everything buffered in one chunk.
    placed = true;
    deliver(direct, unplaced);
  }
  sharded.pump_all();
  if (!placed) {
    deliver(direct, unplaced);  // the plain server must survive it too
    return 0;
  }

  FUZZ_ASSERT(shard.site_count() == 1);
  FUZZ_ASSERT(ledger(shard.metrics()) == ledger(plain_metrics));
  FUZZ_ASSERT(inventory_json(shard.inventory()) ==
              inventory_json(plain.inventory()));
  FUZZ_ASSERT(front.replies == direct.replies);
  return 0;
}
