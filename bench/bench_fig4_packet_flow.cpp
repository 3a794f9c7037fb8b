// E3 (Fig 4): the packet flow — capture -> wrap -> route server -> unwrap ->
// replay.
//
// Micro-benchmarks (google-benchmark) of each stage of the paper's data
// path, plus the whole path end to end, as a function of frame size:
//   - tunnel encode (wrap "the complete packet in an IP packet which
//     includes the port's and router's unique id"),
//   - tunnel decode (stream reassembly + header parse),
//   - routing-matrix lookup,
//   - full RIS -> route server -> RIS traversal per frame.

#include <benchmark/benchmark.h>

#include "core/testbed.h"
#include "must.h"
#include "wire/tunnel.h"

using namespace rnl;

namespace {

util::Bytes make_frame(std::size_t payload) {
  packet::EthernetFrame frame;
  frame.dst = packet::MacAddress::local(1);
  frame.src = packet::MacAddress::local(2);
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload.resize(payload, 0x5A);
  return frame.serialize();
}

void BM_TunnelEncode(benchmark::State& state) {
  wire::TunnelMessage msg;
  msg.type = wire::MessageType::kData;
  msg.router_id = 12;
  msg.port_id = 34;
  msg.payload = make_frame(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_message(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg.payload.size()));
}
BENCHMARK(BM_TunnelEncode)->Arg(64)->Arg(512)->Arg(1500)->Arg(9000);

void BM_TunnelDecode(benchmark::State& state) {
  wire::TunnelMessage msg;
  msg.type = wire::MessageType::kData;
  msg.payload = make_frame(static_cast<std::size_t>(state.range(0)));
  util::Bytes wire_bytes = wire::encode_message(msg);
  wire::MessageDecoder decoder;
  for (auto _ : state) {
    auto out = decoder.feed(wire_bytes);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire_bytes.size()));
}
BENCHMARK(BM_TunnelDecode)->Arg(64)->Arg(512)->Arg(1500)->Arg(9000);

void BM_RoutingMatrixLookup(benchmark::State& state) {
  // A route server with many wires; measure connected_to() lookups.
  simnet::Network net(9);
  routeserver::RouteServer server(net.scheduler());
  ris::RouterInterface site(net, "s");
  std::vector<std::unique_ptr<devices::Host>> hosts;
  std::size_t n_ports = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n_ports; ++i) {
    hosts.push_back(
        std::make_unique<devices::Host>(net, "h" + std::to_string(i)));
    std::size_t idx = site.add_router(hosts.back().get(), "h", "h.png");
    site.map_port(idx, 0, "eth0");
  }
  auto [a, b] = transport::make_sim_stream_pair(net.scheduler());
  server.accept(std::move(b));
  site.join(std::move(a));
  net.run_for(util::Duration::seconds(1));
  auto inventory = server.inventory();
  for (std::size_t i = 0; i + 1 < inventory.size(); i += 2) {
    must(server.connect_ports(inventory[i].ports[0].id,
                              inventory[i + 1].ports[0].id));
  }
  wire::PortId probe = inventory[inventory.size() / 2].ports[0].id;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.connected_to(probe));
  }
}
BENCHMARK(BM_RoutingMatrixLookup)->Arg(16)->Arg(256)->Arg(1024);

/// Full Fig 4 path: host A transmits -> RIS wraps -> WAN -> route server
/// matrix -> WAN -> RIS unwraps -> host B port. Measured per frame,
/// including all simulated-event overhead (wall time).
void BM_EndToEndPath(benchmark::State& state) {
  core::Testbed bed(4, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("s");
  devices::TrafficGenerator& gen = bed.add_traffgen(site, "gen", 2);
  bed.join_all();
  must(bed.server().connect_ports(bed.port_id("s/gen", "port1"),
                                  bed.port_id("s/gen", "port2")));
  util::Bytes frame = make_frame(static_cast<std::size_t>(state.range(0)));
  std::size_t sent = 0;
  for (auto _ : state) {
    gen.port(0).transmit(frame);
    ++sent;
    // Bounded drain: run_all() would chase the service's periodic timers
    // forever; 1 ms of virtual time covers the zero-delay LAN tunnel.
    bed.net().run_for(util::Duration::milliseconds(1));
  }
  if (gen.captured(1).size() != sent) {
    state.SkipWithError("frames lost on the virtual wire");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_EndToEndPath)->Arg(64)->Arg(512)->Arg(1500);

}  // namespace

BENCHMARK_MAIN();
