// E9 (§3.5): accuracy of delay/jitter injection on virtual wires.
//
// For each WAN profile we send a probe stream across a deployed virtual wire
// and compare the measured one-way delay distribution against what was
// configured: mean error, spread vs configured jitter, observed loss vs
// configured loss. This validates the machinery the application-testing use
// case depends on.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

struct Measured {
  double mean_ms = 0;
  double p5_ms = 0;
  double p95_ms = 0;
  double loss_pct = 0;
  std::size_t samples = 0;
};

Measured measure(wire::NetemProfile profile, std::size_t probes) {
  core::Testbed bed(
      7000 + static_cast<std::uint64_t>(profile.delay.nanos % 1009),
      wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("lab");
  devices::TrafficGenerator& gen = bed.add_traffgen(site, "gen", 2);
  bed.join_all();

  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("qa", "netem-check");
  core::TopologyDesign* design = service.design(id);
  must(design->add_router(bed.router_id("lab/gen")));
  must(design->connect(bed.port_id("lab/gen", "port1"),
                       bed.port_id("lab/gen", "port2"), profile));
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(1)));
  auto deployment = service.deploy(id);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
    std::exit(1);
  }

  packet::EthernetFrame frame;
  frame.dst = packet::MacAddress::local(1);
  frame.src = packet::MacAddress::local(2);
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload.resize(256, 0x11);
  devices::TrafficGenerator::Stream stream;
  stream.template_frame = frame.serialize();
  stream.count = static_cast<std::uint32_t>(probes);
  stream.interval = util::Duration::milliseconds(2);
  stream.seq_offset = 14;  // stamped into the IP header area; payload opaque
  util::SimTime start = bed.net().now();
  gen.start_stream(0, stream);
  bed.run_for(util::Duration::seconds(
      static_cast<std::int64_t>(probes / 500 + 5)));

  // Recover per-frame one-way delay from capture timestamps: emit time of
  // frame k is start + k * interval; the stamped sequence tells us k even
  // when frames were lost.
  std::vector<double> delays_ms;
  for (const auto& captured : gen.captured(1)) {
    std::uint32_t seq = (static_cast<std::uint32_t>(captured.frame[14]) << 24) |
                        (static_cast<std::uint32_t>(captured.frame[15]) << 16) |
                        (static_cast<std::uint32_t>(captured.frame[16]) << 8) |
                        static_cast<std::uint32_t>(captured.frame[17]);
    util::SimTime emitted =
        start + util::Duration::milliseconds(2) * static_cast<std::int64_t>(seq);
    delays_ms.push_back((captured.at - emitted).to_millis());
  }
  std::sort(delays_ms.begin(), delays_ms.end());
  Measured m;
  m.samples = delays_ms.size();
  m.loss_pct = 100.0 * (1.0 - static_cast<double>(delays_ms.size()) /
                                  static_cast<double>(probes));
  if (!delays_ms.empty()) {
    double sum = 0;
    for (double d : delays_ms) sum += d;
    m.mean_ms = sum / static_cast<double>(delays_ms.size());
    m.p5_ms = delays_ms[delays_ms.size() * 5 / 100];
    m.p95_ms = delays_ms[delays_ms.size() * 95 / 100];
  }
  return m;
}

}  // namespace

int main() {
  std::printf("E9 / §3.5 — delay & jitter injection accuracy (2000 probes)\n");
  std::printf("%-20s %12s | %10s %10s %10s %9s\n", "profile",
              "configured", "mean(ms)", "p5(ms)", "p95(ms)", "loss%");
  struct Case {
    const char* name;
    wire::NetemProfile profile;
  } cases[] = {
      {"clean LAN", wire::NetemProfile::lan()},
      {"metro", wire::NetemProfile::metro()},
      {"fixed 25ms", {.delay = util::Duration::milliseconds(25)}},
      {"25ms +-5ms uniform",
       {.delay = util::Duration::milliseconds(25),
        .jitter = util::Duration::milliseconds(5)}},
      {"transcontinental", wire::NetemProfile::transcontinental()},
      {"intercontinental", wire::NetemProfile::intercontinental()},
  };
  for (const auto& test_case : cases) {
    Measured m = measure(test_case.profile, 2000);
    char configured[32];
    std::snprintf(configured, sizeof configured, "%.0f+-%.0fms",
                  test_case.profile.delay.to_millis(),
                  test_case.profile.jitter.to_millis());
    std::printf("%-20s %12s | %10.3f %10.3f %10.3f %8.2f%%\n", test_case.name,
                configured, m.mean_ms, m.p5_ms, m.p95_ms, m.loss_pct);
  }
  std::printf(
      "\nShape check: measured mean tracks the configured delay (plus the\n"
      "small fixed tunnel cost); p5/p95 spread tracks configured jitter;\n"
      "loss matches the configured probability. Note FIFO delivery: jitter\n"
      "never reorders the TCP-carried tunnel.\n");
  return 0;
}
