// E2 (Fig 2, §2.1): the service plane — design sessions, the reservation
// calendar, and deploy/teardown.
//
// google-benchmark micro-benchmarks for each web-server operation a user's
// mouse (or the web-services API) triggers: building designs, saving and
// re-loading them, calendar searches under contention, and the full
// deploy/teardown cycle against a live route server.

#include <benchmark/benchmark.h>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

void BM_DesignBuild(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::TopologyDesign design("bench");
    for (std::size_t i = 0; i < n; ++i) {
      must(design.add_router(static_cast<wire::RouterId>(i + 1)));
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      must(design.connect(static_cast<wire::PortId>(2 * i + 1),
                          static_cast<wire::PortId>(2 * i + 2)));
    }
    benchmark::DoNotOptimize(design);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DesignBuild)->Arg(8)->Arg(64)->Arg(512);

void BM_DesignJsonRoundTrip(benchmark::State& state) {
  core::TopologyDesign design("bench");
  std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    must(design.add_router(static_cast<wire::RouterId>(i + 1)));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    must(design.connect(static_cast<wire::PortId>(2 * i + 1),
                        static_cast<wire::PortId>(2 * i + 2),
                        wire::NetemProfile::metro()));
  }
  for (auto _ : state) {
    std::string json = design.to_json().dump();
    auto back = core::TopologyDesign::from_json(*util::Json::parse(json));
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_DesignJsonRoundTrip)->Arg(8)->Arg(64)->Arg(512);

void BM_CalendarReserve(benchmark::State& state) {
  // Ever-growing calendar: measures reserve() as contention accumulates.
  core::ReservationCalendar calendar;
  std::int64_t slot = 0;
  for (auto _ : state) {
    auto id = calendar.reserve(
        "user", {1, 2, 3},
        util::SimTime{slot * 3'600'000'000'000},
        util::SimTime{(slot + 1) * 3'600'000'000'000});
    benchmark::DoNotOptimize(id);
    ++slot;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarReserve);

void BM_CalendarNextFreeSlot(benchmark::State& state) {
  core::ReservationCalendar calendar;
  std::size_t bookings = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < bookings; ++i) {
    must(calendar.reserve("u" + std::to_string(i % 7),
                          {static_cast<wire::RouterId>(1 + i % 5)},
                          util::SimTime{static_cast<std::int64_t>(i) *
                                        3'600'000'000'000},
                          util::SimTime{static_cast<std::int64_t>(i + 1) *
                                        3'600'000'000'000}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(calendar.next_common_free_slot(
        {1, 2, 3, 4, 5}, util::Duration::hours(2), util::SimTime{}));
  }
}
BENCHMARK(BM_CalendarNextFreeSlot)->Arg(16)->Arg(128)->Arg(1024);

/// The full mouse-journey: deploy + teardown of an existing design against
/// a live route server with real (simulated) RIS sites behind it.
void BM_DeployTeardownCycle(benchmark::State& state) {
  core::Testbed bed(31337, wire::NetemProfile::lan());
  ris::RouterInterface& site = bed.add_site("dc");
  std::size_t pairs = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < pairs * 2; ++i) {
    bed.add_host(site, "h" + std::to_string(i));
  }
  bed.join_all();
  core::LabService& service = bed.service();
  core::DesignId id = service.create_design("bench", "cycle");
  core::TopologyDesign* design = service.design(id);
  for (std::size_t i = 0; i < pairs * 2; ++i) {
    must(design->add_router(bed.router_id("dc/h" + std::to_string(i))));
  }
  for (std::size_t i = 0; i < pairs; ++i) {
    must(design->connect(
        bed.port_id("dc/h" + std::to_string(2 * i), "eth0"),
        bed.port_id("dc/h" + std::to_string(2 * i + 1), "eth0")));
  }
  util::SimTime now = bed.net().now();
  must(service.reserve(id, now, now + util::Duration::hours(24)));
  for (auto _ : state) {
    auto deployment = service.deploy(id);
    if (!deployment.ok()) state.SkipWithError(deployment.error().c_str());
    must(service.teardown(*deployment));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_DeployTeardownCycle)->Arg(1)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
