#pragma once

// Deterministic fleet-scale chaos soak (DESIGN.md §14, EXPERIMENTS.md E14).
//
// The paper's deployment is a fleet: hundreds of RIS sites behind home and
// office NATs, one shared central server, and every failure mode the public
// internet offers. This harness builds that world inside one discrete-event
// simulation — ≥1k sites joined to a sharded route server, a live service
// plane (LabService + ApiServer, journal-backed) taking reserve/deploy
// traffic — and drives it through a *seeded, replayable* fault schedule:
// link cuts, receive-window stalls with overload waves, sites that vanish
// forever (retention), and full route-server kill/restart cycles recovered
// from the write-ahead journal.
//
// Everything is a pure function of the seed: the schedule is generated up
// front (ChaosSchedule::generate), the world runs on one simnet scheduler,
// and every random draw comes from streams derived with util::derive_seed.
// Re-running with the same FleetOptions replays the identical run — which
// is what makes a soak failure debuggable instead of anecdotal.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/time.h"

namespace rnl::core::chaos {

struct FleetOptions {
  std::uint64_t seed = 42;
  /// Total simulated RIS sites. The first `service_sites` of them are
  /// pinned to shard 0 (so the service plane, which fronts shard 0's
  /// RouteServer, can deploy across them); the rest are churn fodder
  /// hashed across all shards.
  std::size_t sites = 1000;
  std::size_t shards = 4;
  std::size_t service_sites = 16;
  /// Virtual length of each of the six phases (join, churn, stall,
  /// restart, abandon-churn, settle).
  util::Duration phase_len{util::Duration::seconds(15)};
  /// Reserve→deploy→teardown cycles spread across phases 1..5.
  std::size_t deploys = 60;
  /// Fraction of churn sites cut (both close handlers fire, RIS redials)
  /// per churn phase.
  double cut_fraction = 0.12;
  /// Fraction of churn sites stalled (zero receive window) in the stall
  /// phase; each stall resumes 1–3 s later.
  double stall_fraction = 0.05;
  /// Traffic bursts pushed toward stalled sites during the stall phase
  /// (exercises egress shedding/eviction under backpressure).
  std::size_t overload_bursts = 3;
  /// Churn sites cut in phase 4 that never redial; the retention sweep
  /// must forget their parked inventory before the run ends.
  std::size_t abandons = 8;
  /// Route-server kill/restart cycles in the restart phase. The first
  /// restart also tears the journal tail (a mid-append crash) so recovery
  /// exercises torn-tail truncation, not just clean replay.
  std::size_t server_restarts = 1;
  /// Directory for the JournalStore (journal.log / snapshot.json). The
  /// soak wipes and recreates it.
  std::string store_root;
  /// fsync journal appends. Off by default: the soak measures orchestration
  /// and recovery logic, not disk latency; the kill-point matrix test
  /// covers durability.
  bool fsync = false;

  // Server knobs, scaled for virtual time.
  util::Duration keepalive{util::Duration::milliseconds(500)};
  util::Duration liveness_timeout{util::Duration::seconds(2)};
  util::Duration retention_deadline{util::Duration::seconds(8)};
};

/// One scheduled fault/load event. `target` is an index into the churn-site
/// range for site-directed ops, the restart ordinal for kRestartServer, and
/// the cycle ordinal for kDeployCycle.
struct ChaosEvent {
  enum class Op {
    kCut,            // sever the site's tunnel; RIS redials with backoff
    kStall,          // park deliveries toward the site (zero receive window)
    kResume,         // clear the site's stall
    kAbandon,        // cut and never redial (retention must forget it)
    kRestartServer,  // kill store+server+service, recover from the journal
    kOverloadBurst,  // blast traffic toward currently-stalled sites
    kDeployCycle,    // one reserve→deploy→teardown through the API
  };
  util::SimTime at{};
  Op op{};
  std::uint32_t target = 0;
};

const char* to_string(ChaosEvent::Op op);

/// The full fault schedule, generated up front from the options — a pure
/// function, so tests can assert determinism without running the fleet.
struct ChaosSchedule {
  std::vector<ChaosEvent> events;  // sorted by `at`, ties in emit order

  [[nodiscard]] static ChaosSchedule generate(const FleetOptions& options);
  [[nodiscard]] util::Json to_json() const;
};

/// Outcome of a soak run. `ok` is the AND of every invariant the soak
/// asserts (all listed in `failures` when violated); `report` is the
/// BENCH_fleet.json payload.
struct FleetReport {
  bool ok = false;
  std::vector<std::string> failures;
  util::Json report;
};

/// Builds the fleet, runs the schedule, checks the invariants:
///   - every non-abandoned site is joined at the end, with a session epoch
///     that never went backwards (across cuts AND server restarts);
///   - no connection is stuck in dispatch;
///   - server memory is bounded: zero retained ports at the end (abandoned
///     inventory was forgotten) and the port table never exceeds the live
///     fleet's footprint;
///   - the journal recovered at every restart (recoveries ≥ restarts, and
///     the injected torn tail was truncated);
///   - deploys kept succeeding through the chaos.
FleetReport run_fleet_soak(const FleetOptions& options);

}  // namespace rnl::core::chaos
