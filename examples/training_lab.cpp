// §3.4 Training: "With RNL, we are no longer bounded by a few [topologies],
// but instead, we can experiment with a variety of topologies to gain a full
// understanding of the effects of router configuration."
//
// An instructor prepares three saved topology designs over the SAME four
// routers (a chain, a star, and a ring). Students book back-to-back calendar
// slots; each session loads a different stored design, deploys it, explores
// it from the console, and hands the equipment to the next session — no
// rewiring, ever.
//
// Run: ./build/examples/training_lab

#include <cstdio>

#include "core/testbed.h"
#include "must.h"

using namespace rnl;

namespace {

/// Builds and stores the three lesson designs under the instructor's user.
void prepare_lessons(core::Testbed& bed) {
  core::LabService& service = bed.service();
  auto port = [&](int router, const char* ifname) {
    return bed.port_id("trainlab/r" + std::to_string(router), ifname);
  };
  auto with_routers = [&](core::TopologyDesign* design) {
    for (int i = 0; i < 4; ++i) {
      must(design->add_router(bed.router_id("trainlab/r" + std::to_string(i))));
    }
  };

  core::DesignId chain = service.create_design("instructor", "lesson1-chain");
  with_routers(service.design(chain));
  must(service.design(chain)->connect(port(0, "Gi0/2"), port(1, "Gi0/1")));
  must(service.design(chain)->connect(port(1, "Gi0/2"), port(2, "Gi0/1")));
  must(service.design(chain)->connect(port(2, "Gi0/2"), port(3, "Gi0/1")));
  must(service.save_design(chain));

  core::DesignId star = service.create_design("instructor", "lesson2-star");
  with_routers(service.design(star));
  must(service.design(star)->connect(port(0, "Gi0/1"), port(1, "Gi0/1")));
  must(service.design(star)->connect(port(0, "Gi0/2"), port(2, "Gi0/1")));
  must(service.design(star)->connect(port(0, "Gi0/3"), port(3, "Gi0/1")));
  must(service.save_design(star));

  core::DesignId ring = service.create_design("instructor", "lesson3-ring");
  with_routers(service.design(ring));
  must(service.design(ring)->connect(port(0, "Gi0/2"), port(1, "Gi0/1")));
  must(service.design(ring)->connect(port(1, "Gi0/2"), port(2, "Gi0/1")));
  must(service.design(ring)->connect(port(2, "Gi0/2"), port(3, "Gi0/1")));
  must(service.design(ring)->connect(port(3, "Gi0/2"), port(0, "Gi0/1")));
  must(service.save_design(ring));
}

}  // namespace

int main() {
  core::Testbed bed(2024);
  ris::RouterInterface& site = bed.add_site("trainlab");
  for (int i = 0; i < 4; ++i) {
    bed.add_router(site, "r" + std::to_string(i), 3);
  }
  bed.join_all();
  core::LabService& service = bed.service();
  prepare_lessons(bed);

  // The instructor's designs are shared as exported JSON; each student
  // imports a copy into their own session (per-user storage, §2.1).
  const char* lessons[] = {"lesson1-chain", "lesson2-star", "lesson3-ring"};
  const char* students[] = {"amara", "bo", "chen"};

  for (int lesson = 0; lesson < 3; ++lesson) {
    core::DesignId instructor_copy =
        *service.load_design("instructor", lessons[lesson]);
    std::string exported = *service.export_design(instructor_copy);
    core::DesignId student_copy =
        *service.import_design(students[lesson], exported);

    // Each student books the next slot the whole pod is free.
    util::SimTime start =
        service.next_free_slot(student_copy, util::Duration::hours(1));
    auto reservation = service.reserve(student_copy, start,
                                       start + util::Duration::hours(1));
    if (!reservation.ok()) {
      std::fprintf(stderr, "reserve failed: %s\n", reservation.error().c_str());
      return 1;
    }
    // Fast-forward the lab clock to the slot, then deploy.
    util::Duration until_start = start - bed.net().now();
    if (until_start.nanos > 0) bed.run_for(until_start);
    auto deployment = service.deploy(student_copy);
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n", deployment.error().c_str());
      return 1;
    }

    std::printf("=== %s deploys '%s' at %s ===\n", students[lesson],
                lessons[lesson], util::to_string(start).c_str());
    std::printf("  wires: %zu, routers shared with every other lesson\n",
                service.design(student_copy)->links().size());
    // The student pokes at the first router's console.
    wire::RouterId r0 = bed.router_id("trainlab/r0");
    service.console_exec(r0, "enable");
    std::string version = service.console_exec(r0, "show version");
    std::size_t cut = version.find('\n');
    std::printf("  r0 console: %s\n",
                version.substr(0, cut == std::string::npos ? version.size()
                                                           : cut)
                    .c_str());
    must(service.teardown(*deployment));
  }

  std::printf(
      "\nThree different topologies, three students, zero cable changes —\n"
      "the same four routers served every lesson (§3.4).\n");
  return 0;
}
