// LabService persistence: designs and archived configs written through the
// journal survive a service restart.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "core/journal.h"
#include "core/testbed.h"

namespace rnl::core {
namespace {

using util::Duration;

class TempDir {
 public:
  TempDir() {
    std::string pattern = std::filesystem::temp_directory_path() /
                          "rnl-store-XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    path_ = mkdtemp(buffer.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Persistence, DesignsSurviveServiceRestart) {
  TempDir dir;
  JournalStore store(dir.path());
  wire::RouterId router_id = 0;
  {
    Testbed bed(1401, wire::NetemProfile::lan());
    auto& site = bed.add_site("hq");
    bed.add_host(site, "h1");
    bed.join_all();
    bed.service().attach_store(&store);
    router_id = bed.router_id("hq/h1");
    DesignId id = bed.service().create_design("alice", "durable");
    bed.service().design(id)->add_router(router_id);
    ASSERT_TRUE(bed.service().save_design(id).ok());
  }
  // A brand-new world (fresh service, fresh ids) sees the stored design.
  Testbed bed2(1402, wire::NetemProfile::lan());
  auto& site2 = bed2.add_site("hq");
  bed2.add_host(site2, "h1");
  bed2.join_all();
  bed2.service().attach_store(&store);
  auto loaded = bed2.service().load_design("alice", "durable");
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(bed2.service().design(*loaded)->name(), "durable");
}

TEST(Persistence, ConfigArchiveSurvivesRestartByName) {
  TempDir dir;
  JournalStore store(dir.path());
  {
    Testbed bed(1403, wire::NetemProfile::lan());
    auto& site = bed.add_site("hq");
    bed.add_host(site, "h1");
    bed.join_all();
    bed.service().attach_store(&store);
    wire::RouterId id = bed.router_id("hq/h1");
    bed.service().console_exec(id, "enable");
    bed.service().console_exec(id, "configure terminal");
    bed.service().console_exec(id, "ip address 10.5.5.5/24 10.5.5.1");
    bed.service().console_exec(id, "end");
    ASSERT_TRUE(bed.service().save_router_config(id).ok());
  }
  Testbed bed2(1404, wire::NetemProfile::lan());
  auto& site2 = bed2.add_site("hq");
  bed2.add_host(site2, "h1");
  bed2.join_all();
  bed2.service().attach_store(&store);
  // Different run, different router id — the name-keyed archive resolves.
  auto archived = bed2.service().archived_config(bed2.router_id("hq/h1"));
  ASSERT_TRUE(archived.has_value());
  EXPECT_NE(archived->find("ip address 10.5.5.5/24"), std::string::npos);
}

}  // namespace
}  // namespace rnl::core
