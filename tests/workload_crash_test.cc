// The crash-injection harness as a ctest: kill -9 at a few seeded WAL
// positions (including one after an epoch rotation), recover, and
// check recovered state against the committed-only oracle. The full
// sweep lives in CI / `oodb crash`; this keeps a few always-run
// points in the default suite.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "workload/crash_harness.h"

namespace oodb {
namespace {

class CrashHarnessTest : public ::testing::TestWithParam<int64_t> {
 protected:
  CrashHarnessConfig Config(const char* tag) const {
    CrashHarnessConfig config;
    config.dir = "/tmp/oodb_crash_ctest_" + std::string(tag) + "_" +
                 std::to_string(GetParam()) + "_" +
                 std::to_string(::getpid());
    std::filesystem::remove_all(config.dir);
    config.seed = 1234;
    config.txns = 48;
    config.threads = 2;
    config.crash_after_appends = GetParam();
    config.post_txns = 12;
    return config;
  }
};

TEST_P(CrashHarnessTest, CrashRecoverVerify) {
  CrashHarnessConfig config = Config("plain");
  CrashHarnessReport report = CrashHarness::Run(config);
  EXPECT_TRUE(report.crashed) << report.Row();
  EXPECT_TRUE(report.ok()) << report.failure << "\n" << report.Row();
  std::filesystem::remove_all(config.dir);
}

TEST_P(CrashHarnessTest, CrashRecoverVerifyAcrossCheckpoints) {
  CrashHarnessConfig config = Config("ckpt");
  // Rotate epochs mid-workload so crash points land after a rotation
  // and the oracle spans archived WALs.
  config.checkpoint_every_commits = 5;
  CrashHarnessReport report = CrashHarness::Run(config);
  EXPECT_TRUE(report.crashed) << report.Row();
  EXPECT_TRUE(report.ok()) << report.failure << "\n" << report.Row();
  std::filesystem::remove_all(config.dir);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashHarnessTest,
                         ::testing::Values(int64_t{7}, int64_t{31},
                                           int64_t{60}));

TEST(CrashHarnessCleanTest, NoCrashDegeneratesToRestartCheck) {
  CrashHarnessConfig config;
  config.dir =
      "/tmp/oodb_crash_ctest_clean_" + std::to_string(::getpid());
  std::filesystem::remove_all(config.dir);
  config.seed = 7;
  config.txns = 32;
  config.threads = 2;
  config.crash_after_appends = -1;  // child exits cleanly
  config.post_txns = 8;
  CrashHarnessReport report = CrashHarness::Run(config);
  EXPECT_FALSE(report.crashed);
  EXPECT_TRUE(report.ok()) << report.failure << "\n" << report.Row();
  std::filesystem::remove_all(config.dir);
}

}  // namespace
}  // namespace oodb
