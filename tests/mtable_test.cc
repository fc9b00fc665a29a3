// Tests for the Live Table Migration case study (§4): the fixed
// MigratingTable survives systematic differential testing against the
// reference table, and every re-introduced Table 2 bug is detected.
#include <gtest/gtest.h>

#include "core/systest.h"
#include "mtable/bugs.h"
#include "mtable/harness.h"
#include "tests/hang_guard.h"

namespace {

using mtable::EnableBug;
using mtable::MigrationHarnessOptions;
using mtable::MakeMigrationHarness;
using mtable::MTableBugId;
using systest::BugKind;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;

TestConfig Config(systest::StrategyName strategy, std::uint64_t iterations) {
  TestConfig config = mtable::DefaultConfig(strategy);
  config.iterations = iterations;
  return config;
}

TEST(MTableFixed, SurvivesDifferentialTestingRandom) {
  MigrationHarnessOptions options;  // no bugs
  const TestReport report =
      TestingEngine(Config("random", 4'000),
                    MakeMigrationHarness(options))
          .Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
  EXPECT_EQ(report.executions, 4'000u);
}

TEST(MTableFixed, SurvivesDifferentialTestingPct) {
  MigrationHarnessOptions options;
  const TestReport report =
      TestingEngine(Config("pct", 4'000),
                    MakeMigrationHarness(options))
          .Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

TEST(MTableFixed, SurvivesWithBiggerWorkload) {
  MigrationHarnessOptions options;
  options.num_services = 3;
  options.ops_per_service = 6;
  const TestReport report =
      TestingEngine(Config("random", 1'500),
                    MakeMigrationHarness(options))
          .Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

// One parameterized sweep over all eleven Table 2 bugs: each must be found
// by the random scheduler within the budget.
class MTableBugSweep : public ::testing::TestWithParam<MTableBugId> {};

TEST_P(MTableBugSweep, RandomSchedulerFindsBug) {
  MigrationHarnessOptions options;
  options.bugs = EnableBug(GetParam());
  TestConfig config = Config("random", 100'000);
  config.time_budget_seconds = systest::testing::kHangGuardSeconds;
  const TestReport report =
      TestingEngine(config, MakeMigrationHarness(options)).Run();
  ASSERT_TRUE(report.bug_found)
      << ToString(GetParam()) << ": " << report.Summary();
  EXPECT_EQ(report.bug_kind, BugKind::kSafety);
}

INSTANTIATE_TEST_SUITE_P(
    AllBugs, MTableBugSweep, ::testing::ValuesIn(mtable::kAllMTableBugs),
    [](const ::testing::TestParamInfo<MTableBugId>& info) {
      return std::string(ToString(info.param));
    });

TEST(MTableBugs, BugTraceReplaysDeterministically) {
  MigrationHarnessOptions options;
  options.bugs = EnableBug(MTableBugId::kInsertBehindMigrator);
  TestingEngine engine(Config("random", 100'000),
                       MakeMigrationHarness(options));
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);
  const TestReport replay = engine.Replay(report.bug_trace);
  ASSERT_TRUE(replay.bug_found);
  EXPECT_EQ(replay.bug_message, report.bug_message);
  EXPECT_EQ(replay.ndc, report.ndc);
}

// A scripted custom test case (the paper's mechanism for bugs whose
// triggering inputs are rare under the default distribution): a delete in a
// different partition right after an operation in another one pins
// DeletePrimaryKey deterministically enough to find it fast.
TEST(MTableBugs, CustomTestCasePinsDeletePrimaryKey) {
  using mtable::ScriptedOp;
  MigrationHarnessOptions options;
  options.bugs = EnableBug(MTableBugId::kDeletePrimaryKey);
  ScriptedOp touch_p0;
  touch_p0.kind = ScriptedOp::Kind::kRetrieve;
  touch_p0.partition = 0;
  touch_p0.row = 0;
  ScriptedOp delete_p1;
  delete_p1.kind = ScriptedOp::Kind::kDelete;
  delete_p1.partition = 1;
  delete_p1.row = 0;
  options.scripts = {{touch_p0, delete_p1}};
  options.num_services = 1;
  TestConfig config = Config("random", 20'000);
  const TestReport report =
      TestingEngine(config, MakeMigrationHarness(options)).Run();
  ASSERT_TRUE(report.bug_found) << report.Summary();
  EXPECT_LE(report.bug_iteration, 1'000u)
      << "the custom test case should trigger the bug quickly";
}

}  // namespace
