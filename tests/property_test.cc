// Cross-cutting property tests, parameterized over every buggy harness in
// the repository: the engine's replay and determinism guarantees must hold
// regardless of the system under test.
//
//  P1. Trace replay fidelity: replaying a recorded buggy trace reproduces
//      the same violation message with the same number of nondeterministic
//      choices.
//  P2. Textual round-trip: serializing the trace to its string form and
//      parsing it back yields an equivalent, still-replayable trace.
//  P3. Seed determinism: two engines with identical configuration find the
//      bug in the same iteration with identical traces.
//  P4. Seed sensitivity: the search is genuinely randomized — across several
//      seeds the buggy execution is not always literally the same trace.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/systest.h"
#include "fabric/harness.h"
#include "mtable/harness.h"
#include "samplerepl/harness.h"
#include "tests/hang_guard.h"
#include "vnext/harness.h"

namespace {

using systest::Harness;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using systest::Trace;

struct HarnessCase {
  const char* name;
  Harness (*make)();
  TestConfig (*config)();
};

TestConfig SmallConfig() {
  TestConfig config;
  config.iterations = 50'000;
  config.max_steps = 2'000;
  config.seed = 2016;
  config.time_budget_seconds = systest::testing::kHangGuardSeconds;
  return config;
}

Harness SampleReplSafety() {
  samplerepl::HarnessOptions options;
  options.bugs.non_unique_replica_count = true;
  return samplerepl::MakeHarness(options);
}

Harness SampleReplLiveness() {
  samplerepl::HarnessOptions options;
  options.bugs.no_counter_reset = true;
  return samplerepl::MakeHarness(options);
}

Harness VNextBuggy() {
  vnext::DriverOptions options;  // bug on by default
  return vnext::MakeExtentRepairHarness(options);
}

TestConfig VNextConfig() {
  TestConfig config = vnext::DefaultConfig("random");
  config.iterations = 5'000;
  config.time_budget_seconds = systest::testing::kHangGuardSeconds;
  return config;
}

Harness MTableInsertBehind() {
  mtable::MigrationHarnessOptions options;
  options.bugs = EnableBug(mtable::MTableBugId::kInsertBehindMigrator);
  return mtable::MakeMigrationHarness(options);
}

Harness MTableSwitchFromPopulated() {
  mtable::MigrationHarnessOptions options;
  options.bugs =
      EnableBug(mtable::MTableBugId::kEnsurePartitionSwitchedFromPopulated);
  return mtable::MakeMigrationHarness(options);
}

TestConfig MTableConfig() {
  TestConfig config = mtable::DefaultConfig("random");
  config.time_budget_seconds = systest::testing::kHangGuardSeconds;
  return config;
}

Harness FabricPromote() {
  fabric::FailoverOptions options;
  options.bugs.promote_during_copy = true;
  return fabric::MakeFailoverHarness(options);
}

Harness FabricPipeline() {
  fabric::PipelineOptions options;
  options.bugs.unguarded_pipeline_config = true;
  return fabric::MakePipelineHarness(options);
}

TestConfig FabricConfig() {
  TestConfig config = fabric::DefaultConfig("random");
  config.time_budget_seconds = systest::testing::kHangGuardSeconds;
  return config;
}

const HarnessCase kCases[] = {
    {"SampleReplSafety", &SampleReplSafety, &SmallConfig},
    {"SampleReplLiveness", &SampleReplLiveness, &SmallConfig},
    {"VNextLiveness", &VNextBuggy, &VNextConfig},
    {"MTableInsertBehindMigrator", &MTableInsertBehind, &MTableConfig},
    {"MTableEnsureSwitched", &MTableSwitchFromPopulated, &MTableConfig},
    {"FabricPromoteDuringCopy", &FabricPromote, &FabricConfig},
    {"FabricPipelineNullRef", &FabricPipeline, &FabricConfig},
};

class BuggyHarnessProperty : public ::testing::TestWithParam<HarnessCase> {};

TEST_P(BuggyHarnessProperty, ReplayReproducesViolationExactly) {  // P1
  const HarnessCase& test_case = GetParam();
  TestingEngine engine(test_case.config(), test_case.make());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found) << report.Summary();

  const TestReport replay = engine.Replay(report.bug_trace);
  ASSERT_TRUE(replay.bug_found) << "replay lost the violation";
  EXPECT_EQ(replay.bug_kind, report.bug_kind);
  EXPECT_EQ(replay.bug_message, report.bug_message);
  EXPECT_EQ(replay.ndc, report.ndc);
  EXPECT_EQ(replay.bug_steps, report.bug_steps);
}

TEST_P(BuggyHarnessProperty, TraceSurvivesTextRoundTrip) {  // P2
  const HarnessCase& test_case = GetParam();
  TestingEngine engine(test_case.config(), test_case.make());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);

  const Trace parsed = Trace::Parse(report.bug_trace.ToString());
  EXPECT_EQ(parsed, report.bug_trace);
  const TestReport replay = engine.Replay(parsed);
  EXPECT_TRUE(replay.bug_found);
  EXPECT_EQ(replay.bug_message, report.bug_message);
}

TEST_P(BuggyHarnessProperty, IdenticalSeedsAreDeterministic) {  // P3
  const HarnessCase& test_case = GetParam();
  const TestReport a =
      TestingEngine(test_case.config(), test_case.make()).Run();
  const TestReport b =
      TestingEngine(test_case.config(), test_case.make()).Run();
  ASSERT_TRUE(a.bug_found);
  ASSERT_TRUE(b.bug_found);
  EXPECT_EQ(a.bug_iteration, b.bug_iteration);
  EXPECT_EQ(a.bug_message, b.bug_message);
  EXPECT_EQ(a.bug_trace, b.bug_trace);
}

TEST_P(BuggyHarnessProperty, DifferentSeedsExploreDifferentSchedules) {  // P4
  const HarnessCase& test_case = GetParam();
  std::set<std::string> traces;
  for (const std::uint64_t seed : {1ull, 99ull, 777ull}) {
    TestConfig config = test_case.config();
    config.seed = seed;
    const TestReport report =
        TestingEngine(config, test_case.make()).Run();
    if (report.bug_found) {
      traces.insert(report.bug_trace.ToString());
    }
  }
  EXPECT_GE(traces.size(), 2u)
      << "three seeds produced at most one distinct buggy schedule — the "
         "search does not look randomized";
}

INSTANTIATE_TEST_SUITE_P(
    AllBuggyHarnesses, BuggyHarnessProperty, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<HarnessCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
