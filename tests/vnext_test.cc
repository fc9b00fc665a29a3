// Tests for the Azure Storage vNext case study: unit tests of the real
// ExtentManager component, and systematic tests that reproduce (and verify
// the fix of) the ExtentNodeLivenessViolation bug of paper §3.6.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/systest.h"
#include "vnext/extent_center.h"
#include "vnext/extent_manager.h"
#include "vnext/harness.h"

namespace {

using systest::BugKind;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using vnext::DriverOptions;
using vnext::ExtentCenter;
using vnext::ExtentManager;
using vnext::ExtentManagerOptions;
using vnext::ExtentRecord;
using vnext::HeartbeatMessage;
using vnext::MakeExtentRepairHarness;
using vnext::Message;
using vnext::NodeId;
using vnext::RepairRequestMessage;
using vnext::SyncReportMessage;

// ---------------------------------------------------------------------------
// ExtentCenter unit tests.

TEST(ExtentCenter, SyncReportAttributesAndRemoves) {
  ExtentCenter center;
  center.ApplySyncReport(1, {{10, 1}, {11, 1}});
  center.ApplySyncReport(2, {{10, 1}});
  EXPECT_EQ(center.ReplicaCount(10), 2u);
  EXPECT_EQ(center.ReplicaCount(11), 1u);
  // Node 1's next report no longer lists extent 11: it must be dropped.
  center.ApplySyncReport(1, {{10, 1}});
  EXPECT_EQ(center.ReplicaCount(11), 0u);
  EXPECT_EQ(center.ReplicaCount(10), 2u);
}

TEST(ExtentCenter, RemoveNodeDeletesAllRecords) {
  ExtentCenter center;
  center.ApplySyncReport(1, {{10, 1}, {11, 1}});
  center.ApplySyncReport(2, {{10, 1}});
  center.RemoveNode(1);
  EXPECT_EQ(center.ReplicaCount(10), 1u);
  EXPECT_EQ(center.ReplicaCount(11), 0u);
  EXPECT_FALSE(center.HasReplicaAt(10, 1));
  EXPECT_TRUE(center.HasReplicaAt(10, 2));
}

TEST(ExtentCenter, ExtentsBelowTargetAndLocations) {
  ExtentCenter center;
  center.ApplySyncReport(1, {{10, 1}});
  center.ApplySyncReport(2, {{10, 1}});
  center.ApplySyncReport(3, {{20, 1}});
  const auto below = center.ExtentsBelow(2);
  ASSERT_EQ(below.size(), 1u);
  EXPECT_EQ(below[0], 20u);
  const auto locations = center.ReplicaLocations(10);
  EXPECT_EQ(locations, (std::vector<NodeId>{1, 2}));
}

TEST(ExtentCenter, RecordsAtBuildsSyncReports) {
  ExtentCenter center;
  center.AddOrUpdate(5, {100, 7});
  center.AddOrUpdate(5, {101, 3});
  center.AddOrUpdate(6, {100, 7});
  const auto records = center.RecordsAt(5);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].extent, 100u);
  EXPECT_EQ(records[0].version, 7u);
  EXPECT_EQ(records[1].extent, 101u);
}

// ---------------------------------------------------------------------------
// ExtentManager unit tests: a scripted network engine captures repairs.

class CapturingNetwork final : public vnext::NetworkEngine {
 public:
  void SendMessage(NodeId destination,
                   std::shared_ptr<const Message> message) override {
    sent.emplace_back(destination, std::move(message));
  }
  std::vector<std::pair<NodeId, std::shared_ptr<const Message>>> sent;
};

ExtentManagerOptions FixedOptions() {
  ExtentManagerOptions options;
  options.fix_stale_sync_report = true;
  return options;
}

TEST(ExtentManager, HeartbeatRegistersNode) {
  ExtentManager manager(FixedOptions());
  EXPECT_FALSE(manager.KnowsNode(1));
  manager.ProcessMessage(HeartbeatMessage(1));
  EXPECT_TRUE(manager.KnowsNode(1));
}

TEST(ExtentManager, SilentNodeExpiresAndRecordsAreDeleted) {
  ExtentManager manager(FixedOptions());
  manager.ProcessMessage(HeartbeatMessage(1));
  manager.ProcessMessage(SyncReportMessage(1, {{10, 1}}));
  EXPECT_EQ(manager.Center().ReplicaCount(10), 1u);
  for (int i = 0; i < 4; ++i) {
    manager.ProcessExpirationTick();
  }
  EXPECT_FALSE(manager.KnowsNode(1));
  EXPECT_EQ(manager.Center().ReplicaCount(10), 0u);
}

TEST(ExtentManager, HeartbeatsKeepNodeAlive) {
  ExtentManager manager(FixedOptions());
  manager.ProcessMessage(HeartbeatMessage(1));
  for (int i = 0; i < 10; ++i) {
    manager.ProcessExpirationTick();
    manager.ProcessMessage(HeartbeatMessage(1));
  }
  EXPECT_TRUE(manager.KnowsNode(1));
}

TEST(ExtentManager, RepairTickSchedulesMissingReplicas) {
  ExtentManager manager(FixedOptions());
  CapturingNetwork network;
  manager.SetNetworkEngine(&network);
  manager.ProcessMessage(HeartbeatMessage(1));
  manager.ProcessMessage(HeartbeatMessage(2));
  manager.ProcessMessage(HeartbeatMessage(3));
  manager.ProcessMessage(SyncReportMessage(1, {{10, 1}}));
  manager.ProcessRepairTick();
  // Extent 10 has 1 of 3 replicas: repair must go to the first node without
  // one (node 2), copying from node 1.
  ASSERT_EQ(network.sent.size(), 1u);
  EXPECT_EQ(network.sent[0].first, 2u);
  const auto& repair =
      static_cast<const RepairRequestMessage&>(*network.sent[0].second);
  EXPECT_EQ(repair.extent, 10u);
  EXPECT_EQ(repair.source, 1u);
}

TEST(ExtentManager, NoRepairWhenReplicasAtTarget) {
  ExtentManager manager(FixedOptions());
  CapturingNetwork network;
  manager.SetNetworkEngine(&network);
  for (NodeId node : {1, 2, 3}) {
    manager.ProcessMessage(HeartbeatMessage(node));
    manager.ProcessMessage(SyncReportMessage(node, {{10, 1}}));
  }
  manager.ProcessRepairTick();
  EXPECT_TRUE(network.sent.empty());
}

TEST(ExtentManager, NoRepairWithoutSurvivingSource) {
  ExtentManager manager(FixedOptions());
  CapturingNetwork network;
  manager.SetNetworkEngine(&network);
  manager.ProcessMessage(HeartbeatMessage(1));
  manager.ProcessMessage(SyncReportMessage(1, {{10, 1}}));
  for (int i = 0; i < 4; ++i) manager.ProcessExpirationTick();
  manager.ProcessRepairTick();
  EXPECT_TRUE(network.sent.empty()) << "no replica left to copy from";
}

// The mechanism of the §3.6 bug, unit-tested in isolation: a sync report from
// an expired EN resurrects its ExtentCenter records (buggy) or is dropped
// (fixed).
TEST(ExtentManager, StaleSyncReportResurrectsRecordsWhenUnfixed) {
  ExtentManagerOptions buggy;  // fix_stale_sync_report = false
  ExtentManager manager(buggy);
  manager.ProcessMessage(HeartbeatMessage(1));
  manager.ProcessMessage(SyncReportMessage(1, {{10, 1}}));
  for (int i = 0; i < 4; ++i) manager.ProcessExpirationTick();
  ASSERT_EQ(manager.Center().ReplicaCount(10), 0u);
  // Step (iv) of the paper's buggy sequence: the stale report arrives.
  manager.ProcessMessage(SyncReportMessage(1, {{10, 1}}));
  EXPECT_EQ(manager.Center().ReplicaCount(10), 1u)
      << "unfixed manager resurrected the expired node's records";
  EXPECT_FALSE(manager.KnowsNode(1))
      << "...while the node is absent from ExtentNodeMap, so the expiration "
         "loop will never clean it up again";
}

TEST(ExtentManager, StaleSyncReportDroppedWhenFixed) {
  ExtentManager manager(FixedOptions());
  manager.ProcessMessage(HeartbeatMessage(1));
  manager.ProcessMessage(SyncReportMessage(1, {{10, 1}}));
  for (int i = 0; i < 4; ++i) manager.ProcessExpirationTick();
  manager.ProcessMessage(SyncReportMessage(1, {{10, 1}}));
  EXPECT_EQ(manager.Center().ReplicaCount(10), 0u);
}

// ---------------------------------------------------------------------------
// Systematic tests: the harness of Fig. 4.

DriverOptions BuggyScenario() {
  DriverOptions options;
  options.manager.fix_stale_sync_report = false;
  return options;
}

DriverOptions FixedScenario() {
  DriverOptions options;
  options.manager.fix_stale_sync_report = true;
  return options;
}

TEST(VNextSystematic, RandomSchedulerFindsLivenessViolation) {
  TestConfig config = vnext::DefaultConfig("random");
  config.iterations = 5'000;
  const TestReport report =
      TestingEngine(config, MakeExtentRepairHarness(BuggyScenario())).Run();
  ASSERT_TRUE(report.bug_found) << report.Summary();
  EXPECT_EQ(report.bug_kind, BugKind::kLiveness);
  EXPECT_NE(report.bug_message.find("RepairMonitor"), std::string::npos);
}

TEST(VNextSystematic, PctSchedulerFindsLivenessViolation) {
  TestConfig config = vnext::DefaultConfig("pct");
  config.iterations = 5'000;
  const TestReport report =
      TestingEngine(config, MakeExtentRepairHarness(BuggyScenario())).Run();
  ASSERT_TRUE(report.bug_found) << report.Summary();
  EXPECT_EQ(report.bug_kind, BugKind::kLiveness);
}

TEST(VNextSystematic, FixedManagerPassesSystematicTesting) {
  TestConfig config = vnext::DefaultConfig("random");
  config.iterations = 300;  // each execution runs to the step bound
  const TestReport report =
      TestingEngine(config, MakeExtentRepairHarness(FixedScenario())).Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

TEST(VNextSystematic, Scenario1ReplicationPasses) {
  // Scenario 1 (§3.4): one initial replica, no failure; the ExtMgr must
  // replicate the extent to the target count — the monitor starts hot and
  // must go cold.
  DriverOptions options = FixedScenario();
  options.initial_replicas = 1;
  TestConfig config = vnext::DefaultConfig("random");
  config.faults.max_crashes = 0;  // pure replication, no failure
  config.iterations = 300;
  const TestReport report =
      TestingEngine(config, MakeExtentRepairHarness(options)).Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

TEST(VNextSystematic, BugTraceReplaysDeterministically) {
  TestConfig config = vnext::DefaultConfig("random");
  config.iterations = 5'000;
  TestingEngine engine(config, MakeExtentRepairHarness(BuggyScenario()));
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);
  const TestReport replay = engine.Replay(report.bug_trace);
  ASSERT_TRUE(replay.bug_found);
  EXPECT_EQ(replay.bug_kind, BugKind::kLiveness);
  EXPECT_EQ(replay.bug_message, report.bug_message);
  // The readable trace must show the resurrection ingredients: a sync report
  // reaching the ExtentManager and the repair monitor staying hot.
  EXPECT_NE(replay.execution_log.find("SyncReport"), std::string::npos);
}

}  // namespace
