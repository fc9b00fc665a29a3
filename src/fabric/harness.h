// SysTest — Azure Service Fabric case study (§5): harness assembly.
//
// Two scenarios, mirroring the paper:
//  * MakeFailoverHarness — a simple stateful service (counter) running on
//    the Fabric model; the driver fails the primary at nondeterministic
//    points (twice, so a failure can hit while a replacement secondary is
//    still being built); a final audit checks that every replica converged
//    to the sum of acknowledged operations. The promote-during-copy bug
//    fires the model's role assertion.
//  * MakePipelineHarness — the CScale-like chained services over modeled
//    RPC; the configuration/record race triggers the modeled
//    NullReferenceException when unguarded.
#pragma once

#include "core/engine.h"
#include "fabric/events.h"

namespace fabric {

struct FailoverOptions {
  FabricBugs bugs;
  std::size_t replicas = 3;
  int client_ops = 4;
  std::uint64_t value_space = 3;
  int failures = 2;
};

systest::Harness MakeFailoverHarness(const FailoverOptions& options);

/// Crash-during-reconfig scenario (fault plane): the cluster starts with
/// `added_nodes` fresh idle secondaries being built — a reconfiguration —
/// and hands the PRIMARY to the fault plane exactly while a build is
/// pending. The crash budget (TestConfig::faults.max_crashes) decides
/// whether and where the primary dies inside that window; the cluster
/// learns about it only through a racing ReplicaCrashed notification. The
/// audit runs once the client is done AND the reconfiguration drained, and
/// expects replicas + added_nodes converged reports.
struct ReconfigOptions {
  FabricBugs bugs;
  std::size_t replicas = 3;
  int client_ops = 4;
  std::uint64_t value_space = 3;
  std::size_t added_nodes = 1;
};

systest::Harness MakeReconfigHarness(const ReconfigOptions& options);

struct PipelineOptions {
  FabricBugs bugs;
  int records = 3;
  std::uint64_t value_space = 3;
  std::int64_t scale = 2;
};

systest::Harness MakePipelineHarness(const PipelineOptions& options);

/// Engine configuration tuned for the Fabric harnesses.
systest::TestConfig DefaultConfig(systest::StrategyName strategy = {});

}  // namespace fabric
