// SysTest — Live Table Migration case study (§4): harness assembly (Fig. 12).
#pragma once

#include <string>
#include <vector>

#include "core/engine.h"
#include "mtable/bugs.h"
#include "mtable/service.h"

namespace mtable {

struct MigrationHarnessOptions {
  MTableBugs bugs;
  int num_services = 2;
  int ops_per_service = 4;
  std::vector<std::string> partitions = {"P0", "P1"};
  std::vector<std::string> row_keys = {"r0", "r1", "r2"};
  std::uint64_t value_space = 3;
  /// Initial data set (seeded into the old table and the RT). Empty means
  /// the default: one row per (partition, row-key in {r0, r1}).
  std::vector<chaintable::TableRow> initial_rows;
  /// Optional per-service scripted operations (custom test cases). When a
  /// script is set for a service it overrides random generation.
  std::vector<std::vector<ScriptedOp>> scripts;
  /// Hand the migrator job to the fault plane (Runtime::SetCrashable): the
  /// TestConfig::faults.max_crashes budget decides whether and where it dies
  /// mid-move; the driver then launches a FRESH migrator job that must
  /// converge from the dead one's intermediate partition state. The window
  /// closes right before MigrationDone, so a completed migration is never
  /// re-run.
  bool crashable_migrator = false;
};

/// Builds the Fig. 12 harness: Tables machine (BTs + RT + checker), service
/// machines, the migrator, the completion driver and the liveness monitor.
systest::Harness MakeMigrationHarness(const MigrationHarnessOptions& options);

/// Engine configuration tuned for this harness (executions quiesce when the
/// workload and migration complete).
systest::TestConfig DefaultConfig(systest::StrategyName strategy = {});

}  // namespace mtable
