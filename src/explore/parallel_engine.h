// SysTest exploration subsystem.
//
// ParallelTestingEngine shards a TestConfig budget across N worker threads
// (an ExplorationPlan), each owning a PRIVATE Runtime and strategy instance —
// executions themselves stay serialized, exactly as the paper's methodology
// requires; only independent executions run concurrently, which is sound
// because each iteration's schedule is fully determined by its derived seed.
// Workers race to the first violation: a lock-free first-bug-wins claim stops
// the fleet, and the winning trace is re-replayed on the calling thread to
// guarantee the witness reproduces outside the worker that found it.
//
// Requirements on the harness: it must be safe to invoke concurrently from
// multiple threads (the standard pattern — a pure factory that only touches
// the Runtime it is handed — satisfies this; harnesses that write to shared
// globals do not).
#pragma once

#include <string>
#include <vector>

#include "core/engine.h"
#include "explore/exploration_plan.h"

namespace systest::explore {

/// The campaign hooks (CampaignOptions: on_iteration, metrics, coverage,
/// corpus) plus how the fleet is planned.
struct ParallelOptions : CampaignOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency() (min 1).
  int threads = 0;
  /// Race the strategy portfolio (ExplorationPlan::Portfolio) instead of
  /// sharding the single configured strategy.
  bool portfolio = false;
  /// Re-run the winning trace on the calling thread after the workers join
  /// and record whether it reproduced (ParallelTestReport::replay_verified).
  bool verify_replay = true;
};

/// Per-worker slice of the merged report — the per-strategy breakdown.
struct WorkerReport : WorkerTally {
  WorkerAssignment assignment;
  std::string strategy_name;
};

struct ParallelTestReport {
  /// Merged totals (executions, steps, seconds summed over workers; wall
  /// time in total_seconds) plus the winning bug, if any. bug_iteration is
  /// the winning WORKER's local 1-based iteration; combined with the
  /// worker's assignment seed it identifies the exact derived seed, so
  /// `aggregate.bug_trace` replays the violation anywhere.
  TestReport aggregate;
  std::vector<WorkerReport> workers;
  int winning_worker = -1;
  /// Set when ParallelOptions::verify_replay confirmed the winning trace on
  /// the calling thread.
  bool replay_verified = false;

  /// Formatted per-worker breakdown table.
  [[nodiscard]] std::string BreakdownTable() const;
};

/// Formats the per-worker breakdown table (shared with api::TestSession
/// reports, which carry the same WorkerReport rows).
[[nodiscard]] std::string BreakdownTable(const std::vector<WorkerReport>& workers);

/// Parallel counterpart of TestingEngine. One engine per Run() call; the
/// engine itself is single-use from the calling thread's perspective but
/// spawns plan-many workers internally.
class ParallelTestingEngine {
 public:
  ParallelTestingEngine(TestConfig config, Harness harness,
                        ParallelOptions options = {});

  /// Runs the plan to completion (budget exhausted, time budget hit, or
  /// first bug when config.stop_on_first_bug).
  ParallelTestReport Run();

  [[nodiscard]] const ExplorationPlan& Plan() const noexcept { return plan_; }
  [[nodiscard]] int Threads() const noexcept { return threads_; }

 private:
  TestConfig config_;
  Harness harness_;
  ParallelOptions options_;
  int threads_;
  ExplorationPlan plan_;
};

}  // namespace systest::explore
