// SysTest public API layer.
//
// TestSession: the one front door for systematic testing. A builder-style
// SessionConfig names a registered scenario and the exploration shape; Run()
// dispatches to the serial TestingEngine, the sharded ParallelTestingEngine,
// the strategy portfolio, or trace replay — all behind the same call:
//
//   auto report = systest::api::TestSession({.scenario = "samplerepl-safety",
//                                            .strategy = "pct",
//                                            .threads = 4}).Run();
//
// RunObserver hooks (on-start / on-iteration / on-bug / on-finish) feed both
// the human reporter and the machine-readable JSON reporter (api/reporters.h)
// and let callers collect per-execution data without touching engine
// internals. The facade adds no scheduling perturbation: a serial session
// produces byte-identical traces to driving TestingEngine directly (pinned
// by the golden-trace guard in tests/api_session_test.cc).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/scenario_registry.h"
#include "core/engine.h"
#include "core/trace.h"
#include "corpus/trace_corpus.h"
#include "explore/parallel_engine.h"
#include "obs/monitor.h"

namespace systest::api {

/// Declarative session description. Only `scenario` is required; everything
/// else defaults to the scenario's registered configuration.
struct SessionConfig {
  /// Registered scenario name (see `systest_run --list`). Required.
  std::string scenario;
  /// Strategy name override ("random", "pct", "pct(5)", "round-robin",
  /// "delay-bounded", any registered third-party name, or "portfolio" to
  /// race the built-in rotation across workers). Empty keeps the scenario's
  /// default.
  std::string strategy;
  /// 0 (default) = serial engine, except portfolio mode which fields
  /// max(6, hardware threads). 1 = serial engine. N > 1 = shard the budget
  /// across N workers.
  int threads = 0;
  /// Scenario parameters; every key must be declared by the scenario.
  ParamMap params;

  // Engine overrides: unset keeps the scenario default.
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> iterations;
  std::optional<std::uint64_t> max_steps;
  std::optional<int> strategy_budget;
  std::optional<double> time_budget_seconds;
  std::optional<bool> stop_on_first_bug;
  /// Stateful exploration overrides (TestConfig::{stateful,
  /// fingerprint_payloads, max_visited, max_visited_hot, visited_spill_dir,
  /// prune_run}, documented there). Serial sessions use a private visited
  /// set; parallel/portfolio sessions share one sharded set across workers.
  std::optional<bool> stateful;
  std::optional<bool> fingerprint_payloads;
  std::optional<std::uint64_t> max_visited;
  std::optional<std::uint64_t> max_visited_hot;
  std::optional<std::string> visited_spill_dir;
  std::optional<std::uint64_t> prune_run;
  /// Fault plane overrides of the scenario's FaultPlan (TestConfig::faults);
  /// unset keeps the scenario's value. `faults` arms crash/restart 1/1 only
  /// if the resolved plan has no crash, drop or duplication budget, and
  /// `partitions` arms one partition only if it has no partition budget, so
  /// a scenario that ships its own fault model is left as configured.
  bool faults = false;
  std::optional<std::uint64_t> max_crashes;
  std::optional<std::uint64_t> max_restarts;
  std::optional<std::uint64_t> drop_probability_den;
  std::optional<std::uint64_t> max_duplications;
  std::optional<std::uint64_t> fault_odds_den;
  bool partitions = false;
  std::optional<std::uint64_t> max_partitions;
  std::optional<std::uint64_t> partition_heal_den;
  std::optional<int> fault_placement_points;
  /// Produce the readable execution log on a bug (TestReport::execution_log).
  bool readable_trace_on_bug = false;

  /// Replay mode: re-run a recorded witness instead of exploring. Set the
  /// in-memory trace, or a path to a trace saved with Trace::SaveFile.
  std::optional<Trace> replay_trace;
  std::string replay_file;

  /// Parallel modes: re-run the winning trace on the calling thread and
  /// record whether it reproduced (SessionReport::replay_verified).
  bool verify_replay = true;

  // ---- Observability (README "Observability") ----
  // The metrics plane activates when any of metrics/progress/metrics_out is
  // set; replay mode never observes. Scheduling and traces are bit-for-bit
  // identical with observability on or off.

  /// Collect campaign metrics (and expose the final MetricsSnapshot via the
  /// monitor's samples / RunObserver::OnSnapshot).
  bool metrics = false;
  /// Live single-line progress display on stderr (implies metrics).
  bool progress = false;
  /// Append a JSONL time-series sample every metrics_interval_ms to this
  /// path (implies metrics). Empty = no file.
  std::string metrics_out;
  /// Sampling interval of the CampaignMonitor thread.
  std::uint64_t metrics_interval_ms = 250;
  /// Collect coverage heatmaps into TestReport::coverage (per-machine state
  /// visits, per-event-type deliveries, fault placements; implies metrics).
  bool coverage = false;

  // ---- Coverage-guided exploration (README "Coverage-guided exploration") --
  // The corpus arms when corpus_dir is set OR the strategy is "mutate"
  // (serial/parallel) — portfolio mode needs corpus_dir (or corpus=true)
  // since its strategy name stays "portfolio". Arming forces stateful
  // exploration (the interest signal is the fingerprint-miss count) and, in
  // portfolio mode, converts every third worker to the mutate strategy.
  // Replay mode never arms.

  /// Persist/load the trace corpus at this directory: entries saved by one
  /// run are reloaded by the next, so campaigns resume with their corpus.
  /// Empty = in-memory corpus only (still armed if strategy is "mutate").
  std::string corpus_dir;
  /// Arm the corpus without a directory or a "mutate" strategy override —
  /// e.g. portfolio mode with an in-memory shared corpus.
  bool corpus = false;
  /// Cap on stored corpus entries (default TraceCorpus::kDefaultMaxEntries).
  std::optional<std::uint64_t> corpus_max;
};

/// Aggregate outcome of a session, uniform across all four modes.
struct SessionReport {
  std::string scenario;
  std::string mode;  ///< "serial", "parallel", "portfolio", or "replay"
  TestReport report;
  /// Parallel modes only: per-worker breakdown and the winning worker.
  std::vector<explore::WorkerReport> workers;
  int winning_worker = -1;
  /// Parallel modes with verify_replay: the winning trace reproduced on the
  /// calling thread. Replay mode: the replayed trace reproduced a violation.
  bool replay_verified = false;
  /// Whether replay verification was attempted at all (false when
  /// SessionConfig::verify_replay was disabled) — distinguishes "not
  /// verified" from "verification failed".
  bool replay_verify_attempted = false;
  /// Parallel modes: human-readable exploration plan.
  std::string plan;
  /// Final registry aggregation (empty unless the metrics plane was active).
  /// Taken after every engine worker joined, so totals are exact.
  obs::MetricsSnapshot metrics;
  /// Monitor time-series retained in memory (empty unless metrics).
  std::vector<obs::MetricsSample> samples;
  /// Coverage-guided exploration: true when the run fed a trace corpus;
  /// `corpus` then carries its end-of-run counters (reporters surface them).
  bool corpus_on = false;
  corpus::CorpusStats corpus;

  [[nodiscard]] std::string BreakdownTable() const {
    return explore::BreakdownTable(workers);
  }
};

/// Context handed to RunObserver::OnStart once the session is resolved.
struct SessionStartInfo {
  const Scenario* scenario = nullptr;
  const TestConfig* config = nullptr;  ///< fully resolved engine config
  std::string mode;
  int threads = 1;
  std::string plan;  ///< exploration plan (parallel modes; empty otherwise)
};

/// One completed execution, streamed to RunObserver::OnIteration.
struct IterationInfo {
  int worker = -1;          ///< worker index; -1 for the serial engine
  std::uint64_t iteration;  ///< worker-local 0-based iteration
  const ExecutionResult& result;
};

/// Session lifecycle hooks. Methods are invoked on the calling thread
/// (TestSession serializes parallel workers' iteration events under a lock,
/// so observers need no synchronization of their own). Default
/// implementations do nothing — override what you need.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void OnStart(const SessionStartInfo& /*info*/) {}
  /// Per-execution stream. Only delivered when WantsIterations() returns
  /// true — the hook costs a callback (and, in parallel modes, a shared
  /// lock) per execution in the exploration inner loop, so observers that
  /// don't need it (like the shipped reporters) must not pay for it.
  virtual void OnIteration(const IterationInfo& /*info*/) {}
  [[nodiscard]] virtual bool WantsIterations() const { return false; }
  /// Telemetry stream: one call per CampaignMonitor sample, only when the
  /// session's metrics plane is active. UNLIKE the other hooks this is
  /// invoked on the MONITOR thread, concurrently with OnIteration — an
  /// observer implementing both synchronizes its own state.
  virtual void OnSnapshot(const obs::MetricsSample& /*sample*/) {}
  /// Invoked once when the session found a violation (the winning bug).
  virtual void OnBug(const TestReport& /*report*/) {}
  virtual void OnFinish(const SessionReport& /*report*/) {}
};

/// The facade. Construct with a SessionConfig, optionally attach observers,
/// call Run(). Throws std::invalid_argument for unknown scenarios or
/// strategies, undeclared parameters, and configurations rejected by
/// TestConfig::Validate().
class TestSession {
 public:
  explicit TestSession(SessionConfig config);

  /// Attaches a non-owning observer; it must outlive Run(). Returns *this
  /// for chaining.
  TestSession& AddObserver(RunObserver* observer);

  SessionReport Run();

  /// The engine configuration the session will run with (scenario defaults
  /// plus overrides), resolved without running. Exposed for tests and tools.
  [[nodiscard]] TestConfig ResolveConfig() const;

 private:
  SessionConfig config_;
  std::vector<RunObserver*> observers_;
};

}  // namespace systest::api
