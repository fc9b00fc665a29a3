// SysTest systematic-testing framework.
//
// The TestingEngine is the paper's "systematic testing engine" (§2): it
// repeatedly executes a harness from start to completion, each time exploring
// a potentially different set of nondeterministic choices, until it reaches a
// user-supplied bound (number of executions or time) or hits a safety or
// liveness violation. On a bug it produces a TestReport carrying the full
// decision trace, which can be replayed to reproduce the bug deterministically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bug.h"
#include "core/fingerprint.h"
#include "core/runtime.h"
#include "core/strategy.h"
#include "core/trace.h"

namespace systest {

namespace obs {
class CampaignMetrics;   // obs/campaign.h
struct WorkerObs;        // obs/campaign.h
struct CoverageReport;   // obs/coverage.h
}  // namespace obs

namespace corpus {
class TraceCorpus;       // corpus/trace_corpus.h
}  // namespace corpus

/// A harness closes the system under test: it populates a fresh Runtime with
/// the wrapped real components, the modeled environment and the monitors
/// (the paper's three modeling artifacts, §1).
using Harness = std::function<void(Runtime&)>;

/// Engine configuration. Defaults mirror the paper's setup where applicable
/// (the evaluation used 100,000-execution budgets and a PCT budget of 2
/// priority change points).
struct TestConfig {
  std::uint64_t iterations = 10'000;
  std::uint64_t max_steps = 10'000;
  std::uint64_t seed = 0;
  /// Strategy name resolved through StrategyRegistry ("random", "pct",
  /// "round-robin", "delay-bounded", or any registered third-party name; a
  /// "(N)" suffix overrides strategy_budget).
  StrategyName strategy;
  int strategy_budget = 2;  ///< PCT priority change points / delay budget
  std::uint64_t liveness_temperature_threshold = 0;  ///< 0 = max_steps / 2
  bool report_deadlock = true;
  bool stop_on_first_bug = true;
  double time_budget_seconds = 0;  ///< 0 = unlimited
  /// When true, the buggy execution is re-run under replay with verbose
  /// logging to produce a human-readable trace in TestReport::execution_log.
  bool readable_trace_on_bug = false;

  /// Stateful exploration (core/fingerprint.h): fingerprint every visited
  /// program state and early-terminate executions that stay in
  /// already-visited territory for kFingerprintPruneRun consecutive steps.
  /// Opt-in: with the default false, scheduling, traces and reports are
  /// bit-for-bit what they always were. Pruned executions skip the
  /// end-of-execution quiescence/liveness checks (their continuations were
  /// covered by the execution that first explored those states), so safety
  /// bugs keep firing mid-step but stateful runs trade some
  /// liveness/deadlock sensitivity for budget.
  bool stateful = false;
  /// With stateful: mix Machine::FingerprintPayload into each contribution,
  /// separating states that differ only in domain data (default view is
  /// state id + queued event types).
  bool fingerprint_payloads = false;
  /// With stateful: TOTAL budget of distinct fingerprints tracked across
  /// both levels of the tiered visited set (memory/disk bound). Once the
  /// budget is exhausted the set freezes — known states still prune, unseen
  /// states pass through uncounted. (Parallel runs enforce it approximately:
  /// the sharded set's count is maintained without a global lock, so a race
  /// can overshoot by at most one entry per worker.)
  std::uint64_t max_visited = 1u << 20;
  /// With stateful: capacity of the exact in-memory HOT level. When the hot
  /// level fills, its fingerprints compact into an immutable sorted run
  /// behind the back level's bloom filter (core/fingerprint.h).
  /// The default equals the max_visited default, so out of the box nothing
  /// ever compacts and behavior is identical to the historical flat set;
  /// raising max_visited into the hundreds of millions while keeping
  /// max_visited_hot modest is the intended big-state-space configuration.
  std::uint64_t max_visited_hot = 1u << 20;
  /// With stateful: when non-empty, compacted runs are written to this
  /// directory as raw 64-bit files and mapped back read-only, so the back
  /// level's RAM footprint is its bloom filter (~1.5 bytes/state) rather
  /// than the full runs. Files are private to the run and unlinked when the
  /// set is destroyed. Empty = runs stay in memory.
  std::string visited_spill_dir;
  /// With stateful: consecutive already-visited states after which an
  /// execution is pruned. The default is the tuning kFingerprintPruneRun
  /// shipped with; harnesses with long forced prefixes (deterministic setup
  /// cascades every execution replays) raise it so executions are not
  /// pruned before reaching fresh territory.
  std::uint64_t prune_run = kFingerprintPruneRun;
  /// With stateful: record each execution's per-step fingerprint sequence
  /// into ExecutionResult::fingerprint_trail. Test/debug instrumentation —
  /// off by default so production stateful runs pay nothing for trails.
  bool record_fingerprint_trail = false;

  /// Fault plane budgets and odds (FaultPlan, README "Fault injection"). All
  /// off by default: fault-free runs are bit-for-bit unchanged.
  FaultPlan faults;

  /// Coverage-guided exploration (corpus/trace_corpus.h): marks this run as
  /// corpus-fed. Portfolio plans convert some workers to the "mutate"
  /// strategy when set; requires stateful, because the corpus's interest
  /// signal IS the fingerprint-miss count. Arming is normally done by
  /// TestSession when a corpus dir or the mutate strategy is requested.
  bool corpus_mutation = false;

  /// Fails fast on configurations that would silently explore nothing:
  /// throws std::invalid_argument for zero iterations, zero max_steps, an
  /// empty strategy name, a negative time budget, a liveness temperature
  /// threshold above the step bound, fingerprint_payloads without stateful,
  /// stateful with max_visited == 0, max_visited_hot == 0 or prune_run == 0,
  /// a visited_spill_dir without stateful, corpus_mutation without
  /// stateful, or a degenerate fault plan (FaultPlan::Validate).
  /// TestSession calls this before running.
  void Validate() const;
};

/// Outcome of a testing run.
struct TestReport {
  bool bug_found = false;
  BugKind bug_kind = BugKind::kSafety;
  std::string bug_message;
  std::uint64_t bug_iteration = 0;     ///< 1-based iteration that found the bug
  double seconds_to_bug = 0.0;
  std::uint64_t ndc = 0;               ///< nondet. choices in the buggy execution
  std::uint64_t bug_steps = 0;         ///< scheduling steps in the buggy execution
  Trace bug_trace;                     ///< replayable witness
  std::string execution_log;           ///< readable trace (optional)
  std::uint64_t executions = 0;        ///< executions actually performed
  std::uint64_t total_steps = 0;
  double total_seconds = 0.0;
  std::string strategy_name;

  // Stateful-exploration aggregates (meaningful when `stateful`).
  bool stateful = false;               ///< run used fingerprint dedup
  std::uint64_t distinct_states = 0;   ///< visited-set size (both levels)
  std::uint64_t pruned_executions = 0; ///< executions early-terminated
  std::uint64_t fingerprint_hits = 0;  ///< states seen that were known
  std::uint64_t fingerprint_misses = 0;///< states seen that were novel
  std::uint64_t visited_budget = 0;    ///< config max_visited (0 = stateless)
  /// Tiered visited-set telemetry: level occupancy and compaction/spill/
  /// bloom traffic (core/fingerprint.h). All-zero for stateless runs.
  VisitedStats visited;

  // Fault-plane aggregates (meaningful when `faults`): injected-fault
  // totals summed over every execution of the run.
  bool faults = false;                 ///< run had fault injection enabled
  Runtime::FaultStats injected_faults;

  /// Merged coverage heatmap (obs/coverage.h). nullptr unless the run
  /// collected coverage; shared so parallel aggregates and per-worker
  /// reports can alias without copying.
  std::shared_ptr<const obs::CoverageReport> coverage;

  /// A stateful campaign has saturated its visited set when the TOTAL
  /// distinct-state budget — hot level plus back-level runs — is exhausted:
  /// from then on novel states pass through uncounted and the reported hit
  /// rate goes dishonest. Hot-level compactions are NOT saturation; they
  /// are routine maintenance of the tiered set. Machine-detectable
  /// (JsonReporter emits it) so CI can flag under-provisioned budgets.
  [[nodiscard]] bool VisitedSetSaturated() const noexcept {
    return stateful && !bug_found && visited_budget > 0 &&
           distinct_states >= visited_budget;
  }

  /// A clean stateful campaign is prune-saturated when more than 90% of its
  /// executions were pruned: the fingerprint view stopped telling states
  /// apart, so the run capped schedule depth at the prune run and its clean
  /// verdict says little about deeper bugs (README "Know the granularity").
  [[nodiscard]] bool PruneSaturated() const noexcept {
    return stateful && !bug_found && pruned_executions * 10 > executions * 9;
  }

  /// Fraction of observed states that were already visited (0 when the run
  /// was not stateful or observed nothing).
  [[nodiscard]] double FingerprintHitRate() const noexcept {
    const std::uint64_t total = fingerprint_hits + fingerprint_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(fingerprint_hits) /
                            static_cast<double>(total);
  }

  /// One-line summary suitable for bench output.
  [[nodiscard]] std::string Summary() const;
};

/// Outcome of one serialized execution. Shared currency between the serial
/// TestingEngine and the parallel engines in src/explore/.
struct ExecutionResult {
  bool bug_found = false;
  BugKind bug_kind = BugKind::kSafety;
  std::string bug_message;
  std::uint64_t steps = 0;        ///< scheduling steps performed
  bool hit_step_bound = false;    ///< true when max_steps was reached
  /// Full decision trace of the execution (moved out of the Runtime, so
  /// always populated). On a bug it is the replayable witness.
  Trace trace;

  // Per-execution fingerprint stats (stateful runs only).
  bool pruned = false;                  ///< early-terminated on known states
  std::uint64_t fingerprint_hits = 0;   ///< already-visited states touched
  std::uint64_t fingerprint_misses = 0; ///< novel states discovered

  /// Faults injected into this execution (all-zero for fault-free runs).
  Runtime::FaultStats faults;
  /// Readable execution log; empty unless the runner's options log.
  std::string log;
  /// Post-step fingerprint sequence (moved out of the Runtime; empty unless
  /// TestConfig::record_fingerprint_trail). Deterministic for a given seed —
  /// prunes only truncate it.
  std::vector<Fingerprint> fingerprint_trail;
};

/// Per-execution hook: (0-based iteration, completed result). Invoked after
/// every execution, bug or not, before the engine consumes the result.
using IterationCallback =
    std::function<void(std::uint64_t iteration, const ExecutionResult& result)>;

/// Builds the per-execution RuntimeOptions implied by `config`.
RuntimeOptions MakeRuntimeOptions(const TestConfig& config, bool logging);

/// Steps `runtime` (already populated via `harness`) to quiescence or the
/// step bound, running the end-of-execution property checks. Returns true if
/// the step bound was hit. Throws BugFound on a violation.
bool StepToCompletion(Runtime& runtime, const Harness& harness,
                      std::uint64_t max_steps);

/// Thread-affine execution runner, the unit of work of every campaign and
/// of replay: it prepares the strategy for an iteration, runs one execution
/// to completion and converts any BugFound into the returned result. Every
/// execution runs on the runner's event arena, which rewinds between
/// executions. The first RunOne builds the Runtime and runs the harness,
/// then tries Runtime::SealForReuse. If every harness machine/monitor opted
/// in (kReusableRuntime) and logging is off, the SAME Runtime serves every
/// later execution via ResetForNextExecution — no construction, no
/// per-event frees, no trace reallocation. Otherwise (a vetoed seal, or a
/// logging replay) each execution builds a fresh Runtime, still on the
/// arena. Results are identical either way: golden traces, fingerprints and
/// RNG streams do not depend on which path ran
/// (tests/core_recycle_test.cc pins this).
///
/// One runner per thread; it borrows config/harness/strategy/obs, which
/// must outlive it.
class ExecutionRunner {
 public:
  /// Runs under `options` (Campaign: MakeRuntimeOptions(config, false);
  /// TestingEngine::Replay: logging, replay_faults, not stateful). Pruning
  /// follows options.stateful; config supplies max_steps and prune_run.
  ExecutionRunner(const TestConfig& config, const Harness& harness,
                  SchedulingStrategy& strategy, obs::WorkerObs* obs,
                  RuntimeOptions options);
  /// Runs under MakeRuntimeOptions(config, /*logging=*/false).
  ExecutionRunner(const TestConfig& config, const Harness& harness,
                  SchedulingStrategy& strategy, obs::WorkerObs* obs);
  ~ExecutionRunner();
  ExecutionRunner(const ExecutionRunner&) = delete;
  ExecutionRunner& operator=(const ExecutionRunner&) = delete;

  /// Runs one execution for the 0-based `iteration`. With options.stateful
  /// and a non-null `visited`, every post-step fingerprint is checked
  /// against the set and the execution is pruned after config.prune_run
  /// consecutive known states. A non-null obs attaches its ExecutionProbe
  /// and flushes the finished execution into the campaign instruments
  /// (obs/campaign.h); scheduling is bit-for-bit identical either way.
  ExecutionResult RunOne(std::uint64_t iteration, VisitedSet* visited);

  /// Whether the runner is currently recycling one sealed Runtime (false
  /// until the first RunOne, and permanently false after a veto).
  [[nodiscard]] bool Recycling() const noexcept {
    return mode_ == Mode::kRecycling;
  }

 private:
  enum class Mode : std::uint8_t {
    kProbing,    ///< fresh Runtime, seal attempted after the harness
    kRecycling,  ///< sealed: reset-and-reuse one Runtime
    kFresh,      ///< seal vetoed: fresh Runtime per execution, no retry
  };

  /// harness (optional) + seal attempt (optional) + step loop + result
  /// assembly.
  void RunBody(Runtime& runtime, bool run_harness, bool try_seal,
               ExecutionResult& result, VisitedSet* visited);
  /// Destroys the Runtime while its arena is armed (arena-backed event
  /// deletes must no-op), freeing the heap-backed setup prototypes after
  /// disarming, then rewinds the arena.
  void DropRuntime();

  const TestConfig& config_;
  const Harness& harness_;
  SchedulingStrategy& strategy_;
  obs::WorkerObs* obs_;
  RuntimeOptions options_;  ///< built once; probe wired at construction
  std::unique_ptr<detail::EventArena> arena_;
  std::unique_ptr<Runtime> runtime_;  ///< the execution's (or sealed) Runtime
  Mode mode_ = Mode::kProbing;
};

/// One worker's tallies over its slice of a campaign.
struct WorkerTally {
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  bool bug_found = false;      ///< this worker hit a violation
  bool won = false;            ///< ... and claimed the first-bug-wins race
  double seconds = 0.0;        ///< worker wall time
  // Stateful runs: this worker's share of the visited set's traffic.
  std::uint64_t pruned_executions = 0;
  std::uint64_t fingerprint_hits = 0;
  std::uint64_t fingerprint_misses = 0;
  /// Fault runs: faults this worker injected (summed over its executions).
  Runtime::FaultStats injected_faults;
  /// This worker's coverage slice (nullptr unless coverage is collected).
  std::shared_ptr<const obs::CoverageReport> coverage;
};

/// What a campaign's workers share besides the config and the harness; all
/// optional and borrowed for the run.
struct CampaignOptions {
  /// Per-execution hook, invoked from the worker's thread after every
  /// execution with (worker index, worker-local 0-based iteration, result).
  /// Must be thread-safe with several workers, and cheap: it runs in the
  /// inner loop. It cannot perturb scheduling.
  std::function<void(int worker, std::uint64_t iteration,
                     const ExecutionResult& result)>
      on_iteration;
  /// Campaign observability (obs/campaign.h): when non-null, every worker
  /// flushes each execution into these TLS-sharded instruments.
  obs::CampaignMetrics* metrics = nullptr;
  /// With metrics: also collect per-worker coverage heatmaps, merged into
  /// the report's coverage.
  bool coverage = false;
  /// Coverage-guided exploration (corpus/trace_corpus.h): every stateful
  /// execution that discovered a new state (or found a bug) feeds its trace
  /// in; "mutate" strategies sample it. Striped, so workers rarely contend.
  corpus::TraceCorpus* corpus = nullptr;
};

/// The paper's testing loop (§2): run the harness to completion, over and
/// over, until the budget or a bug stops it. TestingEngine runs it as one
/// worker on the calling thread; ParallelTestingEngine runs one worker per
/// plan assignment, each on its own thread. Workers share the visited set
/// (stateful runs: one worker gets the unsharded TieredFingerprintSet,
/// several share one ShardedFingerprintSet), a stop flag and a lock-free
/// first-bug-wins claim; everything else a worker owns.
class Campaign {
 public:
  /// Borrows `config` (the fleet config: time budget, stop policy, visited
  /// set), `harness` and `options`, which must outlive the campaign.
  Campaign(const TestConfig& config, const Harness& harness, int workers,
           const CampaignOptions& options);

  /// Runs worker `worker`: up to `iterations` executions of `strategy` under
  /// the fleet config with `faults` (this worker's plan assignment) as its
  /// fault plan, until the time budget, another worker's first bug or, with
  /// stop_on_first_bug, its own bug ends it. Safe to call concurrently for
  /// distinct workers.
  void RunWorker(int worker, const FaultPlan& faults,
                 SchedulingStrategy& strategy, std::uint64_t iterations);

  [[nodiscard]] const WorkerTally& Tally(int worker) const {
    return tallies_[static_cast<std::size_t>(worker)];
  }
  /// Index of the worker that claimed the first bug, or -1.
  [[nodiscard]] int Winner() const noexcept {
    return winner_.load(std::memory_order_acquire);
  }

  /// Folds every worker's tally, the visited set and the winning bug into
  /// one report; strategy_name is left to the caller. Call once, after every
  /// worker returned: it moves the winning trace out.
  TestReport Fold();

 private:
  const TestConfig& config_;
  const Harness& harness_;
  const CampaignOptions& options_;
  std::unique_ptr<VisitedSet> visited_;  ///< null unless config.stateful
  std::vector<WorkerTally> tallies_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::atomic<int> winner_{-1};
  // Winning bug payload: written only by the worker that claimed winner_,
  // read only by Fold.
  ExecutionResult bug_;
  std::uint64_t bug_iteration_ = 0;  ///< winner-local, 0-based
  double bug_seconds_ = 0.0;         ///< from the campaign's start
};

/// Systematic testing engine: the campaign loop as one worker on the
/// calling thread. Thread-compatible; one engine per thread.
class TestingEngine {
 public:
  TestingEngine(TestConfig config, Harness harness);

  /// Runs up to config.iterations executions (or until the time budget or the
  /// first bug, per config). Returns the aggregate report.
  TestReport Run();

  /// Replays a recorded trace once through ExecutionRunner, with readable
  /// logging enabled and the failure schedule read from the trace, and
  /// returns the resulting report (bug_found reflects whether the violation
  /// reproduced). Never recycles, dedups or observes.
  TestReport Replay(const Trace& trace);

  [[nodiscard]] const TestConfig& Config() const noexcept { return config_; }

  /// Installs an optional per-execution observer hook (see IterationCallback).
  /// The callback runs outside the serialized execution, so it cannot perturb
  /// scheduling decisions.
  void SetIterationCallback(IterationCallback callback);

  /// Attaches campaign observability: with a non-null `metrics` every
  /// execution flushes into its instruments; `coverage` additionally
  /// collects the state-visit/delivery/fault heatmaps into
  /// TestReport::coverage. Replay() never observes.
  void SetObservability(obs::CampaignMetrics* metrics, bool coverage) {
    options_.metrics = metrics;
    options_.coverage = coverage;
  }

  /// Attaches a trace corpus (borrowed): every stateful execution that
  /// discovered at least one new state (or found a bug) feeds its trace
  /// back in, closing the coverage-guided loop. Replay() never feeds.
  void SetCorpus(corpus::TraceCorpus* corpus) { options_.corpus = corpus; }

 private:
  TestConfig config_;
  Harness harness_;
  CampaignOptions options_;
};

}  // namespace systest
