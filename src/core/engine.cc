#include "core/engine.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "api/strategy_registry.h"
#include "core/event_arena.h"
#include "corpus/trace_corpus.h"
#include "explore/sharded_fingerprint_set.h"
#include "obs/campaign.h"

namespace systest {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

std::string TestReport::Summary() const {
  std::string out;
  if (bug_found) {
    out += "BUG[" + std::string(ToString(bug_kind)) + "] iter=" +
           std::to_string(bug_iteration) + " time=" +
           std::to_string(seconds_to_bug) + "s ndc=" + std::to_string(ndc) +
           " :: " + bug_message;
  } else {
    out += "no bug in " + std::to_string(executions) + " executions (" +
           std::to_string(total_seconds) + "s)";
  }
  if (stateful) {
    char stats[96];
    std::snprintf(stats, sizeof(stats),
                  " [stateful: distinct=%llu pruned=%llu hit-rate=%.1f%%]",
                  static_cast<unsigned long long>(distinct_states),
                  static_cast<unsigned long long>(pruned_executions),
                  FingerprintHitRate() * 100.0);
    out += stats;
  }
  if (faults) {
    char stats[192];
    std::snprintf(
        stats, sizeof(stats),
        " [faults: crashes=%llu restarts=%llu drops=%llu dups=%llu "
        "partitions=%llu heals=%llu]",
        static_cast<unsigned long long>(injected_faults.crashes),
        static_cast<unsigned long long>(injected_faults.restarts),
        static_cast<unsigned long long>(injected_faults.drops),
        static_cast<unsigned long long>(injected_faults.duplications),
        static_cast<unsigned long long>(injected_faults.partitions),
        static_cast<unsigned long long>(injected_faults.heals));
    out += stats;
  }
  return out;
}

void TestConfig::Validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("invalid TestConfig: " + what);
  };
  if (iterations == 0) {
    fail("iterations == 0 (the engine would explore nothing)");
  }
  if (max_steps == 0) {
    fail("max_steps == 0 (every execution would stop before its first step)");
  }
  if (strategy.empty()) {
    fail("strategy name is empty");
  }
  if (time_budget_seconds < 0) {
    fail("time_budget_seconds is negative (use 0 for unlimited)");
  }
  if (liveness_temperature_threshold > max_steps) {
    fail("liveness_temperature_threshold (" +
         std::to_string(liveness_temperature_threshold) +
         ") exceeds max_steps (" + std::to_string(max_steps) +
         "): no execution could ever get hot enough to report");
  }
  if (fingerprint_payloads && !stateful) {
    fail("fingerprint_payloads without stateful (payload hashing only "
         "happens inside stateful exploration)");
  }
  if (stateful && max_visited == 0) {
    fail("stateful with max_visited == 0 (a frozen-empty visited set could "
         "never record a state, making stateful a silent no-op)");
  }
  if (stateful && max_visited_hot == 0) {
    fail("stateful with max_visited_hot == 0 (the hot level is where every "
         "novel state lands first; a zero-sized front could never accept "
         "one)");
  }
  if (!visited_spill_dir.empty() && !stateful) {
    fail("visited_spill_dir without stateful (there is no visited set to "
         "spill; the directory would silently never be used)");
  }
  if (stateful && prune_run == 0) {
    fail("stateful with prune_run == 0 (every execution would be pruned at "
         "its first revisited state — including the initial state every "
         "iteration shares)");
  }
  try {
    faults.Validate();
  } catch (const std::invalid_argument& error) {
    fail(error.what());
  }
  if (corpus_mutation && !stateful) {
    fail("corpus_mutation without stateful (the corpus's interest signal is "
         "the fingerprint-miss count, which only exists under stateful "
         "exploration)");
  }
}

RuntimeOptions MakeRuntimeOptions(const TestConfig& config, bool logging) {
  RuntimeOptions options;
  options.max_steps = config.max_steps;
  options.liveness_temperature_threshold =
      config.liveness_temperature_threshold;
  options.report_deadlock = config.report_deadlock;
  options.logging = logging;
  options.stateful = config.stateful;
  options.fingerprint_payloads = config.fingerprint_payloads;
  options.record_fingerprint_trail = config.record_fingerprint_trail;
  options.faults = config.faults;
  return options;
}

namespace {

/// The scheduling loop of StepToCompletion, entered AFTER the world is set
/// up — by the harness on a fresh Runtime, or by ResetForNextExecution on a
/// recycled one. Both entry points run the identical loop so recycling
/// cannot change semantics.
bool StepFromSetup(Runtime& runtime, std::uint64_t max_steps) {
  while (runtime.Steps() < max_steps) {
    if (!runtime.Step()) {
      runtime.CheckTermination(/*hit_bound=*/false);
      return false;
    }
  }
  runtime.CheckTermination(/*hit_bound=*/true);
  return true;
}

/// Stateful variant of StepFromSetup: after every step the post-step
/// fingerprint is recorded in `visited`; once the execution has spent
/// kFingerprintPruneRun consecutive steps in already-visited states it is
/// pruned (result.pruned) — the schedule has reconverged to territory a
/// prior execution already explored. Pruned executions skip the quiescence /
/// bounded-liveness property checks: they did not actually terminate.
bool StepFromSetupStateful(Runtime& runtime, std::uint64_t max_steps,
                           std::uint64_t prune_run,
                           std::uint64_t prune_holdoff, VisitedSet& visited,
                           ExecutionResult& result) {
  // The post-setup initial state counts as visited too (every execution of a
  // deterministic harness revisits it), but never prunes by itself: the
  // known-run counter only accumulates across scheduling steps.
  if (visited.Insert(runtime.ExecutionFingerprint())) {
    ++result.fingerprint_misses;
  } else {
    ++result.fingerprint_hits;
  }
  std::uint64_t known_run = 0;
  while (runtime.Steps() < max_steps) {
    if (!runtime.Step()) {
      runtime.CheckTermination(/*hit_bound=*/false);
      return false;
    }
    if (visited.Insert(runtime.ExecutionFingerprint())) {
      ++result.fingerprint_misses;
      known_run = 0;
    } else {
      ++result.fingerprint_hits;
      // Below the strategy's holdoff (a corpus prefix deliberately replaying
      // known territory) revisits never accumulate toward pruning.
      if (runtime.Steps() <= prune_holdoff) {
        known_run = 0;
      } else if (++known_run >= prune_run) {
        result.pruned = true;
        return false;
      }
    }
  }
  runtime.CheckTermination(/*hit_bound=*/true);
  return true;
}

/// The campaign's visited set: the unsharded tiered set for one worker, one
/// sharded set for several (nullptr for stateless campaigns).
std::unique_ptr<VisitedSet> MakeVisitedSet(const TestConfig& config,
                                           int workers) {
  if (!config.stateful) return nullptr;
  TieredOptions options;
  options.max_entries = static_cast<std::size_t>(config.max_visited);
  options.hot_entries = static_cast<std::size_t>(config.max_visited_hot);
  options.spill_dir = config.visited_spill_dir;
  if (!options.spill_dir.empty()) {
    // Creation failure is non-fatal: runs then stay in memory.
    std::error_code ec;
    std::filesystem::create_directories(options.spill_dir, ec);
  }
  if (workers == 1) return std::make_unique<TieredFingerprintSet>(options);
  return std::make_unique<explore::ShardedFingerprintSet>(options);
}

}  // namespace

bool StepToCompletion(Runtime& runtime, const Harness& harness,
                      std::uint64_t max_steps) {
  harness(runtime);
  return StepFromSetup(runtime, max_steps);
}

ExecutionRunner::ExecutionRunner(const TestConfig& config,
                                 const Harness& harness,
                                 SchedulingStrategy& strategy,
                                 obs::WorkerObs* obs, RuntimeOptions options)
    : config_(config),
      harness_(harness),
      strategy_(strategy),
      obs_(obs),
      options_(std::move(options)),
      arena_(std::make_unique<detail::EventArena>()) {
  if (obs_ != nullptr) {
    options_.probe = &obs_->probe;
  }
}

ExecutionRunner::ExecutionRunner(const TestConfig& config,
                                 const Harness& harness,
                                 SchedulingStrategy& strategy,
                                 obs::WorkerObs* obs)
    : ExecutionRunner(config, harness, strategy, obs,
                      MakeRuntimeOptions(config, /*logging=*/false)) {}

ExecutionRunner::~ExecutionRunner() { DropRuntime(); }

void ExecutionRunner::DropRuntime() {
  if (runtime_ == nullptr) {
    return;
  }
  // The sealed setup prototypes are heap/pool-backed and must see REAL
  // deletes, so they are extracted first and die after the disarm below.
  // Everything else the runtime still holds (queued events, coroutine-held
  // events) is arena-backed, so the runtime itself must die while the arena
  // is armed — those deletes have to no-op.
  std::vector<std::unique_ptr<const Event>> prototypes =
      runtime_->TakeSetupPrototypes();
  {
    const detail::ScopedEventArenaArm arm(arena_.get());
    runtime_.reset();
  }
  prototypes.clear();
  arena_->ResetEpoch();
}

void ExecutionRunner::RunBody(Runtime& runtime, bool run_harness,
                              bool try_seal, ExecutionResult& result,
                              VisitedSet* visited) {
  try {
    if (run_harness) {
      harness_(runtime);
    }
    if (try_seal) {
      // Seal AFTER the harness (the setup events to snapshot exist now) and
      // BEFORE the first step (ResetForNextExecution rebuilds exactly the
      // post-harness world). Logging runs keep per-execution "create" log
      // lines that a reset would not reproduce, so they never recycle.
      mode_ = (!options_.logging && runtime.SealForReuse()) ? Mode::kRecycling
                                                            : Mode::kFresh;
    }
    if (options_.stateful && visited != nullptr) {
      result.hit_step_bound = StepFromSetupStateful(
          runtime, config_.max_steps, config_.prune_run,
          strategy_.PruneHoldoffSteps(), *visited, result);
    } else {
      result.hit_step_bound = StepFromSetup(runtime, config_.max_steps);
    }
  } catch (const BugFound& bug) {
    result.bug_found = true;
    result.bug_kind = bug.Kind();
    result.bug_message = bug.what();
  }
  result.steps = runtime.Steps();
  result.faults = runtime.GetFaultStats();
  if (obs_ != nullptr) {
    // Flush while the runtime is still alive: coverage walks its machines.
    obs_->FlushExecution(runtime, result, visited);
  }
  result.trace = runtime.TakeTrace();
  result.log = runtime.TakeLog();
  if (options_.stateful && options_.record_fingerprint_trail) {
    result.fingerprint_trail = runtime.TakeFingerprintTrail();
  }
}

ExecutionResult ExecutionRunner::RunOne(std::uint64_t iteration,
                                        VisitedSet* visited) {
  ExecutionResult result;
  if (options_.faults.fault_placement_points > 0) {
    // Arm pre-sampled fault placement before PrepareIteration samples the
    // points (strategies that don't sample stay on geometric placement).
    strategy_.SetFaultPlacementPoints(options_.faults.fault_placement_points);
  }
  strategy_.PrepareIteration(iteration, config_.max_steps);
  if (obs_ != nullptr) {
    obs_->BeginExecution();
  }
  if (mode_ == Mode::kRecycling) {
    const detail::ScopedEventArenaArm arm(arena_.get());
    runtime_->ResetForNextExecution(arena_.get());
    RunBody(*runtime_, /*run_harness=*/false, /*try_seal=*/false, result,
            visited);
    return result;
  }
  {
    // Armed before the Runtime exists: if the seal succeeds this
    // execution's live events are already arena-backed, exactly like every
    // later one; if not, the Runtime dies with its arena epoch below.
    const detail::ScopedEventArenaArm arm(arena_.get());
    runtime_ = std::make_unique<Runtime>(strategy_, options_);
    RunBody(*runtime_, /*run_harness=*/true,
            /*try_seal=*/mode_ == Mode::kProbing, result, visited);
  }
  if (mode_ != Mode::kRecycling) {
    // Vetoed (or the harness itself threw, leaving mode_ at kProbing to
    // retry the seal next time): this execution's Runtime is not kept.
    DropRuntime();
  }
  return result;
}

Campaign::Campaign(const TestConfig& config, const Harness& harness,
                   int workers, const CampaignOptions& options)
    : config_(config),
      harness_(harness),
      options_(options),
      visited_(MakeVisitedSet(config, workers)),
      tallies_(static_cast<std::size_t>(workers)),
      start_(Clock::now()) {}

void Campaign::RunWorker(int worker, const FaultPlan& faults,
                         SchedulingStrategy& strategy,
                         std::uint64_t iterations) {
  // Per-worker observability handle on the worker's own stack: the probe
  // and coverage accumulator are private (lock-free), only the flush into
  // the shared sharded instruments crosses threads.
  std::unique_ptr<obs::WorkerObs> worker_obs;
  if (options_.metrics != nullptr) {
    worker_obs = std::make_unique<obs::WorkerObs>(
        *options_.metrics, static_cast<std::size_t>(worker), options_.coverage);
  }
  // One recycled Runtime (and one event arena) serves the worker's whole
  // slice when the harness opted in (kReusableRuntime); otherwise the runner
  // builds a fresh Runtime per iteration on the same arena. Declared after
  // worker_obs: the runner borrows it and must die first.
  RuntimeOptions runtime_options =
      MakeRuntimeOptions(config_, /*logging=*/false);
  runtime_options.faults = faults;
  ExecutionRunner runner(config_, harness_, strategy, worker_obs.get(),
                         std::move(runtime_options));
  // Tallied on the stack and published once at the end, so workers never
  // share a cache line in the inner loop.
  WorkerTally tally;
  const auto worker_start = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (config_.time_budget_seconds > 0 &&
        SecondsSince(start_) >= config_.time_budget_seconds) {
      break;
    }
    ExecutionResult result = runner.RunOne(i, visited_.get());
    ++tally.executions;
    tally.steps += result.steps;
    tally.fingerprint_hits += result.fingerprint_hits;
    tally.fingerprint_misses += result.fingerprint_misses;
    if (result.pruned) ++tally.pruned_executions;
    tally.injected_faults += result.faults;
    if (options_.corpus != nullptr && config_.stateful &&
        (result.fingerprint_misses > 0 || result.bug_found)) {
      // Feed BEFORE the first-bug claim below moves the trace out. Heat =
      // heatmap cells this execution visited first (0 without coverage).
      options_.corpus->Add(
          result.trace, result.fingerprint_misses,
          worker_obs != nullptr ? worker_obs->LastNewStateCells() : 0);
    }
    if (options_.on_iteration) options_.on_iteration(worker, i, result);
    if (result.bug_found) {
      // Keep the FIRST violation; with stop_on_first_bug=false later buggy
      // executions only contribute to the execution count.
      tally.bug_found = true;
      int expected = -1;
      if (winner_.compare_exchange_strong(expected, worker,
                                          std::memory_order_acq_rel)) {
        tally.won = true;
        bug_ = std::move(result);
        bug_iteration_ = i;
        bug_seconds_ = SecondsSince(start_);
        if (config_.stop_on_first_bug) {
          stop_.store(true, std::memory_order_release);
        }
      }
      if (config_.stop_on_first_bug) break;
    }
  }
  tally.seconds = SecondsSince(worker_start);
  if (worker_obs != nullptr && options_.coverage) {
    tally.coverage =
        std::make_shared<obs::CoverageReport>(worker_obs->TakeCoverage());
  }
  tallies_[static_cast<std::size_t>(worker)] = std::move(tally);
}

TestReport Campaign::Fold() {
  TestReport report;
  for (const WorkerTally& tally : tallies_) {
    report.executions += tally.executions;
    report.total_steps += tally.steps;
    report.pruned_executions += tally.pruned_executions;
    report.fingerprint_hits += tally.fingerprint_hits;
    report.fingerprint_misses += tally.fingerprint_misses;
    report.injected_faults += tally.injected_faults;
  }
  report.total_seconds = SecondsSince(start_);
  report.faults = config_.faults.Enabled();
  if (visited_ != nullptr) {
    report.stateful = true;
    report.distinct_states = visited_->Size();
    report.visited_budget = config_.max_visited;
    report.visited = visited_->Stats();
  }
  if (options_.metrics != nullptr && options_.coverage) {
    // The campaign heatmap is exactly the sum of the per-worker reports
    // (Merge is commutative/associative over named machines and events).
    auto merged = std::make_shared<obs::CoverageReport>();
    for (const WorkerTally& tally : tallies_) {
      if (tally.coverage != nullptr) merged->Merge(*tally.coverage);
    }
    report.coverage = std::move(merged);
  }
  if (Winner() >= 0) {
    report.bug_found = true;
    report.bug_kind = bug_.bug_kind;
    report.bug_message = bug_.bug_message;
    report.bug_iteration = bug_iteration_ + 1;  // winner-local numbering
    report.seconds_to_bug = bug_seconds_;
    report.ndc = bug_.trace.Size();
    report.bug_steps = bug_.steps;
    report.bug_trace = std::move(bug_.trace);
  }
  return report;
}

TestingEngine::TestingEngine(TestConfig config, Harness harness)
    : config_(std::move(config)), harness_(std::move(harness)) {}

void TestingEngine::SetIterationCallback(IterationCallback callback) {
  options_.on_iteration = nullptr;
  if (callback) {
    options_.on_iteration = [callback = std::move(callback)](
                                int /*worker*/, std::uint64_t iteration,
                                const ExecutionResult& result) {
      callback(iteration, result);
    };
  }
}

TestReport TestingEngine::Run() {
  const auto strategy = StrategyRegistry::Instance().Create(
      config_.strategy, config_.seed, config_.strategy_budget);
  Campaign campaign(config_, harness_, /*workers=*/1, options_);
  campaign.RunWorker(0, config_.faults, *strategy, config_.iterations);
  TestReport report = campaign.Fold();
  report.strategy_name = strategy->Name();
  if (report.bug_found && config_.readable_trace_on_bug) {
    report.execution_log = Replay(report.bug_trace).execution_log;
  }
  return report;
}

TestReport TestingEngine::Replay(const Trace& trace) {
  ReplayStrategy strategy(trace);
  RuntimeOptions options = MakeRuntimeOptions(config_, /*logging=*/true);
  // Replay reproduces one recorded witness; it never dedups or prunes, even
  // when the config that FOUND the bug was stateful.
  options.stateful = false;
  // The failure schedule comes from the trace itself — fault decisions are
  // recorded with the step / delivery ordinal they fired at — so replay
  // needs (and takes) no fault configuration: a fault-free trace replays
  // with zero fault queries matched, a fault trace re-applies every recorded
  // fault at its exact coordinate.
  options.faults = FaultPlan{};
  options.replay_faults = true;
  ExecutionRunner runner(config_, harness_, strategy, /*obs=*/nullptr,
                         std::move(options));
  const auto start = Clock::now();
  ExecutionResult result = runner.RunOne(/*iteration=*/0, /*visited=*/nullptr);
  TestReport report;
  report.executions = 1;
  report.total_seconds = SecondsSince(start);
  report.strategy_name = strategy.Name();
  report.total_steps = result.steps;
  report.execution_log = std::move(result.log);
  report.injected_faults = result.faults;
  report.faults = result.faults.Total() > 0;
  if (result.bug_found) {
    report.bug_found = true;
    report.bug_kind = result.bug_kind;
    report.bug_message = std::move(result.bug_message);
    report.bug_iteration = 1;
    report.seconds_to_bug = report.total_seconds;
    report.ndc = result.trace.Size();
    report.bug_steps = result.steps;
  }
  // Clean replays expose the re-recorded decision list too, so callers
  // (corpus tests, bit-for-bit verification) can compare it against the
  // input trace instead of inferring fidelity from the absence of a
  // divergence report.
  report.bug_trace = std::move(result.trace);
  return report;
}

}  // namespace systest
