#include "api/session.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include <memory>

#include "api/strategy_registry.h"
#include "core/bug.h"
#include "obs/campaign.h"
#include "obs/metrics.h"
#include "obs/monitor.h"

namespace systest::api {

namespace {

/// Portfolio runs without an explicit --threads field enough workers for the
/// whole built-in rotation even on small machines (the workers are
/// compute-bound but independent, so oversubscription just time-slices).
int PortfolioThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::max(6u, hw));
}

void ValidateParams(const Scenario& scenario, const ParamMap& params) {
  for (const auto& [key, value] : params) {
    const bool declared =
        std::any_of(scenario.params.begin(), scenario.params.end(),
                    [&](const ParamSpec& spec) { return spec.name == key; });
    if (!declared) {
      std::string known;
      for (const ParamSpec& spec : scenario.params) {
        if (!known.empty()) known += ", ";
        known += spec.name;
      }
      throw std::invalid_argument(
          "scenario '" + scenario.name + "' has no parameter '" + key +
          "'; declared parameters: " + (known.empty() ? "(none)" : known));
    }
  }
}

/// Applies a SessionConfig override: an unset optional keeps the scenario's
/// value.
template <typename T, typename U>
void Override(T& field, const std::optional<U>& value) {
  if (value) field = *value;
}

}  // namespace

TestSession::TestSession(SessionConfig config) : config_(std::move(config)) {}

TestSession& TestSession::AddObserver(RunObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
  return *this;
}

TestConfig TestSession::ResolveConfig() const {
  const Scenario& scenario = ScenarioRegistry::Instance().Get(config_.scenario);
  TestConfig tc =
      scenario.default_config ? scenario.default_config() : TestConfig{};
  const bool portfolio = config_.strategy == "portfolio";
  if (!config_.strategy.empty() && !portfolio) tc.strategy = config_.strategy;
  Override(tc.seed, config_.seed);
  Override(tc.iterations, config_.iterations);
  if (config_.max_steps && *config_.max_steps != tc.max_steps) {
    // Scenarios pin their liveness temperature threshold against their own
    // default step bound (e.g. vnext: hot for 1200 of 3000 steps = 40%).
    // When the caller overrides max_steps, keep that hot-step RATIO —
    // keeping the absolute threshold would silently weaken (or outright
    // invalidate) liveness detection at smaller bounds.
    if (tc.liveness_temperature_threshold > 0 && tc.max_steps > 0) {
      tc.liveness_temperature_threshold = std::max<std::uint64_t>(
          1, tc.liveness_temperature_threshold * *config_.max_steps /
                 tc.max_steps);
    }
    tc.max_steps = *config_.max_steps;
  }
  Override(tc.strategy_budget, config_.strategy_budget);
  Override(tc.time_budget_seconds, config_.time_budget_seconds);
  Override(tc.stateful, config_.stateful);
  Override(tc.fingerprint_payloads, config_.fingerprint_payloads);
  Override(tc.max_visited, config_.max_visited);
  Override(tc.max_visited_hot, config_.max_visited_hot);
  Override(tc.visited_spill_dir, config_.visited_spill_dir);
  Override(tc.prune_run, config_.prune_run);
  FaultPlan& faults = tc.faults;
  Override(faults.max_crashes, config_.max_crashes);
  Override(faults.max_restarts, config_.max_restarts);
  Override(faults.drop_probability_den, config_.drop_probability_den);
  Override(faults.max_duplications, config_.max_duplications);
  Override(faults.fault_odds_den, config_.fault_odds_den);
  Override(faults.max_partitions, config_.max_partitions);
  Override(faults.partition_heal_den, config_.partition_heal_den);
  Override(faults.fault_placement_points, config_.fault_placement_points);
  if (config_.partitions && faults.max_partitions == 0) {
    // Arm-with-defaults, partition flavor: one partition per execution
    // unless the scenario or an override already budgets them.
    faults.max_partitions = 1;
  }
  if (config_.faults && faults.max_crashes == 0 &&
      faults.drop_probability_den == 0 && faults.max_duplications == 0) {
    // Arm-with-defaults: only when neither the scenario nor a specific
    // override produced any crash, drop or duplication budget. Partition
    // budgets are judged separately above, so `faults` + `partitions` arms
    // both planes.
    faults.max_crashes = 1;
    faults.max_restarts = 1;
  }
  Override(tc.stop_on_first_bug, config_.stop_on_first_bug);
  if (config_.readable_trace_on_bug) tc.readable_trace_on_bug = true;
  const bool replay =
      config_.replay_trace.has_value() || !config_.replay_file.empty();
  const bool mutate = tc.strategy.str() == "mutate" ||
                      tc.strategy.str().rfind("mutate(", 0) == 0;
  if (!replay && (config_.corpus || !config_.corpus_dir.empty() ||
                  (mutate && !portfolio))) {
    // Arm the coverage-guided loop. Stateful is forced on: the corpus's
    // interest signal IS the fingerprint-miss count, so a non-stateful
    // corpus run could never feed (or meaningfully weight) anything.
    tc.corpus_mutation = true;
    tc.stateful = true;
  }
  return tc;
}

SessionReport TestSession::Run() {
  const Scenario& scenario = ScenarioRegistry::Instance().Get(config_.scenario);
  ValidateParams(scenario, config_.params);

  const TestConfig tc = ResolveConfig();
  tc.Validate();
  const bool portfolio = config_.strategy == "portfolio";
  if (!portfolio) {
    // Fail fast on unknown strategy names (and malformed "(N)" budgets)
    // before any exploration work starts.
    (void)StrategyRegistry::Instance().Create(tc.strategy, tc.seed,
                                              tc.strategy_budget);
  }

  const Harness harness = scenario.make(config_.params);
  std::vector<RunObserver*> iteration_observers;
  for (RunObserver* observer : observers_) {
    if (observer->WantsIterations()) iteration_observers.push_back(observer);
  }
  const bool replay =
      config_.replay_trace.has_value() || !config_.replay_file.empty();
  int threads = config_.threads;
  if (portfolio && threads <= 0) threads = PortfolioThreads();
  const bool parallel = !replay && (portfolio || threads > 1);

  SessionReport out;
  out.scenario = scenario.name;
  out.mode = replay      ? "replay"
             : portfolio ? "portfolio"
             : parallel  ? "parallel"
                         : "serial";

  SessionStartInfo start;
  start.scenario = &scenario;
  start.config = &tc;
  start.mode = out.mode;
  start.threads = parallel ? threads : 1;

  // Metrics plane: any of the observability switches arms it; replay mode
  // never observes (a replay is one deterministic execution, not a
  // campaign). The registry/metrics/monitor trio lives for this Run() only.
  const bool metrics_on =
      !replay && (config_.metrics || config_.progress ||
                  !config_.metrics_out.empty() || config_.coverage);
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::CampaignMetrics> metrics;
  std::unique_ptr<obs::CampaignMonitor> monitor;
  if (metrics_on) {
    registry = std::make_unique<obs::MetricsRegistry>();
    metrics = std::make_unique<obs::CampaignMetrics>(*registry);
  }
  // Builds and starts the sampling monitor once the worker count is known
  // (the parallel engine resolves it).
  auto start_monitor = [&](std::size_t workers) {
    if (!metrics_on) return;
    obs::MonitorOptions mopts;
    mopts.interval_ms = config_.metrics_interval_ms;
    mopts.jsonl_path = config_.metrics_out;
    mopts.progress = config_.progress;
    mopts.total_executions = tc.iterations;
    mopts.workers = workers;
    monitor = std::make_unique<obs::CampaignMonitor>(*metrics, mopts);
    if (!observers_.empty()) {
      monitor->SetSampleCallback([this](const obs::MetricsSample& sample) {
        for (RunObserver* observer : observers_) observer->OnSnapshot(sample);
      });
    }
    monitor->Start();
  };

  // Coverage-guided exploration: the corpus lives for this Run(); with a
  // corpus_dir it is pre-seeded from disk and persisted back after the
  // engines finish. The scoped active-corpus handle is how the registry's
  // "mutate" factory (fixed (seed, budget) signature) reaches it.
  std::unique_ptr<corpus::TraceCorpus> corpus_store;
  if (tc.corpus_mutation) {
    corpus_store = std::make_unique<corpus::TraceCorpus>(
        config_.corpus_max.value_or(corpus::TraceCorpus::kDefaultMaxEntries));
    if (!config_.corpus_dir.empty()) {
      corpus_store->LoadDir(config_.corpus_dir);
    }
  }
  const corpus::ScopedActiveCorpus active_corpus(corpus_store.get());

  if (replay) {
    const Trace trace = config_.replay_trace
                            ? *config_.replay_trace
                            : Trace::LoadFile(config_.replay_file);
    TestingEngine engine(tc, harness);
    for (RunObserver* observer : observers_) observer->OnStart(start);
    out.report = engine.Replay(trace);
    out.replay_verify_attempted = true;
    out.replay_verified = out.report.bug_found &&
                          out.report.bug_kind != BugKind::kReplayDivergence;
  } else if (parallel) {
    explore::ParallelOptions options;
    options.threads = threads;
    options.portfolio = portfolio;
    options.verify_replay = config_.verify_replay;
    options.metrics = metrics.get();
    options.coverage = config_.coverage;
    options.corpus = corpus_store.get();
    std::mutex observer_mutex;
    if (!iteration_observers.empty()) {
      options.on_iteration = [&](int worker, std::uint64_t iteration,
                                 const ExecutionResult& result) {
        const std::lock_guard<std::mutex> lock(observer_mutex);
        const IterationInfo info{worker, iteration, result};
        for (RunObserver* observer : iteration_observers) {
          observer->OnIteration(info);
        }
      };
    }
    explore::ParallelTestingEngine engine(tc, harness, options);
    start.threads = engine.Threads();
    start.plan = engine.Plan().Describe();
    out.plan = start.plan;
    for (RunObserver* observer : observers_) observer->OnStart(start);
    start_monitor(static_cast<std::size_t>(engine.Threads()));
    explore::ParallelTestReport preport = engine.Run();
    out.report = std::move(preport.aggregate);
    out.workers = std::move(preport.workers);
    out.winning_worker = preport.winning_worker;
    out.replay_verified = preport.replay_verified;
    out.replay_verify_attempted =
        config_.verify_replay && out.report.bug_found;
  } else {
    TestingEngine engine(tc, harness);
    engine.SetObservability(metrics.get(), config_.coverage);
    engine.SetCorpus(corpus_store.get());
    if (!iteration_observers.empty()) {
      engine.SetIterationCallback(
          [&iteration_observers](std::uint64_t iteration,
                                 const ExecutionResult& result) {
            const IterationInfo info{/*worker=*/-1, iteration, result};
            for (RunObserver* observer : iteration_observers) {
              observer->OnIteration(info);
            }
          });
    }
    for (RunObserver* observer : observers_) observer->OnStart(start);
    start_monitor(/*workers=*/1);
    out.report = engine.Run();
  }

  if (monitor != nullptr) {
    // Engines (and their workers) are done: the monitor's closing sample and
    // the snapshot below are exact, and both happen before any OnBug /
    // OnFinish reporting so reporters can consume them.
    monitor->Stop();
    out.samples = monitor->Samples();
  }
  if (registry != nullptr) {
    out.metrics = registry->Snapshot();
  }
  if (corpus_store != nullptr) {
    if (!config_.corpus_dir.empty()) {
      corpus_store->SaveDir(config_.corpus_dir);
    }
    out.corpus_on = true;
    out.corpus = corpus_store->Stats();
  }

  if (out.report.bug_found) {
    for (RunObserver* observer : observers_) observer->OnBug(out.report);
  }
  for (RunObserver* observer : observers_) observer->OnFinish(out);
  return out;
}

}  // namespace systest::api
