#include "explore/parallel_engine.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "api/strategy_registry.h"

namespace systest::explore {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

std::string BreakdownTable(const std::vector<WorkerReport>& workers) {
  std::string out =
      "  worker  strategy            seeds                 executions      "
      "steps  bug\n";
  char line[160];
  for (const WorkerReport& w : workers) {
    const std::string seeds =
        "[" + std::to_string(w.assignment.seed) + "," +
        std::to_string(w.assignment.seed + w.assignment.iterations) + ")";
    std::snprintf(line, sizeof(line),
                  "  w%-5d  %-18s  %-20s  %10llu  %9llu  %s",
                  w.assignment.worker, w.strategy_name.c_str(), seeds.c_str(),
                  static_cast<unsigned long long>(w.executions),
                  static_cast<unsigned long long>(w.steps),
                  w.won ? "WINNER" : (w.bug_found ? "yes" : "-"));
    out += line;
    if (w.assignment.faults.Enabled()) {
      std::snprintf(line, sizeof(line), "  faults=%llu",
                    static_cast<unsigned long long>(w.injected_faults.Total()));
      out += line;
    }
    out += '\n';
  }
  return out;
}

std::string ParallelTestReport::BreakdownTable() const {
  return explore::BreakdownTable(workers);
}

ParallelTestingEngine::ParallelTestingEngine(TestConfig config,
                                             Harness harness,
                                             ParallelOptions options)
    : config_(std::move(config)),
      harness_(std::move(harness)),
      options_(options),
      threads_(ResolveThreads(options.threads)),
      plan_(options.portfolio ? ExplorationPlan::Portfolio(config_, threads_)
                              : ExplorationPlan::Shard(config_, threads_)) {}

ParallelTestReport ParallelTestingEngine::Run() {
  const std::vector<WorkerAssignment>& assignments = plan_.Workers();
  const int n = static_cast<int>(assignments.size());
  Campaign campaign(config_, harness_, n, options_);
  std::vector<std::string> strategy_names(static_cast<std::size_t>(n));

  auto worker_fn = [&](int w) {
    const WorkerAssignment& assignment = assignments[static_cast<std::size_t>(w)];
    // Each worker owns a private strategy seeded from its assignment, and
    // every Runtime it builds is thread-local. All seeding flows through the
    // strategy.
    const auto strategy = StrategyRegistry::Instance().Create(
        assignment.strategy, assignment.seed, assignment.strategy_budget);
    strategy_names[static_cast<std::size_t>(w)] = strategy->Name();

    // Plan shards carry their own fault plans (portfolio races fault-free
    // workers against fault-heavy ones), so each worker explores under the
    // plan of ITS assignment, not the fleet config's.
    campaign.RunWorker(w, assignment.faults, *strategy, assignment.iterations);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();

  ParallelTestReport report;
  report.aggregate = campaign.Fold();
  for (int w = 0; w < n; ++w) {
    const std::size_t i = static_cast<std::size_t>(w);
    report.workers.push_back(WorkerReport{
        {campaign.Tally(w)}, assignments[i], std::move(strategy_names[i])});
  }
  const int won = campaign.Winner();
  report.winning_worker = won;
  TestReport& agg = report.aggregate;
  agg.strategy_name =
      won >= 0 ? report.workers[static_cast<std::size_t>(won)].strategy_name
               : (options_.portfolio ? std::string("portfolio")
                                     : config_.strategy.str()) +
                     " x" + std::to_string(n);
  if (won >= 0 && options_.verify_replay) {
    // The trace must witness the bug anywhere, not just inside the worker
    // that recorded it: replay it on THIS thread through the plain serial
    // engine before handing it to the caller.
    TestingEngine replayer(config_, harness_);
    const TestReport replayed = replayer.Replay(agg.bug_trace);
    report.replay_verified =
        replayed.bug_found && replayed.bug_kind == agg.bug_kind;
    if (config_.readable_trace_on_bug) {
      agg.execution_log = replayed.execution_log;
    }
  }
  return report;
}

}  // namespace systest::explore
