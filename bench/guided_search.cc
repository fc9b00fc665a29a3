// Guided-search bench: time-to-first-bug of corpus-guided mutation
// ("mutate") vs the blind strategies it races in the portfolio (random,
// PCT). For each bug scenario the same budget is run over several
// independent seeds per strategy (stop_on_first_bug), and the row reports
// how many trials found the bug plus the median and mean executions and
// wall seconds until the first violation (not-found trials are charged the
// full budget). This is the paper's Table 2 question asked of the guided
// strategy: does replay-prefix mutation reach the buggy interleavings faster
// than blind search? Distinct-state discovery under mutate is measured by
// perfbench's `guided` workload.
//
// The mutate rows run with a fresh TraceCorpus wired into the engine
// (SetCorpus to feed it, ScopedActiveCorpus so the registry factory hands
// the strategy the same store) — exactly how api::TestSession arms it.
//
// Usage: guided_search [--json] [iterations] [ttfb-trials]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/scenario_registry.h"
#include "bench/bench_util.h"
#include "core/systest.h"
#include "corpus/trace_corpus.h"

namespace {

using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using systest::api::ParamMap;
using systest::api::Scenario;
using systest::api::ScenarioRegistry;
using systest::corpus::ScopedActiveCorpus;
using systest::corpus::TraceCorpus;

constexpr const char* kStrategies[] = {"random", "pct", "mutate"};

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (const double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// Runs one configured engine; mutate rows get a fresh corpus for the run.
TestReport RunOnce(const TestConfig& config, const systest::Harness& harness) {
  if (config.corpus_mutation) {
    TraceCorpus corpus;
    const ScopedActiveCorpus active(&corpus);
    TestingEngine engine(config, harness);
    engine.SetCorpus(&corpus);
    return engine.Run();
  }
  TestingEngine engine(config, harness);
  return engine.Run();
}

void RunTtfb(const char* scenario_name, const ParamMap& params,
             std::uint64_t iterations, int trials) {
  const Scenario& scenario = ScenarioRegistry::Instance().Get(scenario_name);
  const systest::Harness harness = scenario.make(params);
  for (const char* strategy : kStrategies) {
    TestConfig config =
        scenario.default_config ? scenario.default_config() : TestConfig{};
    config.iterations = iterations;
    config.strategy = strategy;
    config.stateful = true;  // the interest signal mutate feeds on
    config.corpus_mutation = std::string(strategy) == "mutate";
    config.stop_on_first_bug = true;
    int found = 0;
    double total_all_seconds = 0.0;
    std::vector<double> execs_to_bug;
    std::vector<double> seconds_to_bug;
    for (int trial = 0; trial < trials; ++trial) {
      config.seed = scenario.default_config
                        ? scenario.default_config().seed + 1013 * trial
                        : 1 + 1013 * trial;
      const TestReport report = RunOnce(config, harness);
      total_all_seconds += report.total_seconds;
      if (report.bug_found) {
        ++found;
        execs_to_bug.push_back(static_cast<double>(report.bug_iteration));
        seconds_to_bug.push_back(report.seconds_to_bug);
      } else {
        // Charge the full budget: not finding the bug is the worst outcome.
        execs_to_bug.push_back(static_cast<double>(report.executions));
        seconds_to_bug.push_back(report.total_seconds);
      }
    }
    // Time-to-bug is heavy-tailed (one lucky/unlucky seed dominates a mean),
    // so the headline statistic is the median over trials.
    const double median_execs = Median(execs_to_bug);
    const double median_seconds = Median(seconds_to_bug);
    const double mean_execs = Mean(execs_to_bug);
    const double mean_seconds = Mean(seconds_to_bug);
    const std::string name = std::string("guided_search/ttfb/") +
                             scenario_name + "/" + strategy;
    if (bench::JsonMode()) {
      char extra[256];
      std::snprintf(extra, sizeof(extra),
                    "trials=%d found=%d median_execs_to_bug=%.1f "
                    "median_seconds_to_bug=%.4f mean_execs_to_bug=%.1f "
                    "mean_seconds_to_bug=%.4f iters=%llu",
                    trials, found, median_execs, median_seconds, mean_execs,
                    mean_seconds, static_cast<unsigned long long>(iterations));
      bench::EmitJson(name, median_execs, median_seconds, extra);
    } else {
      std::printf(
          "  %-46s  %2d/%2d found  median %7.1f execs / %8.4fs  "
          "mean %7.1f / %8.4fs  (%.2fs)\n",
          name.c_str(), found, trials, median_execs, median_seconds,
          mean_execs, mean_seconds, total_all_seconds);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);
  std::uint64_t iterations = 1500;
  int trials = 8;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") continue;
    if (positional == 0) {
      iterations = std::strtoull(arg.c_str(), nullptr, 10);
    } else {
      trials = static_cast<int>(std::strtol(arg.c_str(), nullptr, 10));
    }
    ++positional;
  }
  if (!bench::JsonMode()) {
    std::printf("guided search bench (%llu iterations, %d ttfb trials)\n",
                static_cast<unsigned long long>(iterations), trials);
  }
  // The node-crash safety bug is scaled up (7 nodes, all seven syncs counted
  // before the Ack, three requests) so the buggy interleaving — a crash of a
  // counted node in exactly the pre-Ack window — is a needle blind search
  // cannot hit in a handful of executions; the mtable matrix row is a
  // protocol bug none of the strategies reaches at bench budgets (rows tie at
  // the full budget — kept as the honesty check that guidance does not
  // regress a hard target).
  const ParamMap hard_crash{
      {"nodes", "7"}, {"replica-target", "7"}, {"requests", "3"}};
  RunTtfb("samplerepl-node-crash", hard_crash, iterations, trials);
  RunTtfb("mtable-backupnewstream", ParamMap{}, iterations / 4,
          trials / 2 > 0 ? trials / 2 : 1);
  return 0;
}
