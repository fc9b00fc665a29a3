// Metrics-plane tests (src/obs): TLS-sharded counter aggregation under real
// writer threads (this binary is also run under TSan by CI), histogram
// bucket-edge semantics, registry snapshots, campaign-snapshot determinism
// under fixed seeds, the monitor's exact final sample and JSONL output — and
// the guard that matters most: the execution probe adds NO scheduling
// perturbation, so traces are byte-identical with the metrics plane on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/systest.h"
#include "obs/campaign.h"
#include "obs/metrics.h"
#include "samplerepl/harness.h"

namespace {

using systest::api::IterationInfo;
using systest::api::RunObserver;
using systest::api::SessionConfig;
using systest::api::SessionReport;
using systest::api::TestSession;
using systest::obs::CampaignMetrics;
using systest::obs::Counter;
using systest::obs::Gauge;
using systest::obs::Histogram;
using systest::obs::MetricsRegistry;
using systest::obs::MetricsSnapshot;
using systest::obs::WorkerObs;

// ---------------------------------------------------------------------------
// Instruments.

TEST(Counter, AggregatesAcrossEightWriterThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Add(42);
  EXPECT_EQ(counter.Value(), kThreads * kPerThread + 42);
}

TEST(Gauge, LastWriterWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0u);
  gauge.Set(7);
  gauge.Set(3);
  EXPECT_EQ(gauge.Value(), 3u);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  // Bounds {1, 2, 4} declare four buckets: v<=1, v<=2, v<=4, overflow.
  Histogram hist({1, 2, 4});
  ASSERT_EQ(hist.BucketCount(), 4u);
  EXPECT_EQ(hist.BucketOf(0), 0u);
  EXPECT_EQ(hist.BucketOf(1), 0u);  // edge values land in their own bucket
  EXPECT_EQ(hist.BucketOf(2), 1u);
  EXPECT_EQ(hist.BucketOf(3), 2u);
  EXPECT_EQ(hist.BucketOf(4), 2u);
  EXPECT_EQ(hist.BucketOf(5), 3u);  // past the last bound -> overflow
  hist.Record(0);
  hist.Record(1);
  hist.Record(2);
  hist.Record(3);
  hist.Record(4);
  hist.Record(5);
  hist.Record(1'000'000);
  EXPECT_EQ(hist.BucketCounts(), (std::vector<std::uint64_t>{2, 1, 2, 2}));
  EXPECT_EQ(hist.Count(), 7u);
}

TEST(Histogram, AggregatesAcrossEightWriterThreads) {
  Histogram hist({10, 100});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<std::uint64_t>(t));  // all <= 10 -> bucket 0
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(hist.Count(), kThreads * kPerThread);
  EXPECT_EQ(hist.BucketCounts()[0], kThreads * kPerThread);
}

TEST(MetricsRegistry, StableReferencesAndSortedSnapshot) {
  MetricsRegistry registry;
  Counter& zeta = registry.GetCounter("zeta");
  registry.GetCounter("alpha").Add(1);
  EXPECT_EQ(&registry.GetCounter("zeta"), &zeta);
  zeta.Add(3);
  registry.GetGauge("mid").Set(7);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.values.size(), 3u);
  EXPECT_EQ(snapshot.values[0].name, "alpha");
  EXPECT_EQ(snapshot.values[1].name, "mid");
  EXPECT_EQ(snapshot.values[2].name, "zeta");
  EXPECT_EQ(snapshot.ValueOf("zeta"), 3u);
  EXPECT_EQ(snapshot.ValueOf("mid"), 7u);
  EXPECT_EQ(snapshot.ValueOf("absent", 99), 99u);
  EXPECT_EQ(snapshot.Find("absent"), nullptr);
}

// ---------------------------------------------------------------------------
// The probe must not perturb scheduling: traces byte-identical with obs on.

std::string ExecutionTrace(std::uint64_t iteration, bool with_obs) {
  systest::TestConfig config;
  config.max_steps = 2'000;
  const systest::Harness harness =
      samplerepl::MakeHarness(samplerepl::HarnessOptions{});
  systest::RandomStrategy strategy(42);
  MetricsRegistry registry;
  CampaignMetrics metrics(registry);
  WorkerObs obs(metrics, /*worker_index=*/0, /*coverage_enabled=*/true);
  systest::ExecutionRunner runner(config, harness, strategy,
                                 with_obs ? &obs : nullptr);
  const systest::ExecutionResult result =
      runner.RunOne(iteration, /*visited=*/nullptr);
  return result.trace.ToString();
}

TEST(ExecutionProbe, TracesByteIdenticalWithMetricsEnabled) {
  for (std::uint64_t iteration = 0; iteration < 5; ++iteration) {
    EXPECT_EQ(ExecutionTrace(iteration, false), ExecutionTrace(iteration, true))
        << "iteration " << iteration;
  }
}

/// Collects the serialized trace of every completed execution.
class TraceCollector final : public RunObserver {
 public:
  [[nodiscard]] bool WantsIterations() const override { return true; }
  void OnIteration(const IterationInfo& info) override {
    traces.push_back(info.result.trace.ToString());
  }
  std::vector<std::string> traces;
};

std::vector<std::string> SessionTraces(bool observability) {
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.seed = 5;
  config.iterations = 5;
  if (observability) {
    config.metrics = true;
    config.coverage = true;
  }
  TraceCollector collector;
  TestSession session(std::move(config));
  session.AddObserver(&collector);
  (void)session.Run();
  return collector.traces;
}

TEST(ExecutionProbe, SessionTracesByteIdenticalWithObservabilityOn) {
  const std::vector<std::string> plain = SessionTraces(false);
  ASSERT_EQ(plain.size(), 5u);
  EXPECT_EQ(plain, SessionTraces(true));
}

// ---------------------------------------------------------------------------
// Campaign snapshots: deterministic under fixed seeds, exact at the end.

MetricsSnapshot FixedSeedSnapshot() {
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.seed = 11;
  config.iterations = 25;
  config.metrics = true;
  return TestSession(std::move(config)).Run().metrics;
}

TEST(CampaignMetrics, SnapshotDeterministicUnderFixedSeed) {
  const MetricsSnapshot a = FixedSeedSnapshot();
  const MetricsSnapshot b = FixedSeedSnapshot();
  ASSERT_EQ(a.values.size(), b.values.size());
  ASSERT_FALSE(a.values.empty());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].name, b.values[i].name);
    EXPECT_EQ(a.values[i].value, b.values[i].value) << a.values[i].name;
    EXPECT_EQ(a.values[i].bucket_counts, b.values[i].bucket_counts)
        << a.values[i].name;
  }
  EXPECT_EQ(a.ValueOf("executions"), 25u);
  EXPECT_GT(a.ValueOf("steps"), 0u);
  EXPECT_GT(a.ValueOf("deliveries"), 0u);
  // Per-event-type delivery counters resolved names via the intern table.
  EXPECT_GT(a.ValueOf("deliveries_by_type.ClientReq"), 0u);
  EXPECT_EQ(a.ValueOf("worker.0.executions"), 25u);
}

TEST(CampaignMonitor, FinalSampleIsExactAndJsonlParses) {
  const std::string jsonl_path =
      ::testing::TempDir() + "obs_metrics_test_series.jsonl";
  std::remove(jsonl_path.c_str());
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.seed = 3;
  config.iterations = 10;
  config.metrics_out = jsonl_path;
  SessionReport out = TestSession(std::move(config)).Run();

  // The closing sample is taken after the engine returned: exact totals.
  ASSERT_FALSE(out.samples.empty());
  const systest::obs::MetricsSample& last = out.samples.back();
  EXPECT_TRUE(last.final_sample);
  EXPECT_EQ(last.executions, out.report.executions);
  EXPECT_EQ(last.steps, out.report.total_steps);
  EXPECT_EQ(out.metrics.ValueOf("executions"), out.report.executions);

  // Every JSONL line is one object carrying the headline fields.
  std::FILE* file = std::fopen(jsonl_path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[8192];
  int lines = 0;
  std::string last_line;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    ++lines;
    last_line = line;
    EXPECT_EQ(line[0], '{');
    EXPECT_NE(last_line.find("\"executions\":"), std::string::npos);
  }
  std::fclose(file);
  EXPECT_GE(lines, 1);
  EXPECT_NE(last_line.find("\"final\":true"), std::string::npos);
  std::remove(jsonl_path.c_str());
}

TEST(CampaignMetrics, ParallelWorkersFlushIntoSharedInstruments) {
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.threads = 4;
  config.seed = 17;
  config.iterations = 12;
  config.metrics = true;
  SessionReport out = TestSession(std::move(config)).Run();
  EXPECT_EQ(out.metrics.ValueOf("executions"), out.report.executions);
  EXPECT_EQ(out.metrics.ValueOf("steps"), out.report.total_steps);
  // Each worker's private counter sums back to the campaign total.
  std::uint64_t per_worker = 0;
  for (const systest::explore::WorkerReport& w : out.workers) {
    per_worker += out.metrics.ValueOf(
        "worker." + std::to_string(w.assignment.worker) + ".executions");
  }
  EXPECT_EQ(per_worker, out.report.executions);
}

}  // namespace
