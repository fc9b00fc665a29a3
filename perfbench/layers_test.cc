// The benchmark's tracing must not change what it measures: every wrapper,
// alone and together, leaves each execution's trace of a registered scenario
// byte-identical to the untraced front-door run, and the traced loop's counts
// match the session report.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "layers.h"

namespace perfbench {
namespace {

using systest::api::SessionConfig;

/// Serialized trace of every execution of an untraced session.
class TraceLog final : public systest::api::RunObserver {
 public:
  void OnIteration(const systest::api::IterationInfo& info) override {
    traces.push_back(info.result.trace.Serialize());
  }
  [[nodiscard]] bool WantsIterations() const override { return true; }
  std::vector<std::string> traces;
};

struct Golden {
  std::vector<std::string> traces;
  CampaignCounts counts;
};

Golden Untraced(const SessionConfig& session) {
  TraceLog log;
  systest::api::TestSession run(session);
  run.AddObserver(&log);
  const systest::api::SessionReport sr = run.Run();
  Golden g;
  g.traces = std::move(log.traces);
  g.counts.executions = sr.report.executions;
  g.counts.steps = sr.report.total_steps;
  g.counts.bug_found = sr.report.bug_found;
  g.counts.bug_iteration = sr.report.bug_iteration;
  g.counts.distinct_states = sr.report.distinct_states;
  g.counts.pruned = sr.report.pruned_executions;
  g.counts.corpus_added = sr.corpus.added;
  return g;
}

void ExpectWrappersPreserve(const SessionConfig& session) {
  const Golden golden = Untraced(session);
  ASSERT_FALSE(golden.traces.empty());
  const WrapOptions variants[] = {
      {.strategy = true, .visited = false, .harness = false},
      {.strategy = false, .visited = true, .harness = false},
      {.strategy = false, .visited = false, .harness = true},
      {.strategy = true, .visited = true, .harness = true},
  };
  for (const WrapOptions& wrap : variants) {
    SCOPED_TRACE(testing::Message()
                 << session.scenario << " strategy=" << wrap.strategy
                 << " visited=" << wrap.visited << " harness=" << wrap.harness);
    LayerTotals totals;
    SpanLog spans;
    const std::uint32_t root = spans.Open(1, 0, "campaign");
    const TracedCampaign traced =
        RunTraced(session, root, totals, spans, wrap, /*keep_traces=*/true);
    spans.Close(root);
    ASSERT_EQ(traced.traces.size(), golden.traces.size());
    for (std::size_t i = 0; i < golden.traces.size(); ++i) {
      ASSERT_EQ(traced.traces[i].Serialize(), golden.traces[i])
          << "execution " << i;
    }
    EXPECT_EQ(traced.counts, golden.counts);
    EXPECT_EQ(totals.executions, golden.counts.executions);
    if (wrap.strategy) {
      EXPECT_GT(totals.decisions.calls, 0u);
    }
    if (wrap.harness) {
      EXPECT_GE(totals.harness.calls, 1u);
    }
  }
}

SessionConfig Base(std::string scenario, std::uint64_t iterations) {
  SessionConfig s;
  s.scenario = std::move(scenario);
  s.seed = 0x5eed5eed5eedull;
  s.iterations = iterations;
  s.stop_on_first_bug = true;
  return s;
}

TEST(WrappersPreserveGoldenTraces, StatelessBugHunt) {
  SessionConfig s = Base("mtable-migration", 2000);
  s.params.Set("bug", "QueryStreamedLock");
  ExpectWrappersPreserve(s);
}

TEST(WrappersPreserveGoldenTraces, StatefulControlThatCompacts) {
  SessionConfig s = Base("samplerepl-fixed", 60);
  s.params.Set("nodes", "5");
  s.stateful = true;
  s.max_visited_hot = 512;  // compacts several times within the run
  ExpectWrappersPreserve(s);
}

TEST(WrappersPreserveGoldenTraces, PayloadFingerprintsPrune) {
  SessionConfig s = Base("mtable-migration", 300);
  s.stateful = true;
  s.fingerprint_payloads = true;
  ExpectWrappersPreserve(s);
}

TEST(WrappersPreserveGoldenTraces, GuidedMutationWithFaultsAndMetrics) {
  SessionConfig s = Base("samplerepl-partition-heal", 40);
  s.strategy = "mutate";
  s.metrics = true;
  ExpectWrappersPreserve(s);
}

TEST(WrappersPreserveGoldenTraces, PreSampledFaultPlacement) {
  // Placement points are set on the wrapper; the inner strategy samples them.
  SessionConfig s = Base("samplerepl-node-crash", 200);
  s.fault_placement_points = 2;
  ExpectWrappersPreserve(s);
}

TEST(SpanLog, SelfTimeExcludesChildren) {
  SpanLog spans;
  const std::uint32_t root = spans.Open(7, 0, "campaign");
  const std::uint32_t child = spans.OpenChild(root, "execution");
  spans.Close(child, /*child_ns=*/0);
  spans.Close(root);
  const Span& r = spans.Get(root);
  const Span& c = spans.Get(child);
  EXPECT_EQ(c.campaign, 7u);
  EXPECT_EQ(r.child_ns, c.end_ns - c.start_ns);
  EXPECT_LE(r.child_ns, r.end_ns - r.start_ns);
}

}  // namespace
}  // namespace perfbench
