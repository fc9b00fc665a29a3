#include "layers.h"

#include <cstdio>
#include <utility>

#include "api/scenario_registry.h"
#include "api/strategy_registry.h"
#include "corpus/trace_corpus.h"
#include "obs/campaign.h"
#include "obs/metrics.h"

namespace perfbench {

using systest::ExecutionResult;
using systest::ExecutionRunner;
using systest::Harness;
using systest::Runtime;
using systest::TestConfig;

Harness TimeHarness(Harness inner, HarnessTimer& timer) {
  return [inner = std::move(inner), &timer](Runtime& runtime) {
    const std::uint64_t start = NowNs();
    ++timer.calls;
    inner(runtime);
    timer.busy_ns += NowNs() - start;
  };
}

std::uint32_t SpanLog::Open(std::uint64_t campaign, std::uint32_t parent,
                            const char* name) {
  spans_.push_back(Span{campaign, static_cast<std::uint32_t>(spans_.size() + 1),
                        parent, name, NowNs(), 0, 0});
  return spans_.back().id;
}

void SpanLog::Close(std::uint32_t id, std::uint64_t child_ns) {
  Span& span = spans_[id - 1];
  span.end_ns = NowNs();
  span.child_ns += child_ns;
  if (span.parent != 0) {
    spans_[span.parent - 1].child_ns += span.end_ns - span.start_ns;
  }
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::fprintf(out,
                 "{\"campaign\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"dur_ns\":%llu,\"self_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.campaign), s.id, s.parent,
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(dur),
                 static_cast<unsigned long long>(
                     dur > s.child_ns ? dur - s.child_ns : 0));
  }
  return std::fclose(out) == 0;
}

namespace {

/// Child time the wrappers have covered so far (sampled estimates).
double ChildNs(const TimedStrategy* strategy, const TimedVisitedSet* visited,
               const HarnessTimer& harness) {
  double ns = static_cast<double>(harness.busy_ns);
  if (strategy != nullptr) {
    ns += strategy->decisions.BusyNs() + strategy->fault_queries.BusyNs() +
          static_cast<double>(strategy->prepare_ns);
  }
  if (visited != nullptr) ns += visited->inserts.BusyNs();
  return ns;
}

void AddTimer(SampledTimer& into, const SampledTimer& from) {
  into.calls += from.calls;
  into.sampled_calls += from.sampled_calls;
  into.sampled_ns += from.sampled_ns;
}

}  // namespace

TracedCampaign RunTraced(const systest::api::SessionConfig& session,
                         std::uint32_t parent, LayerTotals& totals,
                         SpanLog& spans, const WrapOptions& wrap,
                         bool keep_traces) {
  TracedCampaign out;
  const std::uint32_t setup_span = spans.OpenChild(parent, "setup");

  // Scenario resolution, as TestSession::Run does it.
  std::uint64_t start = NowNs();
  const systest::api::Scenario& scenario =
      systest::api::ScenarioRegistry::Instance().Get(session.scenario);
  const TestConfig tc = systest::api::TestSession(session).ResolveConfig();
  tc.Validate();
  totals.resolve_ns += NowNs() - start;
  ++totals.resolves;

  HarnessTimer harness_timer;
  Harness harness = scenario.make(session.params);
  if (wrap.harness) harness = TimeHarness(std::move(harness), harness_timer);

  std::unique_ptr<systest::corpus::TraceCorpus> corpus;
  if (tc.corpus_mutation) {
    corpus = std::make_unique<systest::corpus::TraceCorpus>(
        session.corpus_max.value_or(
            systest::corpus::TraceCorpus::kDefaultMaxEntries));
    if (!session.corpus_dir.empty()) {
      start = NowNs();
      corpus->LoadDir(session.corpus_dir);
      totals.corpus_load_ns += NowNs() - start;
      ++totals.corpus_loads;
    }
  }
  const systest::corpus::ScopedActiveCorpus active_corpus(corpus.get());

  std::unique_ptr<systest::obs::MetricsRegistry> registry;
  std::unique_ptr<systest::obs::CampaignMetrics> metrics;
  std::unique_ptr<systest::obs::WorkerObs> worker_obs;
  if (session.metrics) {
    registry = std::make_unique<systest::obs::MetricsRegistry>();
    metrics = std::make_unique<systest::obs::CampaignMetrics>(*registry);
    worker_obs = std::make_unique<systest::obs::WorkerObs>(
        *metrics, /*worker_index=*/0, /*coverage_enabled=*/false);
  }

  std::unique_ptr<systest::SchedulingStrategy> built =
      systest::StrategyRegistry::Instance().Create(tc.strategy, tc.seed,
                                                   tc.strategy_budget);
  std::unique_ptr<TimedStrategy> timed_strategy;
  if (wrap.strategy) {
    timed_strategy = std::make_unique<TimedStrategy>(std::move(built));
  }
  systest::SchedulingStrategy& strategy =
      wrap.strategy ? *timed_strategy : *built;

  systest::TieredOptions visited_options;
  visited_options.max_entries = static_cast<std::size_t>(tc.max_visited);
  visited_options.hot_entries = static_cast<std::size_t>(tc.max_visited_hot);
  visited_options.spill_dir = tc.visited_spill_dir;
  std::unique_ptr<TimedVisitedSet> timed_visited;
  std::unique_ptr<systest::TieredFingerprintSet> plain_visited;
  systest::VisitedSet* visited = nullptr;
  if (wrap.visited) {
    timed_visited = std::make_unique<TimedVisitedSet>(visited_options);
    visited = timed_visited.get();
  } else {
    plain_visited =
        std::make_unique<systest::TieredFingerprintSet>(visited_options);
    visited = plain_visited.get();
  }
  systest::VisitedSet* visited_ptr = tc.stateful ? visited : nullptr;

  ExecutionRunner runner(tc, harness, strategy, worker_obs.get());
  spans.Close(setup_span);

  // The live monitor snapshots the registry at its interval and once at the
  // end; the traced loop times the same snapshots inline instead of on a
  // sampling thread.
  auto timed_snapshot = [&] {
    const std::uint64_t t = NowNs();
    [[maybe_unused]] const systest::obs::MetricsSnapshot snapshot =
        registry->Snapshot();
    totals.snapshot_ns += NowNs() - t;
    ++totals.snapshots;
  };
  const std::uint64_t interval_ns = session.metrics_interval_ms * 1'000'000ull;
  const std::uint64_t loop_start = NowNs();
  std::uint64_t next_snapshot_ns = loop_start + interval_ns;
  for (std::uint64_t iteration = 0; iteration < tc.iterations; ++iteration) {
    ++out.counts.executions;
    const double child_before =
        ChildNs(timed_strategy.get(), timed_visited.get(), harness_timer);
    const std::uint32_t exec_span = spans.OpenChild(parent, "execution");
    const bool recycled = runner.Recycling();
    start = NowNs();
    ExecutionResult result = runner.RunOne(iteration, visited_ptr);
    totals.run_one_ns += NowNs() - start;
    const double child =
        ChildNs(timed_strategy.get(), timed_visited.get(), harness_timer) -
        child_before;
    spans.Close(exec_span, static_cast<std::uint64_t>(child > 0 ? child : 0));

    totals.recycled += recycled ? 1 : 0;
    totals.faults += result.faults.Total();
    out.counts.steps += result.steps;
    if (tc.stateful && result.pruned) ++out.counts.pruned;
    if (corpus != nullptr && tc.stateful &&
        (result.fingerprint_misses > 0 || result.bug_found)) {
      start = NowNs();
      const bool added = corpus->Add(
          result.trace, result.fingerprint_misses,
          worker_obs != nullptr ? worker_obs->LastNewStateCells() : 0);
      totals.corpus_add_ns += NowNs() - start;
      ++totals.corpus_add_calls;
      if (added) ++out.counts.corpus_added;
    }
    if (registry != nullptr && NowNs() >= next_snapshot_ns) {
      timed_snapshot();
      next_snapshot_ns = NowNs() + interval_ns;
    }
    if (keep_traces) out.traces.push_back(std::move(result.trace));
    if (result.bug_found) {
      out.counts.bug_found = true;
      out.counts.bug_iteration = iteration + 1;
      break;  // every benchmark campaign stops on its first bug
    }
  }
  out.explore_s = static_cast<double>(NowNs() - loop_start) / 1e9;
  if (registry != nullptr) timed_snapshot();
  if (tc.stateful) out.counts.distinct_states = visited->Size();

  if (corpus != nullptr) {
    const systest::corpus::CorpusStats stats = corpus->Stats();
    totals.corpus_added += out.counts.corpus_added;
    totals.corpus_sampled += stats.sampled;
    totals.corpus_entries += stats.entries;
    if (!session.corpus_dir.empty()) {
      const std::uint32_t save_span = spans.OpenChild(parent, "corpus-save");
      start = NowNs();
      corpus->SaveDir(session.corpus_dir);
      totals.corpus_save_ns += NowNs() - start;
      ++totals.corpus_saves;
      spans.Close(save_span);
    }
  }

  totals.executions += out.counts.executions;
  totals.steps += out.counts.steps;
  totals.pruned += out.counts.pruned;
  totals.harness.calls += harness_timer.calls;
  totals.harness.busy_ns += harness_timer.busy_ns;
  totals.child_ns += static_cast<std::uint64_t>(
      ChildNs(timed_strategy.get(), timed_visited.get(), harness_timer));
  if (timed_strategy != nullptr) {
    AddTimer(totals.decisions, timed_strategy->decisions);
    AddTimer(totals.fault_queries, timed_strategy->fault_queries);
    totals.prepare_ns += timed_strategy->prepare_ns;
  }
  if (timed_visited != nullptr && tc.stateful) {
    AddTimer(totals.inserts, timed_visited->inserts);
    totals.novel_inserts += timed_visited->novel_inserts;
    totals.visited += timed_visited->Stats();
  }
  return out;
}

}  // namespace perfbench
