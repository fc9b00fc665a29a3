// Coverage-heatmap tests (src/obs): unvisited declared states are called out
// by name, per-event-type deliveries are named through the intern table,
// fault-placement deciles account for every injected fault, and — the merge
// contract the parallel engine relies on — the fleet aggregate is exactly the
// sum of the per-worker reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/reporters.h"
#include "api/session.h"
#include "core/systest.h"
#include "obs/campaign.h"
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "samplerepl/harness.h"

namespace {

using systest::Event;
using systest::Machine;
using systest::api::SessionConfig;
using systest::api::SessionReport;
using systest::api::TestSession;
using systest::obs::CampaignMetrics;
using systest::obs::CoverageReport;
using systest::obs::FaultKind;
using systest::obs::MetricsRegistry;
using systest::obs::WorkerObs;

// ---------------------------------------------------------------------------
// A machine with a declared state no execution ever drives it into.

struct Nudge final : Event {};

class Hopper final : public Machine {
 public:
  Hopper() {
    State("Idle").OnEntry(&Hopper::OnStart).On<Nudge>(&Hopper::OnNudge);
    State("Busy");
    State("Drained");  // declared, never entered
    SetStart("Idle");
  }

 private:
  void OnStart() { Send<Nudge>(Id()); }
  void OnNudge(const Nudge&) { Goto("Busy"); }
};

systest::Harness HopperHarness() {
  return [](systest::Runtime& rt) { rt.CreateMachine<Hopper>("Hopper"); };
}

CoverageReport RunHopperOnce(std::uint64_t seed) {
  systest::TestConfig config;
  config.max_steps = 100;
  MetricsRegistry registry;
  CampaignMetrics metrics(registry);
  WorkerObs obs(metrics, /*worker_index=*/0, /*coverage_enabled=*/true);
  systest::RandomStrategy strategy(seed);
  const systest::Harness harness = HopperHarness();
  systest::ExecutionRunner runner(config, harness, strategy, &obs);
  (void)runner.RunOne(/*iteration=*/0, /*visited=*/nullptr);
  return obs.TakeCoverage();
}

/// Flattens a report to "machine.State" -> visits for order-free comparison.
std::map<std::string, std::uint64_t> StateVisits(const CoverageReport& r) {
  std::map<std::string, std::uint64_t> out;
  for (const systest::obs::MachineCoverage& m : r.machines) {
    for (std::size_t i = 0; i < m.state_names.size(); ++i) {
      out[m.machine + "." + m.state_names[i]] += m.state_visits[i];
    }
  }
  return out;
}

std::map<std::string, std::uint64_t> Deliveries(const CoverageReport& r) {
  return {r.event_deliveries.begin(), r.event_deliveries.end()};
}

bool AnyEndsWith(const std::vector<std::string>& names,
                 const std::string& suffix) {
  return std::any_of(names.begin(), names.end(), [&](const std::string& s) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  });
}

TEST(Coverage, FlagsDeclaredButUnvisitedStates) {
  const CoverageReport report = RunHopperOnce(1);
  EXPECT_EQ(report.executions, 1u);
  ASSERT_EQ(report.machines.size(), 1u);
  const std::map<std::string, std::uint64_t> visits = StateVisits(report);
  ASSERT_EQ(visits.size(), 3u);  // all three DECLARED states are reported
  for (const auto& [state, count] : visits) {
    if (state.find(".Drained") != std::string::npos) {
      EXPECT_EQ(count, 0u) << state;
    } else {
      EXPECT_GE(count, 1u) << state;
    }
  }
  const std::vector<std::string> unvisited = report.UnvisitedStates();
  ASSERT_EQ(unvisited.size(), 1u);
  EXPECT_TRUE(AnyEndsWith(unvisited, ".Drained")) << unvisited[0];

  // Both renderings surface the gap explicitly.
  const std::string text = report.Render();
  EXPECT_NE(text.find("UNVISITED"), std::string::npos);
  EXPECT_NE(text.find("Drained"), std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"unvisited_states\""), std::string::npos);
  EXPECT_NE(json.find("Drained"), std::string::npos);

  // The self-send was a real delivery, named through the intern table.
  const std::map<std::string, std::uint64_t> deliveries = Deliveries(report);
  ASSERT_TRUE(deliveries.count("Nudge"));
  EXPECT_EQ(deliveries.at("Nudge"), 1u);
}

TEST(Coverage, MergeSumsByMachineAndEventName) {
  const CoverageReport a = RunHopperOnce(1);
  CoverageReport b = RunHopperOnce(2);
  b.fault_placements[0][3] = 7;  // exercise the fault-grid cells too

  CoverageReport merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.executions, a.executions + b.executions);

  std::map<std::string, std::uint64_t> expected_visits = StateVisits(a);
  for (const auto& [state, count] : StateVisits(b)) {
    expected_visits[state] += count;
  }
  EXPECT_EQ(StateVisits(merged), expected_visits);

  std::map<std::string, std::uint64_t> expected_deliveries = Deliveries(a);
  for (const auto& [name, count] : Deliveries(b)) {
    expected_deliveries[name] += count;
  }
  EXPECT_EQ(Deliveries(merged), expected_deliveries);
  EXPECT_EQ(merged.fault_placements[0][3], 7u);

  // Commutativity: the reverse merge order agrees.
  CoverageReport reversed;
  reversed.Merge(b);
  reversed.Merge(a);
  EXPECT_EQ(StateVisits(reversed), StateVisits(merged));
  EXPECT_EQ(Deliveries(reversed), Deliveries(merged));
}

// ---------------------------------------------------------------------------
// Session-level contracts.

TEST(Coverage, ParallelAggregateEqualsSumOfWorkerReports) {
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.threads = 4;
  config.seed = 9;
  config.iterations = 12;
  config.coverage = true;
  SessionReport out = TestSession(std::move(config)).Run();
  ASSERT_NE(out.report.coverage, nullptr);
  ASSERT_EQ(out.workers.size(), 4u);

  std::uint64_t worker_executions = 0;
  std::map<std::string, std::uint64_t> worker_visits;
  std::map<std::string, std::uint64_t> worker_deliveries;
  for (const systest::explore::WorkerReport& w : out.workers) {
    ASSERT_NE(w.coverage, nullptr);
    worker_executions += w.coverage->executions;
    for (const auto& [state, count] : StateVisits(*w.coverage)) {
      worker_visits[state] += count;
    }
    for (const auto& [name, count] : Deliveries(*w.coverage)) {
      worker_deliveries[name] += count;
    }
  }
  EXPECT_EQ(out.report.coverage->executions, worker_executions);
  EXPECT_EQ(out.report.coverage->executions, out.report.executions);
  EXPECT_EQ(StateVisits(*out.report.coverage), worker_visits);
  EXPECT_EQ(Deliveries(*out.report.coverage), worker_deliveries);
}

TEST(Coverage, FaultPlacementDecilesAccountForEveryInjectedFault) {
  SessionConfig config;
  config.scenario = "samplerepl-node-crash";
  config.seed = 2016;
  config.iterations = 50;
  config.coverage = true;
  SessionReport out = TestSession(std::move(config)).Run();
  ASSERT_NE(out.report.coverage, nullptr);
  const CoverageReport& coverage = *out.report.coverage;

  auto row_total = [&coverage](FaultKind kind) {
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < systest::obs::kStepDeciles; ++d) {
      total += coverage.fault_placements[static_cast<std::size_t>(kind)][d];
    }
    return total;
  };
  const systest::Runtime::FaultStats& injected = out.report.injected_faults;
  EXPECT_EQ(row_total(FaultKind::kCrash), injected.crashes);
  EXPECT_EQ(row_total(FaultKind::kRestart), injected.restarts);
  EXPECT_EQ(row_total(FaultKind::kDrop), injected.drops);
  EXPECT_EQ(row_total(FaultKind::kDuplicate), injected.duplications);
  EXPECT_GT(injected.crashes, 0u);  // the scenario arms crash/restart budgets

  // The modeled storage node declares a deployment-fidelity Recovering state
  // no harness drives — exactly what the heatmap exists to surface.
  EXPECT_TRUE(AnyEndsWith(coverage.UnvisitedStates(), ".Recovering"));
}

TEST(Coverage, JsonReporterEmitsCoverageAndPerWorkerWallTime) {
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.threads = 2;
  config.seed = 4;
  config.iterations = 6;
  config.stateful = true;
  config.coverage = true;
  systest::api::JsonReporter reporter(stderr);
  TestSession session(std::move(config));
  session.AddObserver(&reporter);
  (void)session.Run();
  const std::string& json = reporter.Last();
  // Satellite contracts: per-worker wall time and the saturation flag are
  // machine-detectable in CI smoke JSON, coverage rides along structurally.
  EXPECT_NE(json.find("\"seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  EXPECT_NE(json.find("\"visited_set_saturated\":"), std::string::npos);
  EXPECT_NE(json.find("\"coverage\":{"), std::string::npos);
  EXPECT_NE(json.find("\"event_deliveries\""), std::string::npos);
}

}  // namespace
