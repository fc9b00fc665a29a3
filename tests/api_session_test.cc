// TestSession facade tests: parity with the engines it subsumes, replay,
// parallel/portfolio modes, observers and reporters — plus the golden-trace
// guard proving the facade adds NO scheduling perturbation: the PR 2 golden
// traces (captured before the API layer existed, see
// tests/core_golden_trace_test.cc) must be byte-identical when the same
// seeds are driven through TestSession.
//
// This file also registers its own scenario through the public
// SYSTEST_REGISTER_SCENARIO macro — the exact path a third-party harness
// author takes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/reporters.h"
#include "api/scenario_registry.h"
#include "api/session.h"
#include "core/systest.h"

namespace {

using systest::Event;
using systest::Machine;
using systest::MachineId;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using systest::api::IterationInfo;
using systest::api::ParamMap;
using systest::api::RunObserver;
using systest::api::Scenario;
using systest::api::ScenarioRegistry;
using systest::api::SessionConfig;
using systest::api::SessionReport;
using systest::api::TestSession;

// ---------------------------------------------------------------------------
// The golden ping-pong harness (identical to core_golden_trace_test.cc),
// registered as a scenario via the public macro.

struct GoldenBall final : Event {
  explicit GoldenBall(int n) : n(n) {}
  int n;
};

class GoldenPaddle final : public Machine {
 public:
  explicit GoldenPaddle(int rounds) : rounds_(rounds) {
    State("Play").OnEntry(&GoldenPaddle::OnStart).On<GoldenBall>(&GoldenPaddle::OnBall);
    SetStart("Play");
  }

  void SetPeer(MachineId peer) { peer_ = peer; }
  void Serve() { serve_ = true; }

 private:
  void OnStart() {
    if (serve_) {
      Send<GoldenBall>(peer_, 0);
    }
  }
  void OnBall(const GoldenBall& ball) {
    if (ball.n >= rounds_) return;
    if (NondetBool()) {
      (void)NondetInt(5);
    }
    Send<GoldenBall>(peer_, ball.n + 1);
  }

  MachineId peer_;
  int rounds_;
  bool serve_ = false;
};

SYSTEST_REGISTER_SCENARIO(test_golden_pingpong) {
  Scenario s;
  s.name = "test-golden-pingpong";
  s.description = "golden-trace ping-pong harness (test-only)";
  s.tags = {"test"};
  s.params = {{"rounds", "ping-pong rounds (default 6)"}};
  s.make = [](const ParamMap& params) -> systest::Harness {
    const int rounds = static_cast<int>(params.GetUint("rounds", 6));
    return [rounds](systest::Runtime& rt) {
      auto a = rt.CreateMachine<GoldenPaddle>("A", rounds);
      auto b = rt.CreateMachine<GoldenPaddle>("B", rounds);
      auto* pa = static_cast<GoldenPaddle*>(rt.FindMachine(a));
      auto* pb = static_cast<GoldenPaddle*>(rt.FindMachine(b));
      pa->SetPeer(b);
      pb->SetPeer(a);
      pb->Serve();
    };
  };
  s.default_config = [] {
    TestConfig config;
    config.iterations = 3;
    config.max_steps = 500;
    config.seed = 7;
    return config;
  };
  return s;
}

// ---------------------------------------------------------------------------
// Observers used throughout.

/// Collects the serialized trace of every completed execution.
class TraceCollector final : public RunObserver {
 public:
  [[nodiscard]] bool WantsIterations() const override { return true; }
  void OnIteration(const IterationInfo& info) override {
    traces_.push_back(info.result.trace.ToString());
  }
  [[nodiscard]] const std::vector<std::string>& Traces() const {
    return traces_;
  }

 private:
  std::vector<std::string> traces_;
};

class LifecycleProbe final : public RunObserver {
 public:
  int starts = 0, iterations = 0, bugs = 0, finishes = 0;
  std::string mode;

  void OnStart(const systest::api::SessionStartInfo& info) override {
    ++starts;
    mode = info.mode;
  }
  [[nodiscard]] bool WantsIterations() const override { return true; }
  void OnIteration(const IterationInfo&) override { ++iterations; }
  void OnBug(const TestReport&) override { ++bugs; }
  void OnFinish(const SessionReport&) override { ++finishes; }
};

/// FNV-1a 64-bit (same as core_golden_trace_test.cc).
std::string Fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

std::vector<std::string> SessionTraces(SessionConfig config) {
  TraceCollector collector;
  TestSession session(std::move(config));
  session.AddObserver(&collector);
  (void)session.Run();
  return collector.Traces();
}

// ---------------------------------------------------------------------------
// Golden-trace guard: the PR 2 goldens, driven through TestSession.

TEST(GoldenThroughSession, PingPongRandom) {
  SessionConfig config;
  config.scenario = "test-golden-pingpong";
  config.strategy = "random";  // seed 7 from the scenario default
  const auto traces = SessionTraces(config);
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0],
            "s1;s2;s1;b0;s2;b0;s1;b1;i3/5;s2;b1;i0/5;s1;b1;i0/5;s2;b0;s1");
  EXPECT_EQ(traces[2], "s1;s2;s1;b0;s2;b0;s1;b0;s2;b0;s1;b0;s2;b0;s1");
}

TEST(GoldenThroughSession, PingPongPct) {
  SessionConfig config;
  config.scenario = "test-golden-pingpong";
  config.strategy = "pct";
  config.strategy_budget = 2;
  const auto traces = SessionTraces(config);
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0],
            "s1;s2;s1;b1;i2/5;s2;b0;s1;b1;i3/5;s2;b0;s1;b1;i0/5;s2;b0;s1");
  EXPECT_EQ(traces[2],
            "s2;s1;s1;b1;i0/5;s2;b0;s1;b0;s2;b1;i2/5;s1;b0;s2;b0;s1");
}

TEST(GoldenThroughSession, PingPongDelayBounded) {
  SessionConfig config;
  config.scenario = "test-golden-pingpong";
  config.strategy = "delay-bounded(2)";  // budget via the name suffix
  const auto traces = SessionTraces(config);
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0],
            "s1;s2;s1;b0;s2;b0;s1;b1;i2/5;s2;b0;s1;b1;i3/5;s2;b0;s1");
  EXPECT_EQ(traces[2],
            "s1;s2;s1;b0;s2;b0;s1;b1;i0/5;s2;b0;s1;b0;s2;b1;i2/5;s1");
}

TEST(GoldenThroughSession, PingPongRoundRobin) {
  SessionConfig config;
  config.scenario = "test-golden-pingpong";
  config.strategy = "round-robin";
  config.seed = 3;
  const auto traces = SessionTraces(config);
  ASSERT_EQ(traces.size(), 3u);
  const std::string expected =
      "s2;s1;s1;b1;i1/5;s2;b1;i3/5;s1;b1;i0/5;s2;b1;i2/5;s1;b1;i4/5;s2;"
      "b1;i1/5;s1";
  EXPECT_EQ(traces[0], expected);
  EXPECT_EQ(traces[2], expected);
}

TEST(GoldenThroughSession, SampleReplCleanFingerprints) {
  struct Row {
    const char* strategy;
    std::uint64_t seed;
    std::size_t size;
    const char* fnv;
  };
  // The PR 2 goldens from core_golden_trace_test.cc, captured pre-refactor.
  const Row rows[] = {
      {"random", 2016, 543, "330a1ff9c4fddfe7"},
      {"pct(2)", 2016, 8296, "97470e6a0ffe6631"},
      {"delay-bounded(2)", 2016, 8657, "88e5a3e7f0b9913c"},
      {"round-robin", 5, 417, "bf0a786a79230889"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.strategy);
    SessionConfig config;
    config.scenario = "samplerepl-fixed";
    config.strategy = row.strategy;
    config.seed = row.seed;
    config.iterations = 1;
    config.max_steps = 2000;
    const auto traces = SessionTraces(config);
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].size(), row.size);
    EXPECT_EQ(Fnv1a(traces[0]), row.fnv);
  }
}

TEST(GoldenThroughSession, SampleReplBuggyFingerprint) {
  SessionConfig config;
  config.scenario = "samplerepl-safety";
  config.strategy = "random";
  config.seed = 2016;
  config.iterations = 8;
  config.max_steps = 2000;
  config.stop_on_first_bug = false;  // scan all 8 like the golden capture
  const auto traces = SessionTraces(config);
  ASSERT_EQ(traces.size(), 8u);
  std::string combined;
  for (const std::string& trace : traces) {
    combined += trace;
    combined += '|';
  }
  EXPECT_EQ(combined.size(), 3656u);
  EXPECT_EQ(Fnv1a(combined), "476cf8364f416f59");
}

// ---------------------------------------------------------------------------
// Parity: a serial TestSession must equal TestingEngine exactly.

TEST(SessionParity, SerialSessionMatchesTestingEngineBitForBit) {
  const Scenario& scenario = ScenarioRegistry::Instance().Get("race");
  const TestConfig config = scenario.default_config();
  const TestReport direct =
      TestingEngine(config, scenario.make(ParamMap{})).Run();

  SessionConfig sc;
  sc.scenario = "race";
  const SessionReport session = TestSession(sc).Run();

  ASSERT_TRUE(direct.bug_found);
  ASSERT_TRUE(session.report.bug_found);
  EXPECT_EQ(session.report.bug_kind, direct.bug_kind);
  EXPECT_EQ(session.report.bug_message, direct.bug_message);
  EXPECT_EQ(session.report.bug_iteration, direct.bug_iteration);
  EXPECT_EQ(session.report.ndc, direct.ndc);
  EXPECT_EQ(session.report.bug_steps, direct.bug_steps);
  EXPECT_EQ(session.report.executions, direct.executions);
  EXPECT_EQ(session.report.total_steps, direct.total_steps);
  EXPECT_EQ(session.report.bug_trace, direct.bug_trace);
  EXPECT_EQ(session.report.strategy_name, direct.strategy_name);
}

TEST(SessionParity, ReplayReproducesTheRecordedBug) {
  SessionConfig explore;
  explore.scenario = "race";
  const SessionReport found = TestSession(explore).Run();
  ASSERT_TRUE(found.report.bug_found);

  SessionConfig replay;
  replay.scenario = "race";
  replay.replay_trace = found.report.bug_trace;
  const SessionReport replayed = TestSession(replay).Run();
  EXPECT_EQ(replayed.mode, "replay");
  ASSERT_TRUE(replayed.report.bug_found);
  EXPECT_TRUE(replayed.replay_verified);
  EXPECT_EQ(replayed.report.bug_message, found.report.bug_message);
  EXPECT_EQ(replayed.report.bug_kind, found.report.bug_kind);
}

// ---------------------------------------------------------------------------
// Parallel and portfolio modes through the facade.

TEST(SessionModes, ParallelSessionFindsBugAndVerifiesReplay) {
  SessionConfig config;
  config.scenario = "race";
  config.threads = 4;
  const SessionReport report = TestSession(config).Run();
  EXPECT_EQ(report.mode, "parallel");
  ASSERT_EQ(report.workers.size(), 4u);
  ASSERT_TRUE(report.report.bug_found);
  EXPECT_GE(report.winning_worker, 0);
  EXPECT_TRUE(report.replay_verified);
  EXPECT_FALSE(report.plan.empty());
  EXPECT_FALSE(report.BreakdownTable().empty());
}

TEST(SessionModes, PortfolioSessionRacesTheRotation) {
  SessionConfig config;
  config.scenario = "race";
  config.strategy = "portfolio";
  config.threads = 6;
  const SessionReport report = TestSession(config).Run();
  EXPECT_EQ(report.mode, "portfolio");
  ASSERT_EQ(report.workers.size(), 6u);
  ASSERT_TRUE(report.report.bug_found);
  EXPECT_TRUE(report.replay_verified);
}

// ---------------------------------------------------------------------------
// Observers and reporters.

TEST(SessionObservers, LifecycleHooksFireInOrder) {
  LifecycleProbe probe;
  SessionConfig config;
  config.scenario = "race";
  TestSession session(config);
  session.AddObserver(&probe);
  const SessionReport report = session.Run();
  EXPECT_EQ(probe.starts, 1);
  EXPECT_EQ(probe.mode, "serial");
  EXPECT_EQ(probe.iterations,
            static_cast<int>(report.report.executions));
  EXPECT_EQ(probe.bugs, 1);
  EXPECT_EQ(probe.finishes, 1);
}

TEST(SessionObservers, ParallelIterationEventsAreSerialized) {
  LifecycleProbe probe;
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.iterations = 64;
  config.threads = 4;
  TestSession session(config);
  session.AddObserver(&probe);
  const SessionReport report = session.Run();
  EXPECT_FALSE(report.report.bug_found);
  EXPECT_EQ(probe.iterations, 64);
  EXPECT_EQ(probe.bugs, 0);
}

TEST(SessionReporters, JsonReporterEmitsMachineReadableSummary) {
  systest::api::JsonReporter reporter(stdout);
  SessionConfig config;
  config.scenario = "race";
  TestSession session(config);
  session.AddObserver(&reporter);
  (void)session.Run();
  const std::string& json = reporter.Last();
  EXPECT_NE(json.find("\"scenario\":\"race\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mode\":\"serial\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bug_found\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bug_kind\":\"safety\""), std::string::npos) << json;
}

TEST(SessionReporters, JsonEscapesControlCharacters) {
  EXPECT_EQ(systest::api::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// A scenario whose name-adjacent prose embeds quotes and a backslash — the
// JSON reporter must emit it escaped, not as broken raw JSON.
SYSTEST_REGISTER_SCENARIO(test_quoted_description) {
  Scenario s;
  s.name = "test-quoted-description";
  s.description = "says \"hello\" with a \\backslash (test-only)";
  s.tags = {"test"};
  s.params = {{"rounds", "ping-pong rounds (default 6)"}};
  s.make = [](const ParamMap& params) -> systest::Harness {
    const int rounds = static_cast<int>(params.GetUint("rounds", 6));
    return [rounds](systest::Runtime& rt) {
      auto a = rt.CreateMachine<GoldenPaddle>("A", rounds);
      auto b = rt.CreateMachine<GoldenPaddle>("B", rounds);
      static_cast<GoldenPaddle*>(rt.FindMachine(a))->SetPeer(b);
      auto* pb = static_cast<GoldenPaddle*>(rt.FindMachine(b));
      pb->SetPeer(a);
      pb->Serve();
    };
  };
  s.default_config = [] {
    TestConfig config;
    config.iterations = 1;
    config.max_steps = 500;
    return config;
  };
  return s;
}

TEST(SessionReporters, JsonReporterEscapesQuotedDescriptions) {
  systest::api::JsonReporter reporter(stdout);
  SessionConfig config;
  config.scenario = "test-quoted-description";
  TestSession session(config);
  session.AddObserver(&reporter);
  (void)session.Run();
  const std::string& json = reporter.Last();
  EXPECT_NE(json.find("\"description\":\"says \\\"hello\\\" with a "
                      "\\\\backslash (test-only)\""),
            std::string::npos)
      << json;
  // Structural sanity: an even number of unescaped quotes means the
  // embedded quotes did not break the object.
  int unescaped_quotes = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) ++unescaped_quotes;
  }
  EXPECT_EQ(unescaped_quotes % 2, 0) << json;
}

TEST(SessionReporters, StatefulSessionEmitsDedupFields) {
  systest::api::JsonReporter reporter(stdout);
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.iterations = 50;
  config.stateful = true;
  TestSession session(config);
  session.AddObserver(&reporter);
  const SessionReport report = session.Run();
  EXPECT_TRUE(report.report.stateful);
  EXPECT_GT(report.report.distinct_states, 0u);
  const std::string& json = reporter.Last();
  EXPECT_NE(json.find("\"distinct_states\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pruned_executions\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fingerprint_hit_rate\":"), std::string::npos) << json;
}

TEST(SessionReporters, CompactingSessionEmitsMergeWork) {
  systest::api::JsonReporter reporter(stdout);
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.iterations = 50;
  config.stateful = true;
  config.max_visited_hot = 64;
  TestSession session(config);
  session.AddObserver(&reporter);
  const SessionReport report = session.Run();
  const systest::VisitedStats& visited = report.report.visited;
  EXPECT_GT(visited.merges, 0u);
  // Each merge writes at least two compactions' worth of keys.
  EXPECT_GE(visited.merged_entries, visited.merges * 2 * 64);
  const std::string& json = reporter.Last();
  EXPECT_NE(json.find("\"visited_merged_entries\":" +
                      std::to_string(visited.merged_entries)),
            std::string::npos)
      << json;
}

TEST(SessionOverrides, StatefulKnobsFlowThroughResolveConfig) {
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.stateful = true;
  config.fingerprint_payloads = true;
  config.max_visited = 1234;
  config.prune_run = 3;
  const TestConfig tc = TestSession(config).ResolveConfig();
  EXPECT_TRUE(tc.stateful);
  EXPECT_TRUE(tc.fingerprint_payloads);
  EXPECT_EQ(tc.max_visited, 1234u);
  EXPECT_EQ(tc.prune_run, 3u);
}

TEST(SessionOverrides, FaultKnobsFlowThroughResolveConfig) {
  SessionConfig config;
  config.scenario = "samplerepl-fixed";
  config.max_crashes = 2;
  config.max_restarts = 1;
  config.drop_probability_den = 32;
  config.max_duplications = 4;
  config.fault_odds_den = 8;
  const TestConfig tc = TestSession(config).ResolveConfig();
  EXPECT_TRUE(tc.faults.Enabled());
  EXPECT_EQ(tc.faults.max_crashes, 2u);
  EXPECT_EQ(tc.faults.max_restarts, 1u);
  EXPECT_EQ(tc.faults.drop_probability_den, 32u);
  EXPECT_EQ(tc.faults.max_duplications, 4u);
  EXPECT_EQ(tc.faults.fault_odds_den, 8u);
  // And the crash-recovery scenario carries its own fault defaults.
  SessionConfig scenario_default;
  scenario_default.scenario = "samplerepl-node-crash";
  const TestConfig sd = TestSession(scenario_default).ResolveConfig();
  EXPECT_EQ(sd.faults.max_crashes, 1u);
  EXPECT_EQ(sd.faults.max_restarts, 1u);
}

TEST(SessionReporters, FaultSessionEmitsInjectedFaultFieldsAndSchedule) {
  systest::api::JsonReporter reporter(stdout);
  SessionConfig config;
  config.scenario = "samplerepl-node-crash";
  config.iterations = 5'000;  // the seeded default finds the bug well within
  TestSession session(config);
  session.AddObserver(&reporter);
  const SessionReport report = session.Run();
  ASSERT_TRUE(report.report.bug_found);
  EXPECT_TRUE(report.report.faults);
  EXPECT_GT(report.report.injected_faults.crashes, 0u);
  const std::string& json = reporter.Last();
  EXPECT_NE(json.find("\"faults\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"injected_crashes\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"injected_restarts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"injected_drops\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"injected_duplications\":"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bug_fault_schedule\":\"crash m"), std::string::npos)
      << json;

  // Replay the fault witness through a session with NO fault configuration:
  // the trace alone reproduces the violation.
  SessionConfig replay;
  replay.scenario = "samplerepl-node-crash";
  replay.replay_trace = report.report.bug_trace;
  const SessionReport replayed = TestSession(replay).Run();
  EXPECT_TRUE(replayed.replay_verified);
  EXPECT_EQ(replayed.report.bug_message, report.report.bug_message);
  EXPECT_EQ(replayed.report.bug_trace, report.report.bug_trace);
}

// ---------------------------------------------------------------------------
// Scenario parameters flow into the harness factory.

TEST(SessionParams, ParamsReachTheHarnessFactory) {
  SessionConfig config;
  config.scenario = "test-golden-pingpong";
  config.params.Set("rounds", "1");  // far fewer scheduling points
  config.iterations = 1;
  TraceCollector short_run;
  TestSession session(config);
  session.AddObserver(&short_run);
  (void)session.Run();
  ASSERT_EQ(short_run.Traces().size(), 1u);

  SessionConfig long_config;
  long_config.scenario = "test-golden-pingpong";
  long_config.iterations = 1;  // default rounds=6
  TraceCollector long_run;
  TestSession long_session(long_config);
  long_session.AddObserver(&long_run);
  (void)long_session.Run();
  ASSERT_EQ(long_run.Traces().size(), 1u);
  EXPECT_LT(short_run.Traces()[0].size(), long_run.Traces()[0].size());
}

TEST(SessionParams, MaxStepsOverrideRescalesLivenessThreshold) {
  // fabric pins liveness_temperature_threshold=4000 against max_steps=5000;
  // shrinking max_steps below the threshold must rescale it instead of
  // tripping Validate() (the pre-registry CLI allowed such quick runs).
  SessionConfig config;
  config.scenario = "fabric-failover";
  config.max_steps = 1000;
  config.iterations = 50;
  const SessionReport report = TestSession(config).Run();  // must not throw
  EXPECT_GE(report.report.executions, 1u);
}

TEST(SessionParams, UndeclaredParamIsRejected) {
  SessionConfig config;
  config.scenario = "race";
  config.params.Set("not-a-param", "1");
  EXPECT_THROW(TestSession(config).Run(), std::invalid_argument);
}

}  // namespace
