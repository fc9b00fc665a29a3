// Fault-plane tests: scheduler-controlled machine crash/restart and message
// drop/duplication. Covers the crash/restart semantics (halt-style wipe,
// OnCrash/OnRestart hooks, restart-to-initial-state), budget enforcement,
// the delivery faults (drop, duplication via the event-clone registry),
// trace v2 recording, bit-for-bit replay of fault schedules WITHOUT any
// fault configuration, fingerprint integration, the prune_run knob and the
// TestConfig::Validate fault rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/systest.h"
#include "samplerepl/harness.h"

namespace {

using systest::BugKind;
using systest::Decision;
using systest::DeliveryFault;
using systest::DeliveryFaultContext;
using systest::Event;
using systest::FaultContext;
using systest::FaultDecision;
using systest::Machine;
using systest::MachineId;
using systest::RoundRobinStrategy;
using systest::Runtime;
using systest::RuntimeOptions;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using systest::Trace;

struct Ping final : Event {
  explicit Ping(int n) : n(n) {}
  int n;
};

/// Event with a non-copyable member: never registered for cloning, so the
/// fault plane must not offer it for duplication.
struct Uncopyable final : Event {
  Uncopyable() : token(std::make_unique<int>(7)) {}
  std::unique_ptr<int> token;
};

/// Counts everything that happens to it, so tests can observe crash wipes,
/// restarts and duplicated deliveries.
class Prober final : public Machine {
 public:
  Prober() {
    State("Run")
        .On<Ping>(&Prober::OnPing)
        .On<Uncopyable>(&Prober::OnUncopyable);
    SetStart("Run");
  }

  void SetPeer(MachineId peer) { peer_ = peer; }
  void SetSendOnStart(int count) { send_on_start_ = count; }

  int pings_handled = 0;
  int uncopyables_handled = 0;
  int starts = 0;
  int crashes_seen = 0;
  int restarts_seen = 0;
  std::uint64_t volatile_counter = 0;  // reset by OnCrash (in-memory state)
  std::uint64_t durable_counter = 0;   // survives crashes

 protected:
  void OnCrash() override {
    ++crashes_seen;
    volatile_counter = 0;
  }
  void OnRestart() override { ++restarts_seen; }

 private:
  void OnPing(const Ping&) {
    ++pings_handled;
    ++volatile_counter;
    ++durable_counter;
  }
  void OnUncopyable(const Uncopyable&) { ++uncopyables_handled; }

  MachineId peer_;
  int send_on_start_ = 0;
};

// Entry hook counted separately so restart-to-initial-state is observable.
class Restartable final : public Machine {
 public:
  Restartable() {
    State("Boot").OnEntry(&Restartable::OnBoot);
    SetStart("Boot");
  }
  int boots = 0;
  int restarts_seen = 0;

 protected:
  void OnRestart() override { ++restarts_seen; }

 private:
  void OnBoot() { ++boots; }
};

/// Deterministic fault script layered over round-robin scheduling: crashes /
/// restarts / delivery faults fire exactly where the test says.
class ScriptedFaultStrategy final : public systest::SchedulingStrategy {
 public:
  struct StepFault {
    std::uint64_t step;
    FaultDecision::Kind kind;
    MachineId machine;
  };
  struct DeliveryScript {
    std::uint64_t ordinal;
    DeliveryFault fault;
  };

  void PrepareIteration(std::uint64_t iteration,
                        std::uint64_t max_steps) override {
    rr_.PrepareIteration(iteration, max_steps);
  }
  MachineId Next(std::span<const MachineId> enabled,
                 std::uint64_t step) override {
    return rr_.Next(enabled, step);
  }
  bool NextBool() override { return rr_.NextBool(); }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return rr_.NextInt(bound);
  }
  FaultDecision NextFault(const FaultContext& ctx) override {
    for (const StepFault& f : step_faults) {
      if (f.step == ctx.step) return {f.kind, f.machine};
    }
    return {};
  }
  DeliveryFault NextDeliveryFault(const DeliveryFaultContext& ctx) override {
    for (const DeliveryScript& d : delivery_faults) {
      if (d.ordinal == ctx.ordinal) {
        // Honor the runtime's own gating: a duplication the runtime did not
        // offer (no clone, budget out) must not be forced.
        if (d.fault == DeliveryFault::kDuplicate && !ctx.duplicate_allowed) {
          return DeliveryFault::kNone;
        }
        return d.fault;
      }
    }
    return DeliveryFault::kNone;
  }
  [[nodiscard]] std::string Name() const override { return "scripted-fault"; }

  std::vector<StepFault> step_faults;
  std::vector<DeliveryScript> delivery_faults;

 private:
  RoundRobinStrategy rr_;
};

/// Two probers ping-ponging `rounds` times; A (id 1) is crashable.
systest::Harness ProberPair(int rounds, bool crashable = true) {
  return [rounds, crashable](Runtime& rt) {
    const MachineId a = rt.CreateMachine<Prober>("A");
    const MachineId b = rt.CreateMachine<Prober>("B");
    if (crashable) rt.SetCrashable(a);
    for (int i = 0; i < rounds; ++i) {
      rt.SendEvent<Ping>(a, i);
      rt.SendEvent<Ping>(b, i);
    }
  };
}

Prober& ProberAt(Runtime& rt, std::uint64_t id) {
  return *static_cast<Prober*>(rt.FindMachine(MachineId{id}));
}

// ---------------------------------------------------------------------------
// Crash / restart semantics

TEST(FaultPlane, CrashWipesQueueAndDisablesMachine) {
  ScriptedFaultStrategy strategy;
  strategy.step_faults = {{0, FaultDecision::Kind::kCrash, MachineId{1}}};
  RuntimeOptions options;
  options.faults.max_crashes = 1;
  Runtime rt(strategy, options);
  ProberPair(3)(rt);

  ASSERT_EQ(rt.FindMachine(MachineId{1})->QueueLength(), 3u);
  while (rt.Step()) {
  }
  const Prober& a = ProberAt(rt, 1);
  EXPECT_TRUE(a.Crashed());
  EXPECT_EQ(a.pings_handled, 0);  // crashed at step 0: queue wiped unhandled
  EXPECT_EQ(a.crashes_seen, 1);
  EXPECT_EQ(a.QueueLength(), 0u);
  EXPECT_EQ(ProberAt(rt, 2).pings_handled, 3);  // B unaffected
  EXPECT_EQ(rt.GetFaultStats().crashes, 1u);
}

TEST(FaultPlane, DeliveriesToCrashedMachineAreDropped) {
  ScriptedFaultStrategy strategy;
  strategy.step_faults = {{0, FaultDecision::Kind::kCrash, MachineId{1}}};
  RuntimeOptions options;
  options.faults.max_crashes = 1;
  Runtime rt(strategy, options);
  ProberPair(1)(rt);
  while (rt.Step()) {
  }
  // Post-crash sends vanish silently, like sends to a halted machine.
  rt.SendEvent<Ping>(MachineId{1}, 99);
  EXPECT_EQ(ProberAt(rt, 1).QueueLength(), 0u);
}

TEST(FaultPlane, RestartRunsStartEntryWithDurableState) {
  ScriptedFaultStrategy strategy;
  strategy.step_faults = {{2, FaultDecision::Kind::kCrash, MachineId{1}},
                          {4, FaultDecision::Kind::kRestart, MachineId{1}}};
  RuntimeOptions options;
  options.faults.max_crashes = 1;
  options.faults.max_restarts = 1;
  Runtime rt(strategy, options);
  rt.CreateMachine<Restartable>("R");
  rt.SetCrashable(MachineId{1});
  // Keep a second machine stepping so the scheduler reaches steps 2 and 4.
  const MachineId b = rt.CreateMachine<Prober>("B");
  for (int i = 0; i < 8; ++i) rt.SendEvent<Ping>(b, i);
  while (rt.Step()) {
  }
  auto& r = *static_cast<Restartable*>(rt.FindMachine(MachineId{1}));
  EXPECT_FALSE(r.Crashed());
  EXPECT_EQ(r.boots, 2);  // initial start + post-restart start
  EXPECT_EQ(r.restarts_seen, 1);
  EXPECT_EQ(r.RestartCount(), 1u);
  EXPECT_EQ(rt.GetFaultStats().restarts, 1u);
}

TEST(FaultPlane, OnCrashSeparatesVolatileFromDurableState) {
  ScriptedFaultStrategy strategy;
  // Steps 0/1 start A and B; step 2 lets A handle one ping; the crash lands
  // at the step-3 boundary with state to lose.
  strategy.step_faults = {{3, FaultDecision::Kind::kCrash, MachineId{1}}};
  RuntimeOptions options;
  options.faults.max_crashes = 1;
  Runtime rt(strategy, options);
  ProberPair(2)(rt);
  while (rt.Step()) {
  }
  const Prober& a = ProberAt(rt, 1);
  EXPECT_GT(a.durable_counter, 0u);      // survives the crash
  EXPECT_EQ(a.volatile_counter, 0u);     // wiped by OnCrash
}

TEST(FaultPlane, CrashBudgetIsEnforcedPerExecution) {
  const TestConfig config = [] {
    TestConfig c;
    c.iterations = 50;
    c.max_steps = 200;
    c.strategy = "random";
    c.seed = 11;
    c.faults.max_crashes = 1;
    c.faults.max_restarts = 1;
    // Aggressive odds: faults fire almost every run
    c.faults.fault_odds_den = 2;
    return c;
  }();
  config.Validate();
  std::uint64_t max_crashes_seen = 0;
  TestingEngine engine(config, ProberPair(5));
  engine.SetIterationCallback(
      [&](std::uint64_t, const systest::ExecutionResult& result) {
        max_crashes_seen = std::max(max_crashes_seen, result.faults.crashes);
        EXPECT_LE(result.faults.crashes, 1u);
        EXPECT_LE(result.faults.restarts, 1u);
      });
  const TestReport report = engine.Run();
  EXPECT_TRUE(report.faults);
  EXPECT_EQ(max_crashes_seen, 1u);  // odds 1/2: some execution crashed
  EXPECT_GT(report.injected_faults.crashes, 0u);
}

TEST(FaultPlane, NoCrashableMachinesMeansNoFaultQueries) {
  // Budgets set but nothing opted in: behavior (and the RNG stream) must be
  // bit-for-bit identical to a fault-free run.
  TestConfig config;
  config.iterations = 4;
  config.max_steps = 200;
  config.strategy = "random";
  config.seed = 3;
  std::vector<std::string> plain_traces;
  {
    TestingEngine engine(config, ProberPair(3, /*crashable=*/false));
    engine.SetIterationCallback(
        [&](std::uint64_t, const systest::ExecutionResult& result) {
          plain_traces.push_back(result.trace.ToString());
        });
    (void)engine.Run();
  }
  config.faults.max_crashes = 2;
  config.faults.max_restarts = 2;
  std::vector<std::string> fault_traces;
  {
    TestingEngine engine(config, ProberPair(3, /*crashable=*/false));
    engine.SetIterationCallback(
        [&](std::uint64_t, const systest::ExecutionResult& result) {
          fault_traces.push_back(result.trace.ToString());
        });
    (void)engine.Run();
  }
  EXPECT_EQ(plain_traces, fault_traces);
}

// ---------------------------------------------------------------------------
// Delivery faults

TEST(FaultPlane, DropLosesExactlyTheScriptedDelivery) {
  ScriptedFaultStrategy strategy;
  strategy.delivery_faults = {{1, DeliveryFault::kDrop}};
  RuntimeOptions options;
  options.faults.drop_probability_den = 4;  // enables the choice point
  Runtime rt(strategy, options);
  // Machine-to-machine traffic: A sends B three pings via a relay machine
  // pattern — simplest is B sending to A. Use harness-built pair but drive
  // sends from a machine: the harness SendEvents are NOT eligible (no
  // sender), so route through a sender machine.
  const MachineId a = rt.CreateMachine<Prober>("A");
  struct Sender final : Machine {
    explicit Sender(MachineId to) : to(to) {
      State("S").OnEntry(&Sender::Go);
      SetStart("S");
    }
    void Go() {
      for (int i = 0; i < 3; ++i) Send<Ping>(to, i);
    }
    MachineId to;
  };
  rt.CreateMachine<Sender>("S", a);
  while (rt.Step()) {
  }
  // Ordinal 1 (the second machine-to-machine delivery) was dropped.
  EXPECT_EQ(ProberAt(rt, 1).pings_handled, 2);
  EXPECT_EQ(rt.GetFaultStats().drops, 1u);
  EXPECT_TRUE(rt.GetTrace().HasFaultDecisions());
}

TEST(FaultPlane, DuplicationDeliversTwiceAndSkipsUncopyableEvents) {
  ScriptedFaultStrategy strategy;
  strategy.delivery_faults = {{0, DeliveryFault::kDuplicate},
                              {1, DeliveryFault::kDuplicate}};
  RuntimeOptions options;
  options.faults.max_duplications = 8;
  Runtime rt(strategy, options);
  const MachineId a = rt.CreateMachine<Prober>("A");
  struct Sender final : Machine {
    explicit Sender(MachineId to) : to(to) {
      State("S").OnEntry(&Sender::Go);
      SetStart("S");
    }
    void Go() {
      Send<Ping>(to, 0);        // ordinal 0: duplicated
      Send<Uncopyable>(to);     // ordinal 1: no clone fn -> not offered
    }
    MachineId to;
  };
  rt.CreateMachine<Sender>("S", a);
  while (rt.Step()) {
  }
  const Prober& pa = ProberAt(rt, 1);
  EXPECT_EQ(pa.pings_handled, 2);        // one send, two deliveries
  EXPECT_EQ(pa.uncopyables_handled, 1);  // uncopyable never duplicated
  EXPECT_EQ(rt.GetFaultStats().duplications, 1u);
}

TEST(FaultPlane, SelfSendsAndHarnessSendsAreExempt) {
  // Drop EVERYTHING eligible: self-sends and harness setup sends must still
  // arrive or the machinery would break internal control flow.
  struct SelfLooper final : Machine {
    SelfLooper() {
      State("S").OnEntry(&SelfLooper::Kick).On<Ping>(&SelfLooper::OnPing);
      SetStart("S");
    }
    void Kick() { Send<Ping>(Id(), 0); }
    void OnPing(const Ping& p) {
      ++handled;
      if (p.n < 3) Send<Ping>(Id(), p.n + 1);
    }
    int handled = 0;
  };
  ScriptedFaultStrategy strategy;
  for (std::uint64_t i = 0; i < 64; ++i) {
    strategy.delivery_faults.push_back({i, DeliveryFault::kDrop});
  }
  RuntimeOptions options;
  options.faults.drop_probability_den = 2;
  Runtime rt(strategy, options);
  rt.CreateMachine<SelfLooper>("L");
  rt.SendEvent<Ping>(MachineId{1}, 0);  // harness send: exempt
  while (rt.Step()) {
  }
  auto& looper = *static_cast<SelfLooper*>(rt.FindMachine(MachineId{1}));
  // Two full chains (harness kick + entry kick), nothing dropped: 8 pings.
  EXPECT_EQ(looper.handled, 8);
  EXPECT_EQ(rt.GetFaultStats().drops, 0u);
}

// ---------------------------------------------------------------------------
// Trace v2 + replay

TEST(FaultPlane, FaultDecisionsRecordedAndSerializedAsV2) {
  ScriptedFaultStrategy strategy;
  strategy.step_faults = {{1, FaultDecision::Kind::kCrash, MachineId{1}},
                          {3, FaultDecision::Kind::kRestart, MachineId{1}}};
  RuntimeOptions options;
  options.faults.max_crashes = 1;
  options.faults.max_restarts = 1;
  Runtime rt(strategy, options);
  ProberPair(3)(rt);
  while (rt.Step()) {
  }
  const Trace& trace = rt.GetTrace();
  ASSERT_TRUE(trace.HasFaultDecisions());
  const std::string serialized = trace.Serialize();
  EXPECT_EQ(serialized.rfind("systest-trace v2 ", 0), 0u);
  // Round-trips exactly, including the fault decisions.
  const Trace reloaded = Trace::Deserialize(serialized);
  EXPECT_EQ(reloaded, trace);
  EXPECT_EQ(trace.DescribeFaults(), "crash m1@s1; restart m1@s3");
}

TEST(FaultPlane, ReplayReappliesFaultScheduleWithoutFaultConfig) {
  // Explore with faults until the samplerepl crash-recovery bug fires, then
  // replay the witness through a config with NO fault fields set: the trace
  // alone must reproduce the same bug at the same step count, and the
  // re-recorded trace must be bit-identical (the acceptance criterion).
  samplerepl::HarnessOptions hopts;
  hopts.crashable_nodes = true;
  hopts.liveness_monitor = false;
  const systest::Harness harness = samplerepl::MakeHarness(hopts);

  TestConfig explore = samplerepl::DefaultConfig();
  explore.iterations = 5'000;
  explore.faults.max_crashes = 1;
  explore.faults.max_restarts = 1;
  TestingEngine explorer(explore, harness);
  const TestReport found = explorer.Run();
  ASSERT_TRUE(found.bug_found) << "crash-recovery bug not found in budget";
  ASSERT_EQ(found.bug_kind, BugKind::kSafety);
  ASSERT_TRUE(found.bug_trace.HasFaultDecisions());

  TestConfig replay_config = samplerepl::DefaultConfig();  // NO fault fields
  TestingEngine replayer(replay_config, harness);
  const TestReport replayed = replayer.Replay(found.bug_trace);
  EXPECT_TRUE(replayed.bug_found);
  EXPECT_EQ(replayed.bug_kind, found.bug_kind);
  EXPECT_EQ(replayed.bug_message, found.bug_message);
  EXPECT_EQ(replayed.bug_steps, found.bug_steps);
  EXPECT_EQ(replayed.bug_trace, found.bug_trace);  // bit-for-bit
  EXPECT_TRUE(replayed.faults);
  std::uint64_t recorded_crashes = 0;
  for (const Decision& d : found.bug_trace.Decisions()) {
    if (d.kind == Decision::Kind::kCrash) ++recorded_crashes;
  }
  EXPECT_EQ(replayed.injected_faults.crashes, recorded_crashes);
}

TEST(FaultPlane, DropAndDuplicationReplayFromTheTraceAlone) {
  // Record an execution with one drop and one duplication, then replay it
  // through a runtime with NO fault budgets (replay_faults only): the same
  // deliveries must be dropped/duplicated and the re-recorded trace must be
  // identical.
  struct Sender final : Machine {
    explicit Sender(MachineId to) : to(to) {
      State("S").OnEntry(&Sender::Go);
      SetStart("S");
    }
    void Go() {
      for (int i = 0; i < 4; ++i) Send<Ping>(to, i);
    }
    MachineId to;
  };
  auto harness = [](Runtime& rt) {
    const MachineId a = rt.CreateMachine<Prober>("A");
    rt.CreateMachine<Sender>("S", a);
  };

  Trace recorded;
  int recorded_pings = 0;
  {
    ScriptedFaultStrategy strategy;
    strategy.delivery_faults = {{0, DeliveryFault::kDuplicate},
                                {2, DeliveryFault::kDrop}};
    RuntimeOptions options;
    options.faults.drop_probability_den = 4;
    options.faults.max_duplications = 1;
    Runtime rt(strategy, options);
    harness(rt);
    while (rt.Step()) {
    }
    recorded = rt.GetTrace();
    recorded_pings = ProberAt(rt, 1).pings_handled;
    ASSERT_EQ(rt.GetFaultStats().drops, 1u);
    ASSERT_EQ(rt.GetFaultStats().duplications, 1u);
    ASSERT_EQ(recorded_pings, 4);  // 4 sent + 1 dup - 1 drop
  }
  {
    systest::ReplayStrategy strategy(recorded);
    strategy.PrepareIteration(0, 10'000);
    RuntimeOptions options;  // NO fault budgets
    options.replay_faults = true;
    Runtime rt(strategy, options);
    harness(rt);
    while (rt.Step()) {
    }
    EXPECT_EQ(ProberAt(rt, 1).pings_handled, recorded_pings);
    EXPECT_EQ(rt.GetFaultStats().drops, 1u);
    EXPECT_EQ(rt.GetFaultStats().duplications, 1u);
    EXPECT_EQ(rt.GetTrace(), recorded);  // bit-for-bit re-record
  }
}

TEST(FaultPlane, ReplayOfFaultFreeTraceStillWorksThroughFaultAwarePath) {
  // The replay runtime always runs with replay_faults on; a fault-free trace
  // must replay exactly as before.
  TestConfig config;
  config.iterations = 1;
  config.max_steps = 200;
  config.strategy = "random";
  config.seed = 9;
  TestingEngine engine(config, ProberPair(3, /*crashable=*/false));
  std::string trace_text;
  engine.SetIterationCallback(
      [&](std::uint64_t, const systest::ExecutionResult& result) {
        trace_text = result.trace.ToString();
      });
  (void)engine.Run();
  const TestReport replayed =
      TestingEngine(config, ProberPair(3, /*crashable=*/false))
          .Replay(Trace::Parse(trace_text));
  EXPECT_FALSE(replayed.bug_found);
  EXPECT_FALSE(replayed.faults);
  // Clean replays re-record the decisions they consumed so callers can check
  // the round trip; a faithful replay reproduces the input bit-for-bit.
  EXPECT_EQ(replayed.bug_trace, Trace::Parse(trace_text));
}

// ---------------------------------------------------------------------------
// Fingerprint integration

TEST(FaultPlane, CrashChangesExecutionFingerprint) {
  auto run_to = [](bool crash, std::uint64_t steps) {
    ScriptedFaultStrategy strategy;
    if (crash) {
      strategy.step_faults = {{1, FaultDecision::Kind::kCrash, MachineId{1}}};
    }
    RuntimeOptions options;
    // SAME options both runs: budget hash aligned
    options.faults.max_crashes = 1;
    options.stateful = true;
    auto rt = std::make_unique<Runtime>(strategy, options);
    ProberPair(2)(*rt);
    for (std::uint64_t i = 0; i < steps && rt->Step(); ++i) {
    }
    return rt->ExecutionFingerprint();
  };
  EXPECT_NE(run_to(true, 4), run_to(false, 4));
}

TEST(FaultPlane, IncrementalFingerprintMatchesRecomputeUnderFaults) {
  ScriptedFaultStrategy strategy;
  strategy.step_faults = {{1, FaultDecision::Kind::kCrash, MachineId{1}},
                          {3, FaultDecision::Kind::kRestart, MachineId{1}}};
  RuntimeOptions options;
  options.faults.max_crashes = 1;
  options.faults.max_restarts = 1;
  options.stateful = true;
  options.fingerprint_payloads = true;
  Runtime rt(strategy, options);
  ProberPair(3)(rt);
  do {
    ASSERT_EQ(rt.ExecutionFingerprint(), rt.RecomputeExecutionFingerprint())
        << "at step " << rt.Steps();
  } while (rt.Step());
}

// ---------------------------------------------------------------------------
// prune_run knob (ROADMAP follow-up)

TEST(FaultPlane, PruneRunKnobControlsPruningAggressiveness) {
  TestConfig config;
  config.iterations = 60;
  config.max_steps = 300;
  config.strategy = "random";
  config.seed = 5;
  config.stateful = true;
  config.prune_run = 1;  // prune at the FIRST revisited state
  const TestReport aggressive =
      TestingEngine(config, ProberPair(3, false)).Run();
  config.prune_run = 1'000'000;  // effectively never prune
  const TestReport lenient = TestingEngine(config, ProberPair(3, false)).Run();
  EXPECT_GT(aggressive.pruned_executions, 0u);
  EXPECT_EQ(lenient.pruned_executions, 0u);
  EXPECT_GE(aggressive.pruned_executions, lenient.pruned_executions);
}

// ---------------------------------------------------------------------------
// Validate rules

TEST(FaultPlane, ValidateRejectsBrokenFaultConfigs) {
  TestConfig config;
  config.strategy = "random";
  config.Validate();

  TestConfig restarts_only = config;
  restarts_only.faults.max_restarts = 1;
  EXPECT_THROW(restarts_only.Validate(), std::invalid_argument);

  TestConfig drop_all = config;
  drop_all.faults.drop_probability_den = 1;
  EXPECT_THROW(drop_all.Validate(), std::invalid_argument);

  TestConfig degenerate_odds = config;
  degenerate_odds.faults.max_crashes = 1;
  degenerate_odds.faults.fault_odds_den = 1;
  EXPECT_THROW(degenerate_odds.Validate(), std::invalid_argument);

  TestConfig zero_prune = config;
  zero_prune.stateful = true;
  zero_prune.prune_run = 0;
  EXPECT_THROW(zero_prune.Validate(), std::invalid_argument);

  TestConfig ok = config;
  ok.faults.max_crashes = 2;
  ok.faults.max_restarts = 2;
  ok.faults.drop_probability_den = 16;
  ok.faults.max_duplications = 3;
  ok.Validate();  // no throw
}

}  // namespace
