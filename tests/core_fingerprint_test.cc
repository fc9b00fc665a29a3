// Stateful-exploration tests: fingerprint determinism (same seed => same
// fingerprint sequence, serial and across 1-vs-N exploration workers),
// byte-identical traces with stateful off vs on (fingerprinting must never
// perturb scheduling), collision safety of the default hashable state view,
// the incremental-vs-recompute cross-check, engine pruning/stats, the
// max_visited cap, and the new TestConfig::Validate rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "chaintable/memory_table.h"
#include "core/systest.h"
#include "explore/parallel_engine.h"
#include "explore/sharded_fingerprint_set.h"
#include "mtable/tables_machine.h"
#include "samplerepl/harness.h"
#include "tests/flat_fingerprint_set.h"

namespace {

using systest::Event;
using systest::Fingerprint;
using systest::Machine;
using systest::MachineId;
using systest::StateHasher;
using systest::TestConfig;
using systest::TestingEngine;

struct Ball final : Event {
  explicit Ball(int n) : n(n) {}
  int n;
};

struct Tick final : Event {};

/// Ping-pong with nondeterministic choices, so schedules vary per seed while
/// the default-view state space stays tiny (ball position + queue contents).
class Paddle final : public Machine {
 public:
  explicit Paddle(int rounds) : rounds_(rounds) {
    State("Play").OnEntry(&Paddle::OnStart).On<Ball>(&Paddle::OnBall);
    SetStart("Play");
  }
  void SetPeer(MachineId peer) { peer_ = peer; }
  void Serve() { serve_ = true; }

 private:
  void OnStart() {
    if (serve_) Send<Ball>(peer_, 0);
  }
  void OnBall(const Ball& ball) {
    if (ball.n >= rounds_) return;
    if (NondetBool()) (void)NondetInt(5);
    Send<Ball>(peer_, ball.n + 1);
  }

  MachineId peer_;
  int rounds_;
  bool serve_ = false;
};

systest::Harness PingPongHarness(int rounds) {
  return [rounds](systest::Runtime& rt) {
    auto a = rt.CreateMachine<Paddle>("A", rounds);
    auto b = rt.CreateMachine<Paddle>("B", rounds);
    static_cast<Paddle*>(rt.FindMachine(a))->SetPeer(b);
    auto* pb = static_cast<Paddle*>(rt.FindMachine(b));
    pb->SetPeer(a);
    pb->Serve();
  };
}

/// Two-state machine driven between its states by Tick gotos.
class TwoState final : public Machine {
 public:
  TwoState() {
    State("A").OnGoto<Tick>("B");
    State("B").OnGoto<Tick>("A");
    SetStart("A");
  }
};

/// Machine whose semantic state is a counter invisible to the default view.
class Counter final : public Machine {
 public:
  Counter() {
    State("Run").On<Tick>(&Counter::OnTick);
    SetStart("Run");
  }
  void FingerprintPayload(StateHasher& hasher) const override {
    hasher.Mix(static_cast<std::uint64_t>(count_));
  }
  /// Harness-setup mutation (the SetPeer pattern): must be visible to the
  /// very first fingerprint even though it happens after CreateMachine.
  void Prime(int value) { count_ = value; }

 private:
  void OnTick(const Tick&) { ++count_; }
  int count_ = 0;
};

systest::RuntimeOptions StatefulOptions(std::uint64_t max_steps = 500) {
  systest::RuntimeOptions options;
  options.max_steps = max_steps;
  options.stateful = true;
  options.record_fingerprint_trail = true;
  return options;
}

/// Steps a stateful runtime to quiescence with NO visited set (no pruning)
/// and returns the full fingerprint trail.
std::vector<Fingerprint> FullTrail(const systest::Harness& harness,
                                   systest::SchedulingStrategy& strategy,
                                   std::uint64_t iteration,
                                   std::uint64_t max_steps) {
  strategy.PrepareIteration(iteration, max_steps);
  systest::Runtime rt(strategy, StatefulOptions(max_steps));
  harness(rt);
  while (rt.Steps() < max_steps && rt.Step()) {
  }
  return rt.FingerprintTrail();
}

// ---------------------------------------------------------------------------
// Default hashable state view: collision safety.

TEST(FingerprintView, DifferentStatesNeverHashEqual) {
  systest::RoundRobinStrategy strategy(0);
  strategy.PrepareIteration(0, 100);
  systest::Runtime rt(strategy, StatefulOptions(100));
  const MachineId id = rt.CreateMachine<TwoState>("m");
  while (rt.Step()) {
  }
  const Machine* machine = rt.FindMachine(id);
  ASSERT_EQ(machine->CurrentStateName(), "A");
  const Fingerprint in_a = machine->ComputeStateFingerprint(false);

  rt.SendEvent<Tick>(id);
  ASSERT_TRUE(rt.Step());
  ASSERT_EQ(machine->CurrentStateName(), "B");
  const Fingerprint in_b = machine->ComputeStateFingerprint(false);
  EXPECT_NE(in_a, in_b)
      << "same machine, different current state, identical fingerprint";
}

TEST(FingerprintView, DifferentMachinesSameStateNeverHashEqual) {
  systest::RoundRobinStrategy strategy(0);
  strategy.PrepareIteration(0, 100);
  systest::Runtime rt(strategy, StatefulOptions(100));
  const MachineId a = rt.CreateMachine<TwoState>("a");
  const MachineId b = rt.CreateMachine<TwoState>("b");
  while (rt.Step()) {
  }
  EXPECT_EQ(rt.FindMachine(a)->CurrentStateName(),
            rt.FindMachine(b)->CurrentStateName());
  EXPECT_NE(rt.FindMachine(a)->ComputeStateFingerprint(false),
            rt.FindMachine(b)->ComputeStateFingerprint(false))
      << "machine identity must be part of the state view";
}

TEST(FingerprintView, QueuedEventTypesDistinguishStates) {
  systest::RoundRobinStrategy strategy(0);
  strategy.PrepareIteration(0, 100);
  systest::Runtime rt(strategy, StatefulOptions(100));
  const MachineId id = rt.CreateMachine<TwoState>("m");
  while (rt.Step()) {
  }
  const Machine* machine = rt.FindMachine(id);
  const Fingerprint idle = machine->ComputeStateFingerprint(false);
  rt.SendEvent<Tick>(id);
  const Fingerprint with_tick = machine->ComputeStateFingerprint(false);
  EXPECT_NE(idle, with_tick);
}

TEST(FingerprintView, PayloadHookOnlyCountsWhenEnabled) {
  systest::RoundRobinStrategy strategy(0);
  strategy.PrepareIteration(0, 100);
  systest::Runtime rt(strategy, StatefulOptions(100));
  const MachineId id = rt.CreateMachine<Counter>("c");
  while (rt.Step()) {
  }
  const Machine* machine = rt.FindMachine(id);
  const Fingerprint structural = machine->ComputeStateFingerprint(false);
  const Fingerprint with_payload = machine->ComputeStateFingerprint(true);

  rt.SendEvent<Tick>(id);
  ASSERT_TRUE(rt.Step());  // counter increments; state and queue end unchanged

  EXPECT_EQ(machine->ComputeStateFingerprint(false), structural)
      << "default view must not see the counter";
  EXPECT_NE(machine->ComputeStateFingerprint(true), with_payload)
      << "payload view must see the counter";
}

TEST(FingerprintView, SetupTimeMutationReachesTheInitialFingerprint) {
  auto initial_fp = [](int primed) {
    systest::RoundRobinStrategy strategy(0);
    strategy.PrepareIteration(0, 100);
    systest::RuntimeOptions options = StatefulOptions(100);
    options.fingerprint_payloads = true;
    systest::Runtime rt(strategy, options);
    const MachineId id = rt.CreateMachine<Counter>("c");
    // Post-Create, pre-step mutation — the SetPeer harness pattern.
    static_cast<Counter*>(rt.FindMachine(id))->Prime(primed);
    const Fingerprint fp = rt.ExecutionFingerprint();
    EXPECT_EQ(fp, rt.RecomputeExecutionFingerprint());
    return fp;
  };
  EXPECT_NE(initial_fp(5), initial_fp(9))
      << "contribution was hashed before harness setup finished";
}

// ---------------------------------------------------------------------------
// Incremental maintenance matches a from-scratch recompute at every step.

TEST(FingerprintIncremental, MatchesRecomputeEveryStepOnSampleRepl) {
  const systest::Harness harness =
      samplerepl::MakeHarness(samplerepl::HarnessOptions{});
  systest::RandomStrategy strategy(2016);
  strategy.PrepareIteration(0, 2000);
  systest::Runtime rt(strategy, StatefulOptions(2000));
  harness(rt);
  EXPECT_EQ(rt.ExecutionFingerprint(), rt.RecomputeExecutionFingerprint());
  while (rt.Steps() < 2000 && rt.Step()) {
    ASSERT_EQ(rt.ExecutionFingerprint(), rt.RecomputeExecutionFingerprint())
        << "incremental fingerprint diverged at step " << rt.Steps();
  }
}

// ---------------------------------------------------------------------------
// Fingerprinting must not perturb scheduling: identical traces on vs off.

TEST(FingerprintIdentity, StatefulRuntimeProducesIdenticalTraces) {
  const systest::Harness harness = PingPongHarness(6);
  for (const std::uint64_t iteration : {0ull, 2ull}) {
    systest::RandomStrategy off_strategy(7);
    off_strategy.PrepareIteration(iteration, 500);
    systest::RuntimeOptions off_options;
    off_options.max_steps = 500;
    systest::Runtime off(off_strategy, off_options);
    harness(off);
    while (off.Steps() < 500 && off.Step()) {
    }

    systest::RandomStrategy on_strategy(7);
    on_strategy.PrepareIteration(iteration, 500);
    systest::Runtime on(on_strategy, StatefulOptions(500));
    harness(on);
    while (on.Steps() < 500 && on.Step()) {
    }

    EXPECT_EQ(off.GetTrace().ToString(), on.GetTrace().ToString());
    EXPECT_TRUE(off.FingerprintTrail().empty());
    EXPECT_EQ(on.FingerprintTrail().size(), on.Steps());
  }
}

// ---------------------------------------------------------------------------
// Determinism: same seed => same fingerprint sequence, run after run.

using TrailMap = std::map<std::uint64_t, std::vector<Fingerprint>>;

TrailMap SerialTrails(const TestConfig& config, const systest::Harness& harness) {
  TrailMap trails;
  TestingEngine engine(config, harness);
  engine.SetIterationCallback(
      [&trails](std::uint64_t iteration, const systest::ExecutionResult& r) {
        trails[iteration] = r.fingerprint_trail;
      });
  (void)engine.Run();
  return trails;
}

TestConfig StatefulConfig() {
  TestConfig config;
  config.strategy = "random";
  config.seed = 7;
  config.iterations = 12;
  config.max_steps = 500;
  config.stateful = true;
  config.record_fingerprint_trail = true;
  config.stop_on_first_bug = false;
  return config;
}

TEST(FingerprintDeterminism, SameSeedSameSequenceAcrossRuns) {
  const systest::Harness harness = PingPongHarness(6);
  const TrailMap first = SerialTrails(StatefulConfig(), harness);
  const TrailMap second = SerialTrails(StatefulConfig(), harness);
  ASSERT_EQ(first.size(), 12u);
  EXPECT_EQ(first, second);
  bool any_nonempty = false;
  for (const auto& [iteration, trail] : first) any_nonempty |= !trail.empty();
  EXPECT_TRUE(any_nonempty);
}

TEST(FingerprintDeterminism, OneWorkerExploreMatchesSerialExactly) {
  const systest::Harness harness = PingPongHarness(6);
  const TrailMap serial = SerialTrails(StatefulConfig(), harness);

  systest::explore::ParallelOptions options;
  options.threads = 1;
  options.verify_replay = false;
  TrailMap parallel;
  std::mutex mutex;
  options.on_iteration = [&](int /*worker*/, std::uint64_t iteration,
                             const systest::ExecutionResult& r) {
    const std::lock_guard<std::mutex> lock(mutex);
    parallel[iteration] = r.fingerprint_trail;
  };
  systest::explore::ParallelTestingEngine engine(StatefulConfig(), harness,
                                                 options);
  (void)engine.Run();
  EXPECT_EQ(serial, parallel);
}

TEST(FingerprintDeterminism, NWorkerTrailsArePrefixesOfTheirSeedsFullTrails) {
  const systest::Harness harness = PingPongHarness(6);
  const TestConfig config = StatefulConfig();

  systest::explore::ParallelOptions options;
  options.threads = 2;
  options.verify_replay = false;
  // (worker, local iteration) -> trail.
  std::map<std::pair<int, std::uint64_t>, std::vector<Fingerprint>> trails;
  std::mutex mutex;
  options.on_iteration = [&](int worker, std::uint64_t iteration,
                             const systest::ExecutionResult& r) {
    const std::lock_guard<std::mutex> lock(mutex);
    trails[{worker, iteration}] = r.fingerprint_trail;
  };
  systest::explore::ParallelTestingEngine engine(config, harness, options);
  const auto report = engine.Run();

  ASSERT_EQ(report.workers.size(), 2u);
  ASSERT_FALSE(trails.empty());
  for (const auto& [key, trail] : trails) {
    const auto& assignment =
        report.workers[static_cast<std::size_t>(key.first)].assignment;
    systest::RandomStrategy strategy(assignment.seed);
    const std::vector<Fingerprint> full =
        FullTrail(harness, strategy, key.second, config.max_steps);
    // Shared-set pruning may truncate a worker's execution at any point
    // (cross-worker timing), but it can never CHANGE the sequence: every
    // observed trail is a prefix of the full deterministic trail.
    ASSERT_LE(trail.size(), full.size());
    EXPECT_TRUE(std::equal(trail.begin(), trail.end(), full.begin()))
        << "worker " << key.first << " iteration " << key.second;
  }
}

// ---------------------------------------------------------------------------
// Engine pruning and stats.

TEST(StatefulEngine, PrunesReconvergedExecutionsAndReportsStats) {
  const systest::Harness harness = PingPongHarness(6);
  TestConfig config = StatefulConfig();
  config.iterations = 100;
  const systest::TestReport report = TestingEngine(config, harness).Run();
  EXPECT_FALSE(report.bug_found);
  EXPECT_TRUE(report.stateful);
  EXPECT_GT(report.distinct_states, 0u);
  EXPECT_GT(report.pruned_executions, 0u);
  EXPECT_GT(report.fingerprint_hits, 0u);
  EXPECT_GT(report.FingerprintHitRate(), 0.0);
  EXPECT_NE(report.Summary().find("stateful"), std::string::npos);
}

TEST(StatefulEngine, StatelessRunsCarryNoFingerprintState) {
  const systest::Harness harness = PingPongHarness(6);
  TestConfig config = StatefulConfig();
  config.stateful = false;
  bool saw_iteration = false;
  TestingEngine engine(config, harness);
  engine.SetIterationCallback(
      [&](std::uint64_t, const systest::ExecutionResult& r) {
        saw_iteration = true;
        EXPECT_TRUE(r.fingerprint_trail.empty());
        EXPECT_FALSE(r.pruned);
      });
  const systest::TestReport report = engine.Run();
  EXPECT_TRUE(saw_iteration);
  EXPECT_FALSE(report.stateful);
  EXPECT_EQ(report.distinct_states, 0u);
  EXPECT_EQ(report.Summary().find("stateful"), std::string::npos);
}

TEST(StatefulEngine, MaxVisitedCapsTheSet) {
  const systest::Harness harness = PingPongHarness(6);
  TestConfig config = StatefulConfig();
  config.iterations = 50;
  config.max_visited = 3;
  const systest::TestReport report = TestingEngine(config, harness).Run();
  EXPECT_LE(report.distinct_states, 3u);
}

TEST(StatefulEngine, ParallelWorkersShareTheVisitedSet) {
  const systest::Harness harness = PingPongHarness(6);
  TestConfig config = StatefulConfig();
  config.iterations = 200;
  systest::explore::ParallelOptions options;
  options.threads = 4;
  options.verify_replay = false;
  systest::explore::ParallelTestingEngine engine(config, harness, options);
  const auto report = engine.Run();
  EXPECT_TRUE(report.aggregate.stateful);
  EXPECT_GT(report.aggregate.distinct_states, 0u);
  EXPECT_GT(report.aggregate.pruned_executions, 0u);
  // The shared set holds the union, far below the sum of per-worker traffic.
  EXPECT_LE(report.aggregate.distinct_states,
            report.aggregate.fingerprint_hits +
                report.aggregate.fingerprint_misses);
  std::uint64_t worker_pruned = 0;
  for (const auto& w : report.workers) worker_pruned += w.pruned_executions;
  EXPECT_EQ(worker_pruned, report.aggregate.pruned_executions);
}

// ---------------------------------------------------------------------------
// Visited-set implementations.

TEST(VisitedSets, FingerprintSetInsertAndFreeze) {
  systest::FingerprintSet set(2);
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Insert(1));
  EXPECT_TRUE(set.Insert(2));
  EXPECT_EQ(set.Size(), 2u);
  // Frozen: unseen states stay novel-but-unrecorded, known ones still hit.
  EXPECT_TRUE(set.Insert(3));
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(2));
  EXPECT_EQ(set.Size(), 2u);
}

TEST(VisitedSets, ShardedSetMatchesSerialSemantics) {
  systest::explore::ShardedFingerprintSet set(1024);
  for (Fingerprint fp = 0; fp < 300; ++fp) {
    EXPECT_TRUE(set.Insert(fp * 0x9e3779b97f4a7c15ull));
  }
  for (Fingerprint fp = 0; fp < 300; ++fp) {
    EXPECT_FALSE(set.Insert(fp * 0x9e3779b97f4a7c15ull));
  }
  EXPECT_EQ(set.Size(), 300u);
}

// ---------------------------------------------------------------------------
// mtable differential-store-row payload: InMemoryChainTable keeps an
// incrementally-maintained XOR-of-row-hashes digest, and TablesMachine mixes
// all three of its tables (plus logical time) into its fingerprint payload.

chaintable::WriteOp MakeWrite(chaintable::WriteKind kind, std::string row,
                              std::string value,
                              chaintable::Etag etag = chaintable::kAnyEtag) {
  chaintable::WriteOp op;
  op.kind = kind;
  op.row.key = {"p", std::move(row)};
  op.row.properties = {{"v", std::move(value)}};
  op.etag = etag;
  return op;
}

TEST(TableContentHash, EveryMutationKindMovesTheDigest) {
  chaintable::InMemoryChainTable table;
  const std::uint64_t empty = table.ContentHash();

  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kInsert, "r1", "a")).Ok());
  const std::uint64_t after_insert = table.ContentHash();
  EXPECT_NE(after_insert, empty);

  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kReplace, "r1", "b")).Ok());
  const std::uint64_t after_replace = table.ContentHash();
  EXPECT_NE(after_replace, after_insert);

  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kMerge, "r1", "c")).Ok());
  EXPECT_NE(table.ContentHash(), after_replace);

  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kInsertOrReplace, "r2", "d")).Ok());
  EXPECT_NE(table.ContentHash(), after_replace);
}

TEST(TableContentHash, DeleteRestoresTheExactPriorDigest) {
  // XOR removal is exact: deleting a row must return the digest to its value
  // before that row existed — no residue, no recompute.
  chaintable::InMemoryChainTable table;
  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kInsert, "r1", "a")).Ok());
  const std::uint64_t with_r1 = table.ContentHash();

  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kInsert, "r2", "b")).Ok());
  EXPECT_NE(table.ContentHash(), with_r1);

  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kDelete, "r2", "")).Ok());
  EXPECT_EQ(table.ContentHash(), with_r1);
}

TEST(TableContentHash, FailedWritesLeaveTheDigestUntouched) {
  chaintable::InMemoryChainTable table;
  ASSERT_TRUE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kInsert, "r1", "a")).Ok());
  const std::uint64_t before = table.ContentHash();
  // AlreadyExists, NotFound, ConditionNotMet: all rejected, digest constant.
  EXPECT_FALSE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kInsert, "r1", "x")).Ok());
  EXPECT_FALSE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kReplace, "missing", "x")).Ok());
  EXPECT_FALSE(table.ExecuteWrite(
      MakeWrite(chaintable::WriteKind::kDelete, "r1", "", /*etag=*/999)).Ok());
  EXPECT_EQ(table.ContentHash(), before);
}

TEST(TablesMachinePayload, InitialRowsReachTheFingerprint) {
  // Two TablesMachines whose STRUCTURAL views are identical (same name, same
  // id, same start state, empty queues) but whose seeded tables differ: only
  // the payload view may tell them apart.
  auto fingerprint = [](std::string seed_value, bool payloads) {
    systest::RoundRobinStrategy strategy(0);
    strategy.PrepareIteration(0, 10);
    systest::Runtime rt(strategy, StatefulOptions(10));
    std::vector<chaintable::TableRow> rows;
    rows.push_back({{"p", "r1"}, {{"v", std::move(seed_value)}}});
    const MachineId id = rt.CreateMachine<mtable::TablesMachine>("T", rows);
    return rt.FindMachine(id)->ComputeStateFingerprint(payloads);
  };
  EXPECT_EQ(fingerprint("a", false), fingerprint("b", false))
      << "structural view should not see table contents";
  EXPECT_NE(fingerprint("a", true), fingerprint("b", true))
      << "payload view must see the differential store-row digest";
}

// ---------------------------------------------------------------------------
// Validate() rules for the new knobs.

TEST(StatefulConfigValidate, RejectsPayloadsWithoutStateful) {
  TestConfig config;
  config.fingerprint_payloads = true;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.stateful = true;
  EXPECT_NO_THROW(config.Validate());
}

TEST(StatefulConfigValidate, RejectsStatefulWithZeroCap) {
  TestConfig config;
  config.stateful = true;
  config.max_visited = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.max_visited = 1;
  EXPECT_NO_THROW(config.Validate());
}

}  // namespace
