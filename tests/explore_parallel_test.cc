// Tests for the exploration subsystem: budget sharding with disjoint seed
// ranges, portfolio assignment, per-strategy determinism (same seed ==
// identical trace), the parallel first-bug-wins engine whose winning trace
// replays on the calling thread, and trace serialize/deserialize/replay
// round-trips (in memory and through a file).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>

#include "api/strategy_registry.h"
#include "core/systest.h"
#include "corpus/trace_corpus.h"
#include "explore/parallel_engine.h"
#include "samplerepl/harness.h"

namespace {

using systest::BugKind;
using systest::Event;
using systest::Harness;
using systest::Machine;
using systest::MachineId;
using systest::Runtime;
using systest::StrategyRegistry;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using systest::Trace;
using systest::explore::ExplorationPlan;
using systest::explore::ParallelOptions;
using systest::explore::ParallelTestingEngine;
using systest::explore::ParallelTestReport;
using systest::explore::WorkerAssignment;

// ---------------------------------------------------------------------------
// Shared micro harness: two racers, a referee asserting arrival order.

struct ArrivalEvent final : Event {
  explicit ArrivalEvent(int who) : who(who) {}
  int who;
};

class Referee final : public Machine {
 public:
  Referee() {
    State("Run").On<ArrivalEvent>(&Referee::OnArrival);
    SetStart("Run");
  }

 private:
  void OnArrival(const ArrivalEvent& arrival) {
    if (first_ == 0) {
      first_ = arrival.who;
      Assert(first_ == 1, "racer 2 arrived first");
    }
  }
  int first_ = 0;
};

class Racer final : public Machine {
 public:
  Racer(MachineId referee, int who) : referee_(referee), who_(who) {
    State("Run").OnEntry(&Racer::OnStart);
    SetStart("Run");
  }

 private:
  void OnStart() { Send<ArrivalEvent>(referee_, who_); }
  MachineId referee_;
  int who_;
};

Harness RaceHarness() {
  return [](Runtime& rt) {
    auto referee = rt.CreateMachine<Referee>("Referee");
    rt.CreateMachine<Racer>("Racer1", referee, 1);
    rt.CreateMachine<Racer>("Racer2", referee, 2);
  };
}

TestConfig RaceConfig() {
  TestConfig config;
  config.iterations = 4'000;
  config.max_steps = 100;
  config.seed = 1;
  config.strategy = "random";
  return config;
}

// ---------------------------------------------------------------------------
// ExplorationPlan.

TEST(ExplorationPlan, ShardPartitionsBudgetIntoDisjointSeedRanges) {
  TestConfig config = RaceConfig();
  config.iterations = 10;  // uneven split across 4 workers
  config.seed = 100;
  const ExplorationPlan plan = ExplorationPlan::Shard(config, 4);
  ASSERT_EQ(plan.WorkerCount(), 4u);

  std::uint64_t total = 0;
  std::uint64_t expected_next = config.seed;
  for (const WorkerAssignment& a : plan.Workers()) {
    EXPECT_EQ(a.seed, expected_next) << "ranges must be contiguous/disjoint";
    EXPECT_EQ(a.strategy, config.strategy);
    expected_next = a.seed + a.iterations;
    total += a.iterations;
  }
  EXPECT_EQ(total, config.iterations);
  // 10 = 3 + 3 + 2 + 2: remainder spread over the first workers.
  EXPECT_EQ(plan.Workers()[0].iterations, 3u);
  EXPECT_EQ(plan.Workers()[3].iterations, 2u);
}

TEST(ExplorationPlan, ShardIsDeterministic) {
  const TestConfig config = RaceConfig();
  const ExplorationPlan a = ExplorationPlan::Shard(config, 8);
  const ExplorationPlan b = ExplorationPlan::Shard(config, 8);
  ASSERT_EQ(a.WorkerCount(), b.WorkerCount());
  for (std::size_t i = 0; i < a.WorkerCount(); ++i) {
    EXPECT_EQ(a.Workers()[i].seed, b.Workers()[i].seed);
    EXPECT_EQ(a.Workers()[i].iterations, b.Workers()[i].iterations);
  }
}

TEST(ExplorationPlan, PortfolioRacesComplementaryStrategies) {
  const ExplorationPlan plan = ExplorationPlan::Portfolio(RaceConfig(), 6);
  ASSERT_EQ(plan.WorkerCount(), 6u);
  // Worker 0 keeps the random baseline; the rotation must include PCT and
  // delay-bounded at more than one budget.
  EXPECT_EQ(plan.Workers()[0].strategy.str(), "random");
  std::set<std::pair<std::string, int>> combos;
  for (const WorkerAssignment& a : plan.Workers()) {
    combos.insert({a.strategy.str(), a.strategy_budget});
  }
  EXPECT_GE(combos.size(), 5u);
  EXPECT_TRUE(combos.contains({"pct", 2}));
  EXPECT_TRUE(combos.contains({"delay-bounded", 2}));
}

// ---------------------------------------------------------------------------
// Determinism: same seed => identical trace, for every strategy kind.

TEST(Determinism, SameSeedYieldsIdenticalTracePerStrategy) {
  const TestConfig config = RaceConfig();
  for (const char* name : {"random", "pct", "round-robin", "delay-bounded"}) {
    for (const std::uint64_t iteration : {0ULL, 1ULL, 17ULL}) {
      Trace traces[2];
      for (int run = 0; run < 2; ++run) {
        const auto strategy =
            StrategyRegistry::Instance().Create(name, /*seed=*/42, /*budget=*/2);
        strategy->PrepareIteration(iteration, config.max_steps);
        Runtime runtime(*strategy,
                        systest::MakeRuntimeOptions(config, false));
        try {
          systest::StepToCompletion(runtime, RaceHarness(), config.max_steps);
        } catch (const systest::BugFound&) {
          // The racers' bug may fire; the recorded prefix must still match.
        }
        traces[run] = runtime.GetTrace();
      }
      EXPECT_EQ(traces[0], traces[1])
          << "strategy " << name << " iteration " << iteration;
      EXPECT_FALSE(traces[0].Empty());
    }
  }
}

// ---------------------------------------------------------------------------
// ParallelTestingEngine.

TEST(ParallelEngine, FindsBugAndWinningTraceReplaysOnMainThread) {
  ParallelOptions options;
  options.threads = 4;
  ParallelTestingEngine engine(RaceConfig(), RaceHarness(), options);
  const ParallelTestReport report = engine.Run();

  ASSERT_TRUE(report.aggregate.bug_found);
  EXPECT_EQ(report.aggregate.bug_kind, BugKind::kSafety);
  ASSERT_GE(report.winning_worker, 0);
  EXPECT_TRUE(report.workers[static_cast<std::size_t>(report.winning_worker)]
                  .won);
  EXPECT_TRUE(report.replay_verified);

  // Independently replay the winning trace through the serial engine.
  TestingEngine serial(RaceConfig(), RaceHarness());
  const TestReport replayed = serial.Replay(report.aggregate.bug_trace);
  ASSERT_TRUE(replayed.bug_found);
  EXPECT_EQ(replayed.bug_kind, report.aggregate.bug_kind);
  EXPECT_EQ(replayed.bug_message, report.aggregate.bug_message);
}

TEST(ParallelEngine, SingleWorkerMatchesSerialEngine) {
  // One worker gets the whole budget at the original base seed, so the
  // parallel engine must find exactly the bug the serial engine finds.
  ParallelOptions options;
  options.threads = 1;
  ParallelTestingEngine parallel(RaceConfig(), RaceHarness(), options);
  const ParallelTestReport preport = parallel.Run();

  TestingEngine serial(RaceConfig(), RaceHarness());
  const TestReport sreport = serial.Run();

  ASSERT_TRUE(preport.aggregate.bug_found);
  ASSERT_TRUE(sreport.bug_found);
  EXPECT_EQ(preport.aggregate.bug_trace, sreport.bug_trace);
  EXPECT_EQ(preport.aggregate.bug_iteration, sreport.bug_iteration);
}

TEST(ParallelEngine, PortfolioModeFindsBug) {
  ParallelOptions options;
  options.threads = 6;
  options.portfolio = true;
  ParallelTestingEngine engine(RaceConfig(), RaceHarness(), options);
  const ParallelTestReport report = engine.Run();
  ASSERT_TRUE(report.aggregate.bug_found);
  EXPECT_TRUE(report.replay_verified);
  ASSERT_EQ(report.workers.size(), 6u);
  EXPECT_FALSE(report.BreakdownTable().empty());
}

TEST(ParallelEngine, CleanHarnessExhaustsWholeBudget) {
  TestConfig config = RaceConfig();
  config.iterations = 500;
  ParallelOptions options;
  options.threads = 3;
  // Only racer 1: no ordering bug to find.
  ParallelTestingEngine engine(
      config,
      [](Runtime& rt) {
        auto referee = rt.CreateMachine<Referee>("Referee");
        rt.CreateMachine<Racer>("Racer1", referee, 1);
      },
      options);
  const ParallelTestReport report = engine.Run();
  EXPECT_FALSE(report.aggregate.bug_found);
  EXPECT_EQ(report.winning_worker, -1);
  EXPECT_EQ(report.aggregate.executions, 500u);
  std::uint64_t per_worker = 0;
  for (const auto& w : report.workers) per_worker += w.executions;
  EXPECT_EQ(per_worker, 500u);
}

// Stateful exploration across workers: all of them hammer ONE shared
// sharded visited set (this binary runs under TSan in CI, so this is also
// the data-race guard for ShardedFingerprintSet).
TEST(ParallelEngine, StatefulWorkersShareOneVisitedSet) {
  TestConfig config = RaceConfig();
  config.iterations = 2'000;
  config.stateful = true;
  ParallelOptions options;
  options.threads = 4;
  options.verify_replay = false;
  // Only racer 1: clean harness, so every worker burns its whole slice
  // through the shared set.
  ParallelTestingEngine engine(
      config,
      [](Runtime& rt) {
        auto referee = rt.CreateMachine<Referee>("Referee");
        rt.CreateMachine<Racer>("Racer1", referee, 1);
      },
      options);
  const ParallelTestReport report = engine.Run();
  EXPECT_FALSE(report.aggregate.bug_found);
  EXPECT_TRUE(report.aggregate.stateful);
  EXPECT_GT(report.aggregate.distinct_states, 0u);
  // The two-machine race has a handful of reachable states; the union must
  // be tiny even though 2000 executions were fingerprinted.
  EXPECT_LT(report.aggregate.distinct_states, 64u);
  EXPECT_GT(report.aggregate.fingerprint_hits, 0u);
}

// Tiered sharded set under concurrency: a tiny per-shard hot level forces
// constant compaction (and run merges) INSIDE the shard locks while four
// samplerepl workers hammer the set. This binary runs under TSan in CI, so
// this is the data-race guard for the tiered back level — runs, blooms and
// stats must stay shard-private. samplerepl generates thousands of distinct
// states, so shards genuinely compact (the race harness above would not).
TEST(ParallelEngine, TieredShardsCompactUnderConcurrentWorkers) {
  TestConfig config;
  config.iterations = 2'000;
  config.max_steps = 300;
  config.seed = 31;
  config.strategy = "random";
  config.stateful = true;
  config.max_visited_hot = 256;  // 4 entries per shard before compaction
  ParallelOptions options;
  options.threads = 4;
  options.verify_replay = false;
  ParallelTestingEngine engine(
      config, samplerepl::MakeHarness(samplerepl::HarnessOptions{}), options);
  const ParallelTestReport report = engine.Run();
  EXPECT_FALSE(report.aggregate.bug_found);
  EXPECT_TRUE(report.aggregate.stateful);
  EXPECT_GT(report.aggregate.distinct_states, 256u);
  EXPECT_GT(report.aggregate.visited.compactions, 0u);
  // Size() (the global atomic) and the per-shard occupancy must agree.
  EXPECT_EQ(report.aggregate.visited.hot_entries +
                report.aggregate.visited.run_entries,
            report.aggregate.distinct_states);
  EXPECT_EQ(report.aggregate.visited_budget, config.max_visited);
}

// Execution recycling under the parallel engine: every worker seals its
// first samplerepl execution and reset-reuses ONE Runtime (and one
// thread-affine event arena) for its remaining 1000 iterations. This binary
// runs under TSan in CI, so this is the data-race guard for the recycling
// plane: the arena TLS arm/disarm protocol, per-worker sealed setup
// prototypes, and the recycled Runtimes' strict thread-affinity.
TEST(ParallelEngine, RecyclingWorkersStayIsolatedUnderTsan) {
  TestConfig config;
  config.iterations = 4'000;  // 4 workers x 1000 recycled executions
  config.max_steps = 300;
  config.seed = 31;
  config.strategy = "random";
  ParallelOptions options;
  options.threads = 4;
  options.verify_replay = false;
  ParallelTestingEngine engine(
      config, samplerepl::MakeHarness(samplerepl::HarnessOptions{}), options);
  const ParallelTestReport report = engine.Run();
  EXPECT_FALSE(report.aggregate.bug_found);
  EXPECT_EQ(report.aggregate.executions, 4'000u);
  std::uint64_t per_worker = 0;
  for (const auto& w : report.workers) per_worker += w.executions;
  EXPECT_EQ(per_worker, 4'000u);
}

// Parallel fault injection: the whole fleet explores crash/restart
// schedules on the samplerepl crash-recovery scenario, the winning fault
// trace is replayed on the calling thread, and per-worker fault counters
// merge into the aggregate. This binary runs under TSan in CI, so this is
// also the data-race guard for the fault plane's per-worker state.
TEST(ParallelEngine, FaultInjectionAcrossWorkersReplaysWinningTrace) {
  samplerepl::HarnessOptions hopts;
  hopts.crashable_nodes = true;
  hopts.liveness_monitor = false;
  TestConfig config = samplerepl::DefaultConfig();
  config.iterations = 20'000;
  config.max_crashes = 1;
  config.max_restarts = 1;
  ParallelOptions options;
  options.threads = 4;
  ParallelTestingEngine engine(config, samplerepl::MakeHarness(hopts),
                               options);
  for (const WorkerAssignment& a : engine.Plan().Workers()) {
    EXPECT_EQ(a.max_crashes, 1u);  // shards carry the fault budgets
    EXPECT_TRUE(a.FaultsEnabled());
  }
  const ParallelTestReport report = engine.Run();
  ASSERT_TRUE(report.aggregate.bug_found);
  EXPECT_EQ(report.aggregate.bug_kind, BugKind::kSafety);
  EXPECT_TRUE(report.replay_verified)
      << "fault schedule did not reproduce on the calling thread";
  EXPECT_TRUE(report.aggregate.faults);
  EXPECT_GT(report.aggregate.injected_faults.crashes, 0u);
  EXPECT_TRUE(report.aggregate.bug_trace.HasFaultDecisions());
  std::uint64_t merged = 0;
  for (const auto& w : report.workers) merged += w.injected_faults.crashes;
  EXPECT_EQ(report.aggregate.injected_faults.crashes, merged);
}

// Parallel partition injection: a bug only a partition-and-heal schedule can
// expose, hunted by the whole fleet, with the winning v3 trace replayed
// bit-for-bit on the calling thread. This binary runs under TSan in CI, so
// this is also the data-race guard for the partition plane's per-worker
// state.
//
// Micro system: a Loader paces Pings to a partitionable Store via self-sent
// Ticks, then sends a Probe; the Store replies with its count and the Loader
// asserts nothing was lost. Only a partition installed during the ping
// window AND healed before the probe can violate the assert, so the winning
// trace is guaranteed to carry partition decisions.
namespace partition_bug {

struct Ping final : Event {};
struct Tick final : Event {};
struct Probe final : Event {};
struct CountReply final : Event {
  explicit CountReply(int count) : count(count) {}
  int count;
};

class Store final : public Machine {
 public:
  explicit Store(MachineId loader) : loader_(loader) {
    State("Run").On<Ping>(&Store::OnPing).On<Probe>(&Store::OnProbe);
    SetStart("Run");
  }

 private:
  void OnPing(const Ping&) { ++count_; }
  void OnProbe(const Probe&) { Send<CountReply>(loader_, count_); }
  MachineId loader_;
  int count_ = 0;
};

class Loader final : public Machine {
 public:
  Loader(MachineId store, int pings) : store_(store), pings_(pings) {
    State("Run")
        .OnEntry(&Loader::Kick)
        .On<Tick>(&Loader::OnTick)
        .On<CountReply>(&Loader::OnReply);
    SetStart("Run");
  }

 private:
  void Kick() { Step(); }
  void OnTick(const Tick&) { Step(); }
  void Step() {
    if (sent_ < pings_) {
      Send<Ping>(store_);
      ++sent_;
      Send<Tick>(Id());
    } else {
      Send<Probe>(store_);
    }
  }
  void OnReply(const CountReply& reply) {
    Assert(reply.count == pings_, "partition lost a delivery");
  }
  MachineId store_;
  int pings_;
  int sent_ = 0;
};

Harness MakeHarness() {
  return [](Runtime& rt) {
    // The store is created first so the loader id exists for its reply; the
    // harness wires the cycle with a forward id (ids are sequential from 1).
    const MachineId store = rt.CreateMachine<Store>("Store", MachineId{2});
    rt.CreateMachine<Loader>("Loader", store, 4);
    rt.SetPartitionable(store);
  };
}

}  // namespace partition_bug

TEST(ParallelEngine, PartitionInjectionAcrossWorkersReplaysWinningTrace) {
  TestConfig config;
  config.iterations = 20'000;
  config.max_steps = 200;
  config.seed = 1;
  config.strategy = "random";
  config.max_partitions = 1;
  ParallelOptions options;
  options.threads = 4;
  ParallelTestingEngine engine(config, partition_bug::MakeHarness(), options);
  for (const WorkerAssignment& a : engine.Plan().Workers()) {
    EXPECT_EQ(a.max_partitions, 1u);  // shards carry the partition budget
    EXPECT_TRUE(a.FaultsEnabled());
  }
  const ParallelTestReport report = engine.Run();
  ASSERT_TRUE(report.aggregate.bug_found);
  EXPECT_EQ(report.aggregate.bug_kind, BugKind::kSafety);
  EXPECT_TRUE(report.replay_verified)
      << "partition schedule did not reproduce bit-for-bit on the calling "
         "thread";
  ASSERT_TRUE(report.aggregate.bug_trace.HasPartitionDecisions());
  EXPECT_EQ(report.aggregate.bug_trace.Serialize().rfind("systest-trace v3 ",
                                                         0),
            0u);
  EXPECT_GT(report.aggregate.injected_faults.partitions, 0u);
  std::uint64_t merged = 0;
  for (const auto& w : report.workers) merged += w.injected_faults.partitions;
  EXPECT_EQ(report.aggregate.injected_faults.partitions, merged);

  // Independent serial replay of the winning trace, NO fault configuration.
  TestConfig replay_config = config;
  replay_config.max_partitions = 0;
  TestingEngine serial(replay_config, partition_bug::MakeHarness());
  const TestReport replayed = serial.Replay(report.aggregate.bug_trace);
  ASSERT_TRUE(replayed.bug_found);
  EXPECT_EQ(replayed.bug_message, report.aggregate.bug_message);
}

// Shared trace corpus across workers: the whole fleet feeds ONE striped
// TraceCorpus while mutate workers concurrently sample it. This binary runs
// under TSan in CI, so this is also the data-race guard for the corpus's
// striped shards (concurrent Add vs Sample vs Stats).
TEST(ParallelEngine, WorkersFeedAndSampleOneSharedCorpus) {
  samplerepl::HarnessOptions hopts;
  hopts.crashable_nodes = true;
  hopts.liveness_monitor = false;
  TestConfig config = samplerepl::DefaultConfig();
  config.iterations = 800;
  config.max_crashes = 1;
  config.max_restarts = 1;
  config.stateful = true;
  config.strategy = "mutate";
  config.corpus_mutation = true;
  config.stop_on_first_bug = false;

  systest::corpus::TraceCorpus corpus;
  const systest::corpus::ScopedActiveCorpus active(&corpus);
  ParallelOptions options;
  options.threads = 4;
  options.verify_replay = false;
  options.corpus = &corpus;
  ParallelTestingEngine engine(config, samplerepl::MakeHarness(hopts),
                               options);
  const ParallelTestReport report = engine.Run();

  EXPECT_TRUE(report.aggregate.stateful);
  const systest::corpus::CorpusStats stats = corpus.Stats();
  EXPECT_GT(stats.added, 0u) << "no worker ever fed the shared corpus";
  EXPECT_GT(stats.sampled, 0u) << "no mutate worker ever sampled it";
  EXPECT_EQ(stats.entries, corpus.Size());
  // Workers rediscover each other's schedules; dedup must have fired and the
  // store can never exceed what was actually added.
  EXPECT_LE(stats.entries, stats.added + stats.loaded);
}

// Portfolio in a corpus-fed run converts every third worker to the mutate
// strategy while worker 0 keeps the random baseline.
TEST(ExplorationPlan, PortfolioConvertsEveryThirdWorkerToMutate) {
  TestConfig config = RaceConfig();
  config.stateful = true;
  config.corpus_mutation = true;
  const ExplorationPlan plan = ExplorationPlan::Portfolio(config, 9);
  EXPECT_EQ(plan.Workers()[0].strategy.str(), "random");
  int mutate_workers = 0;
  for (const WorkerAssignment& a : plan.Workers()) {
    if (a.worker % 3 == 2) {
      EXPECT_EQ(a.strategy.str(), "mutate") << "worker " << a.worker;
      ++mutate_workers;
    } else {
      EXPECT_NE(a.strategy.str(), "mutate") << "worker " << a.worker;
    }
  }
  EXPECT_EQ(mutate_workers, 3);
  // Without the flag, no worker mutates.
  const ExplorationPlan plain = ExplorationPlan::Portfolio(RaceConfig(), 9);
  for (const WorkerAssignment& a : plain.Workers()) {
    EXPECT_NE(a.strategy.str(), "mutate");
  }
}

// Portfolio with partitions budgeted dedicates every other faulted worker to
// partition-and-heal schedules exclusively.
TEST(ExplorationPlan, PortfolioDedicatesPartitionHeavyWorkers) {
  TestConfig config = RaceConfig();
  config.max_crashes = 2;
  config.drop_probability_den = 8;
  config.max_partitions = 1;
  const ExplorationPlan plan = ExplorationPlan::Portfolio(config, 8);
  for (const WorkerAssignment& a : plan.Workers()) {
    if (a.worker % 2 == 1) {
      EXPECT_FALSE(a.FaultsEnabled());  // fault-free half
    } else if (a.worker % 4 == 2) {
      // Partition-heavy: the whole fault budget drives partitions.
      EXPECT_EQ(a.max_crashes, 0u);
      EXPECT_EQ(a.drop_probability_den, 0u);
      EXPECT_EQ(a.max_partitions, 1u);
    } else {
      EXPECT_EQ(a.max_crashes, 2u);  // mixed-fault workers keep everything
      EXPECT_EQ(a.max_partitions, 1u);
    }
  }
}

// Portfolio with faults configured races fault-heavy workers against
// fault-free ones.
TEST(ExplorationPlan, PortfolioAlternatesFaultHeavyAndFaultFreeWorkers) {
  TestConfig config = RaceConfig();
  config.max_crashes = 2;
  config.drop_probability_den = 8;
  const ExplorationPlan plan = ExplorationPlan::Portfolio(config, 6);
  int with_faults = 0;
  int without = 0;
  for (const WorkerAssignment& a : plan.Workers()) {
    if (a.FaultsEnabled()) {
      EXPECT_EQ(a.worker % 2, 0);
      EXPECT_EQ(a.max_crashes, 2u);
      EXPECT_EQ(a.drop_probability_den, 8u);
      ++with_faults;
    } else {
      EXPECT_EQ(a.worker % 2, 1);
      ++without;
    }
  }
  EXPECT_EQ(with_faults, 3);
  EXPECT_EQ(without, 3);
  // Without faults configured, portfolio assigns none anywhere.
  const ExplorationPlan plain = ExplorationPlan::Portfolio(RaceConfig(), 6);
  for (const WorkerAssignment& a : plain.Workers()) {
    EXPECT_FALSE(a.FaultsEnabled());
  }
}

// ---------------------------------------------------------------------------
// Trace serialization.

TEST(TraceSerialization, SerializeDeserializeReplayRoundTrips) {
  TestingEngine engine(RaceConfig(), RaceHarness());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);

  const std::string text = report.bug_trace.Serialize();
  EXPECT_EQ(text.rfind("systest-trace v1 ", 0), 0u) << text;
  const Trace restored = Trace::Deserialize(text);
  EXPECT_EQ(restored, report.bug_trace);

  const TestReport replayed = engine.Replay(restored);
  ASSERT_TRUE(replayed.bug_found);
  EXPECT_EQ(replayed.bug_message, report.bug_message);
}

TEST(TraceSerialization, FileRoundTripReplays) {
  TestingEngine engine(RaceConfig(), RaceHarness());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);

  const std::string path =
      (std::filesystem::temp_directory_path() / "systest_roundtrip.trace")
          .string();
  report.bug_trace.SaveFile(path);
  const Trace loaded = Trace::LoadFile(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded, report.bug_trace);
  EXPECT_TRUE(engine.Replay(loaded).bug_found);
}

TEST(TraceSerialization, EmptyTraceRoundTrips) {
  const Trace empty;
  const Trace restored = Trace::Deserialize(empty.Serialize());
  EXPECT_TRUE(restored.Empty());
}

TEST(TraceSerialization, DeserializeRejectsMalformedInput) {
  EXPECT_THROW(Trace::Deserialize(""), std::invalid_argument);
  EXPECT_THROW(Trace::Deserialize("not-a-trace v1 0\n\n"),
               std::invalid_argument);
  EXPECT_THROW(Trace::Deserialize("systest-trace v9 0\n\n"),
               std::invalid_argument);
  EXPECT_THROW(Trace::Deserialize("systest-trace v1 3\ns1;s2\n"),
               std::invalid_argument);  // count mismatch
  EXPECT_THROW(Trace::LoadFile("/nonexistent/path/x.trace"),
               std::runtime_error);
}

}  // namespace
