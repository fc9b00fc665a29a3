// Coverage-guided exploration tests: TraceCorpus store semantics (dedup,
// energy weighting and decay, eviction at the cap, persistence round-trip),
// MutationStrategy seed-stable determinism and tolerant prefix replay, and
// the session-level acceptance loop — a corpus saved by one run is reloaded
// by the next (--corpus-dir), and a mutated execution replays bit-for-bit
// through a session carrying no fault flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/systest.h"
#include "corpus/mutation_strategy.h"
#include "corpus/trace_corpus.h"
#include "tests/flat_fingerprint_set.h"

namespace {

using systest::ExecutionResult;
using systest::TestConfig;
using systest::TestingEngine;
using systest::Trace;
using systest::api::SessionConfig;
using systest::api::SessionReport;
using systest::api::TestSession;
using systest::corpus::CorpusEntrySnapshot;
using systest::corpus::MutationStrategy;
using systest::corpus::TraceCorpus;

/// A distinct synthetic trace per `tag` (schedule + bool + int decisions).
Trace MakeTrace(std::uint64_t tag, std::size_t length = 6) {
  Trace trace;
  for (std::size_t i = 0; i < length; ++i) {
    trace.RecordSchedule(1 + (tag + i) % 5);
    trace.RecordBool((tag + i) % 2 == 0);
  }
  trace.RecordInt(tag % 7, 7);
  return trace;
}

/// Fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("corpus_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// TraceCorpus store semantics.

TEST(TraceCorpus, AddDeduplicatesByContent) {
  TraceCorpus corpus;
  EXPECT_TRUE(corpus.Add(MakeTrace(1), /*new_states=*/3, /*heat=*/0));
  EXPECT_TRUE(corpus.Add(MakeTrace(2), 1, 0));
  // Same decisions again — a different execution can rediscover the same
  // schedule; the corpus must keep exactly one copy.
  EXPECT_FALSE(corpus.Add(MakeTrace(1), 5, 0));
  EXPECT_EQ(corpus.Size(), 2u);
  const auto stats = corpus.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.added, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
}

TEST(TraceCorpus, EnergyRewardsDiscoveryAndDecaysWithSpawns) {
  // Base weight grows with discoveries, heat counts 4x, and the harmonic
  // decay in `spawned` always leaves at least weight 1.
  EXPECT_GT(TraceCorpus::Energy(10, 0, 0), TraceCorpus::Energy(1, 0, 0));
  EXPECT_GT(TraceCorpus::Energy(0, 5, 0), TraceCorpus::Energy(5, 0, 0));
  EXPECT_GT(TraceCorpus::Energy(10, 0, 0), TraceCorpus::Energy(10, 0, 50));
  EXPECT_GE(TraceCorpus::Energy(0, 0, 1'000'000), 1u);
}

TEST(TraceCorpus, SampleReturnsStoredTracesAndDecaysThem) {
  TraceCorpus corpus;
  const Trace stored = MakeTrace(42);
  ASSERT_TRUE(corpus.Add(stored, 2, 0));

  const auto sampled = corpus.Sample(/*draw_shard=*/7, /*draw_entry=*/13);
  ASSERT_TRUE(sampled.has_value());
  EXPECT_EQ(*sampled, stored);

  // Each sample bumps the entry's spawned count, shrinking its energy.
  const std::vector<CorpusEntrySnapshot> before = corpus.Snapshot();
  ASSERT_EQ(before.size(), 1u);
  for (int i = 0; i < 8; ++i) (void)corpus.Sample(i, i);
  const std::vector<CorpusEntrySnapshot> after = corpus.Snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_GT(after[0].spawned, before[0].spawned);
  EXPECT_LT(after[0].energy, before[0].energy);
  EXPECT_EQ(corpus.Stats().sampled, 9u);
}

TEST(TraceCorpus, EmptyCorpusSamplesNothing) {
  TraceCorpus corpus;
  EXPECT_FALSE(corpus.Sample(0, 0).has_value());
  EXPECT_EQ(corpus.Stats().sampled, 0u);
}

TEST(TraceCorpus, CapEvictsOnlyForStrictlyHigherEnergy) {
  // The ctor clamps the cap to the shard count (16).
  TraceCorpus corpus(/*max_entries=*/16);
  for (std::uint64_t tag = 0; tag < 64; ++tag) {
    (void)corpus.Add(MakeTrace(tag), /*new_states=*/1 + tag, 0);
  }
  EXPECT_LE(corpus.Size(), 16u);
  const auto stats = corpus.Stats();
  // Later traces carry monotonically higher energy, so at least some of the
  // full shards must have replaced their minimum-energy entry.
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_EQ(stats.entries, corpus.Size());
}

// ---------------------------------------------------------------------------
// Persistence: SaveDir / LoadDir round-trip.

TEST(TraceCorpusPersistence, RoundTripRestoresTracesAndEnergy) {
  const std::string dir = ScratchDir("roundtrip");
  TraceCorpus first;
  ASSERT_TRUE(first.Add(MakeTrace(1), 3, 1));
  ASSERT_TRUE(first.Add(MakeTrace(2), 1, 0));
  (void)first.Sample(0, 0);  // spawned counts must survive the round-trip
  ASSERT_EQ(first.SaveDir(dir), 2u);

  TraceCorpus second;
  ASSERT_EQ(second.LoadDir(dir), 2u);
  EXPECT_EQ(second.Size(), 2u);
  EXPECT_EQ(second.Stats().loaded, 2u);

  auto key = [](const CorpusEntrySnapshot& s) { return s.hash; };
  std::vector<CorpusEntrySnapshot> a = first.Snapshot();
  std::vector<CorpusEntrySnapshot> b = second.Snapshot();
  std::sort(a.begin(), a.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  std::sort(b.begin(), b.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hash, b[i].hash);
    EXPECT_EQ(a[i].new_states, b[i].new_states);
    EXPECT_EQ(a[i].heat, b[i].heat);
    EXPECT_EQ(a[i].spawned, b[i].spawned);
    EXPECT_EQ(a[i].energy, b[i].energy);
    EXPECT_EQ(a[i].decisions, b[i].decisions);
  }
}

TEST(TraceCorpusPersistence, MissingDirectoryLoadsColdNotThrows) {
  TraceCorpus corpus;
  EXPECT_EQ(corpus.LoadDir(ScratchDir("never_created")), 0u);
  EXPECT_EQ(corpus.Size(), 0u);
}

TEST(TraceCorpusPersistence, ReloadIntoNonEmptyCorpusSkipsDuplicates) {
  const std::string dir = ScratchDir("dups");
  TraceCorpus saver;
  ASSERT_TRUE(saver.Add(MakeTrace(1), 1, 0));
  ASSERT_TRUE(saver.Add(MakeTrace(2), 1, 0));
  (void)saver.SaveDir(dir);

  TraceCorpus loader;
  ASSERT_TRUE(loader.Add(MakeTrace(1), 1, 0));  // already holds one of them
  EXPECT_EQ(loader.LoadDir(dir), 1u);
  EXPECT_EQ(loader.Size(), 2u);
  EXPECT_EQ(loader.Stats().duplicates, 1u);
}

// ---------------------------------------------------------------------------
// MutationStrategy: determinism and prefix replay.

TEST(MutationStrategy, SameSeedSameCorpusSameExecutions) {
  // Two independently loaded corpora with identical content, two strategy
  // instances with the same seed: every mutated execution must be identical.
  const std::string dir = ScratchDir("determinism");
  TraceCorpus seed_corpus;
  ASSERT_TRUE(seed_corpus.Add(MakeTrace(1, 10), 4, 0));
  ASSERT_TRUE(seed_corpus.Add(MakeTrace(2, 8), 2, 1));
  ASSERT_EQ(seed_corpus.SaveDir(dir), 2u);

  auto run = [&dir]() {
    TraceCorpus corpus;
    corpus.LoadDir(dir);
    MutationStrategy strategy(/*seed=*/2016, &corpus);
    TestConfig config;
    config.iterations = 20;
    config.max_steps = 500;
    config.stateful = true;
    config.stop_on_first_bug = false;
    const systest::api::Scenario& scenario =
        systest::api::ScenarioRegistry::Instance().Get("samplerepl-fixed");
    const systest::Harness harness = scenario.make(systest::api::ParamMap{});
    systest::FingerprintSet visited(1u << 16);
    std::vector<std::string> traces;
    systest::ExecutionRunner runner(config, harness, strategy, nullptr);
    for (std::uint64_t i = 0; i < config.iterations; ++i) {
      const ExecutionResult r = runner.RunOne(i, &visited);
      traces.push_back(r.trace.ToString());
    }
    return traces;
  };
  const std::vector<std::string> first = run();
  const std::vector<std::string> second = run();
  ASSERT_EQ(first.size(), 20u);
  EXPECT_EQ(first, second);
}

TEST(MutationStrategy, NullCorpusDegradesToPureRandom) {
  MutationStrategy strategy(7, nullptr);
  strategy.PrepareIteration(0, 100);
  EXPECT_EQ(strategy.CurrentMutator(), MutationStrategy::Mutator::kNone);
  EXPECT_FALSE(strategy.PrefixActive());
  EXPECT_EQ(strategy.PruneHoldoffSteps(), 0u);
  const systest::MachineId picks[] = {1, 2, 3};
  // Choice points must all answer without a corpus.
  (void)strategy.Next(picks, 0);
  (void)strategy.NextBool();
  EXPECT_LT(strategy.NextInt(5), 5u);
}

TEST(MutationStrategy, PrefixComesFromTheSampledTrace) {
  TraceCorpus corpus;
  ASSERT_TRUE(corpus.Add(MakeTrace(3, 12), 6, 0));
  MutationStrategy strategy(11, &corpus);
  bool saw_prefix = false;
  for (std::uint64_t i = 0; i < 32 && !saw_prefix; ++i) {
    strategy.PrepareIteration(i, 200);
    if (strategy.PrefixActive()) {
      saw_prefix = true;
      EXPECT_NE(strategy.CurrentMutator(), MutationStrategy::Mutator::kNone);
      EXPECT_GT(strategy.PrefixSize(), 0u);
    }
  }
  EXPECT_TRUE(saw_prefix) << "no iteration ever replayed a corpus prefix";
  EXPECT_GT(corpus.Stats().sampled, 0u);
}

// ---------------------------------------------------------------------------
// Acceptance: corpus persists across sessions, and a mutated execution
// replays bit-for-bit through a session with no fault flags.

TEST(CorpusSession, SavedCorpusIsReloadedByTheNextRun) {
  const std::string dir = ScratchDir("session_reload");

  SessionConfig first;
  first.scenario = "samplerepl-fixed";
  first.strategy = "mutate";
  first.corpus_dir = dir;
  first.iterations = 200;
  first.seed = 2016;
  const SessionReport seeded = TestSession(first).Run();
  EXPECT_TRUE(seeded.corpus_on);
  EXPECT_TRUE(seeded.report.stateful) << "corpus must force stateful";
  ASSERT_GT(seeded.corpus.added, 0u) << "no interesting traces were fed";
  ASSERT_TRUE(std::filesystem::exists(std::filesystem::path(dir) /
                                      "corpus.index"));

  SessionConfig second;
  second.scenario = "samplerepl-fixed";
  second.strategy = "mutate";
  second.corpus_dir = dir;
  second.iterations = 50;
  second.seed = 99;  // different seed: the corpus is the shared memory
  const SessionReport resumed = TestSession(second).Run();
  EXPECT_TRUE(resumed.corpus_on);
  EXPECT_GT(resumed.corpus.loaded, 0u) << "second run did not reload";
  EXPECT_GT(resumed.corpus.sampled, 0u) << "mutate never sampled the corpus";
}

TEST(CorpusSession, MutatedExecutionReplaysBitForBitWithoutFaultFlags) {
  const std::string dir = ScratchDir("session_replay");

  // Seed the corpus with a fault-heavy exploration (crash/restart armed).
  SessionConfig seed_run;
  seed_run.scenario = "samplerepl-node-crash";
  seed_run.strategy = "mutate";
  seed_run.corpus_dir = dir;
  seed_run.iterations = 150;
  seed_run.seed = 2016;
  seed_run.stop_on_first_bug = false;
  (void)TestSession(seed_run).Run();

  // Second run mutates the reloaded corpus; capture every completed (not
  // pruned, not buggy) execution's trace — those ran to quiescence, so their
  // decision list is complete and must replay exactly.
  class Collector final : public systest::api::RunObserver {
   public:
    [[nodiscard]] bool WantsIterations() const override { return true; }
    void OnIteration(const systest::api::IterationInfo& info) override {
      if (!info.result.pruned && !info.result.bug_found &&
          !info.result.hit_step_bound) {
        traces.push_back(info.result.trace);
      }
    }
    std::vector<Trace> traces;
  };
  Collector collector;
  SessionConfig mutate_run;
  mutate_run.scenario = "samplerepl-node-crash";
  mutate_run.strategy = "mutate";
  mutate_run.corpus_dir = dir;
  mutate_run.iterations = 60;
  mutate_run.seed = 4096;
  mutate_run.stop_on_first_bug = false;
  TestSession session(mutate_run);
  session.AddObserver(&collector);
  const SessionReport mutated = session.Run();
  EXPECT_GT(mutated.corpus.loaded, 0u);
  ASSERT_FALSE(collector.traces.empty()) << "no completed executions";

  // Replay the first few on the main thread with NO fault configuration:
  // the trace alone must reproduce the identical decision sequence.
  std::size_t checked = 0;
  for (const Trace& trace : collector.traces) {
    if (checked == 3) break;
    ++checked;
    SessionConfig replay;
    replay.scenario = "samplerepl-node-crash";
    replay.replay_trace = trace;
    const SessionReport replayed = TestSession(replay).Run();
    EXPECT_FALSE(replayed.report.bug_found)
        << "clean execution diverged on replay: "
        << replayed.report.bug_message;
    EXPECT_EQ(replayed.report.bug_trace, trace)
        << "replay was not bit-for-bit";
  }
  EXPECT_GT(checked, 0u);
}

TEST(CorpusSession, ResolveConfigArmsCorpusForMutateAndDirOnly) {
  SessionConfig by_strategy;
  by_strategy.scenario = "samplerepl-fixed";
  by_strategy.strategy = "mutate";
  EXPECT_TRUE(TestSession(by_strategy).ResolveConfig().corpus_mutation);
  EXPECT_TRUE(TestSession(by_strategy).ResolveConfig().stateful);

  SessionConfig by_dir;
  by_dir.scenario = "samplerepl-fixed";
  by_dir.corpus_dir = ScratchDir("arm_by_dir");
  EXPECT_TRUE(TestSession(by_dir).ResolveConfig().corpus_mutation);

  SessionConfig off;
  off.scenario = "samplerepl-fixed";
  EXPECT_FALSE(TestSession(off).ResolveConfig().corpus_mutation);

  // Replay mode never arms, even with a corpus_dir configured.
  SessionConfig replaying;
  replaying.scenario = "samplerepl-fixed";
  replaying.corpus_dir = ScratchDir("arm_replay");
  replaying.replay_trace = MakeTrace(1);
  EXPECT_FALSE(TestSession(replaying).ResolveConfig().corpus_mutation);
}

}  // namespace
