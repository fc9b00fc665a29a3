// Tiered visited-set tests (core/fingerprint.h TieredFingerprintSet): the
// load-bearing property is that the tiered set is OBSERVATIONALLY IDENTICAL
// to the flat FingerprintSet — same Insert() verdict for every fingerprint in
// any stream under the same total budget, no matter how often the hot level
// compacts — so engine prune decisions (and therefore traces and reports)
// cannot depend on the tiering. Pinned three ways: randomized stream
// equivalence against the flat reference at boundary hot sizes, engine-level
// bit-for-bit report/trail equality on samplerepl and vnext with compaction
// forced vs disabled, and spill round-trips that serve probes from
// mmap-ed disk runs. Plus the new TestConfig::Validate rules.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "core/systest.h"
#include "explore/sharded_fingerprint_set.h"
#include "samplerepl/harness.h"
#include "tests/flat_fingerprint_set.h"
#include "vnext/harness.h"

namespace {

using systest::Fingerprint;
using systest::FingerprintSet;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TieredFingerprintSet;
using systest::TieredOptions;
using systest::VisitedStats;

/// Duplicate-heavy fingerprint stream: values drawn from a bounded domain so
/// revisits are common, hashed up so they spread across shards/probe chains
/// like real fingerprints. Deterministic per seed.
std::vector<Fingerprint> MakeStream(std::uint64_t seed, std::size_t length,
                                    std::uint64_t domain) {
  std::mt19937_64 rng(seed);
  std::vector<Fingerprint> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint64_t raw = rng() % domain;
    stream.push_back(raw * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  }
  return stream;
}

void ExpectStreamEquivalence(const std::vector<Fingerprint>& stream,
                             std::size_t max_entries, std::size_t hot) {
  FingerprintSet flat(max_entries);
  TieredFingerprintSet tiered({max_entries, hot, std::string{}});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(flat.Insert(stream[i]), tiered.Insert(stream[i]))
        << "diverged at element " << i << " (hot=" << hot
        << ", budget=" << max_entries << ")";
  }
  EXPECT_EQ(flat.Size(), tiered.Size());
}

TEST(TieredEquivalence, MatchesFlatVerdictsAtBoundaryHotSizes) {
  const std::vector<Fingerprint> stream = MakeStream(11, 6000, 1500);
  // hot=1 compacts on every novel state; hot=2/3 exercise tiny runs plus
  // repeated run merges; hot just below/at/above the budget exercises the
  // freeze boundary interacting with compaction; huge hot never compacts.
  for (const std::size_t hot : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{127}, std::size_t{1499},
                                std::size_t{1500}, std::size_t{1501},
                                std::size_t{1u << 20}}) {
    for (const std::size_t budget :
         {std::size_t{1}, std::size_t{64}, std::size_t{1000},
          std::size_t{1500}, std::size_t{1u << 20}}) {
      ExpectStreamEquivalence(stream, budget, hot);
    }
  }
}

/// Structural invariants of the back level after `n` novel inserts at hot
/// size `hot`: O(log(n/hot)) runs and merge rewrites per key, and every
/// merged run outweighs all runs newer than it. Runs not merged yet (one
/// compaction each, exactly `hot` keys; a merged run holds at least two
/// compactions) trail the merged ones.
void ExpectRunShape(const TieredFingerprintSet& set, std::size_t n,
                    std::size_t hot) {
  const std::vector<std::size_t> sizes = set.RunSizes();
  const std::size_t compactions = n / hot;
  const auto levels = static_cast<std::size_t>(
      std::bit_width(compactions > 1 ? compactions - 1 : 0));  // ceil(log2)
  ASSERT_LE(sizes.size(), TieredFingerprintSet::kMaxRuns + levels)
      << "n=" << n << " hot=" << hot;
  ASSERT_LE(set.Stats().merged_entries, n * levels)
      << "n=" << n << " hot=" << hot;
  std::size_t newer = 0;
  std::size_t pending = 0;
  for (std::size_t i = sizes.size(); i-- > 0;) {
    if (sizes[i] == hot && newer == pending * hot) {
      ++pending;
    } else {
      ASSERT_GT(sizes[i], newer) << "run " << i << " of " << sizes.size()
                                 << ", n=" << n << " hot=" << hot;
    }
    newer += sizes[i];
  }
}

/// Adversarial fingerprint families, each with revisits mixed in: element i
/// of the family, then every third step an earlier element again.
std::vector<Fingerprint> AdversarialStream(
    const std::function<Fingerprint(std::uint64_t)>& family, std::size_t n) {
  std::vector<Fingerprint> stream;
  for (std::uint64_t i = 0; i < n; ++i) {
    stream.push_back(family(i));
    if (i % 3 == 0) stream.push_back(family(i / 2));
  }
  for (std::uint64_t i = 0; i < n; i += 7) stream.push_back(family(i));
  return stream;
}

/// Inverse of TieredFingerprintSet::KeyOf's odd multiplier mod 2^64, so a
/// test can pick the KEYS the set sees (Newton's iteration doubles the
/// number of correct low bits each step).
Fingerprint FingerprintOfKey(Fingerprint key) {
  const std::uint64_t m = TieredFingerprintSet::KeyOf(1);
  std::uint64_t inv = m;
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
  return key * inv;
}

TEST(TieredEquivalence, MatchesFlatOnAdversarialStreams) {
  ASSERT_EQ(TieredFingerprintSet::KeyOf(FingerprintOfKey(12345)), 12345u);
  const std::map<std::string, std::function<Fingerprint(std::uint64_t)>>
      families = {
          {"sequential", [](std::uint64_t i) { return i + 1; }},
          {"zero-and-sequential", [](std::uint64_t i) { return i; }},
          {"multiples-of-2^20", [](std::uint64_t i) { return i << 20; }},
          {"multiples-of-2^44", [](std::uint64_t i) { return i << 44; }},
          {"shared-top-16-bits",
           [](std::uint64_t i) { return (0xbeefull << 48) | i; }},
          // Keys the hot table indexes by: one prefix, so every entry lands
          // in one probe cluster; and the top of the key space, so that
          // cluster runs off the table's end and wraps to slot 0.
          {"keys-shared-prefix",
           [](std::uint64_t i) {
             return FingerprintOfKey((0x1234ull << 48) | (i * 977));
           }},
          {"keys-wrapping",
           [](std::uint64_t i) { return FingerprintOfKey(~i); }},
      };
  // The filter first resizes at 43 run keys and then at every doubling;
  // merges start at kMaxRuns compactions. These hot sizes put compactions,
  // resizes and merges on both sides of each other within 3000 keys.
  for (const auto& [name, family] : families) {
    for (const std::size_t hot : {std::size_t{1}, std::size_t{7},
                                  std::size_t{43}, std::size_t{64},
                                  std::size_t{100}, std::size_t{1000}}) {
      for (const std::size_t budget :
           {std::size_t{1500}, std::size_t{1u << 20}}) {
        const std::vector<Fingerprint> stream =
            AdversarialStream(family, 3000);
        FingerprintSet flat(budget);
        TieredFingerprintSet tiered({budget, hot, std::string{}});
        std::size_t novel = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
          const bool verdict = flat.Insert(stream[i]);
          ASSERT_EQ(verdict, tiered.Insert(stream[i]))
              << name << ": diverged at element " << i << " (hot=" << hot
              << ", budget=" << budget << ")";
          if (verdict && novel < budget) ExpectRunShape(tiered, ++novel, hot);
        }
        EXPECT_EQ(flat.Size(), tiered.Size()) << name;
        const VisitedStats stats = tiered.Stats();
        EXPECT_GT(stats.compactions, 0u) << name << " hot=" << hot;
        if (hot <= 100) {
          EXPECT_GT(stats.merges, 0u) << name << " hot=" << hot;
        }
        EXPECT_EQ(stats.run_probes,
                  stats.bloom_true_positives + stats.bloom_false_positives);
        for (const Fingerprint fp : stream) {
          ASSERT_EQ(tiered.Contains(fp), flat.Insert(fp) == false) << name;
        }
      }
    }
  }
}

TEST(TieredEquivalence, ShardedTieredMatchesFlatSingleThreaded) {
  const std::vector<Fingerprint> stream = MakeStream(12, 4000, 900);
  // Unbounded budget: the sharded set's global count enforcement is
  // check-then-insert (approximate under concurrency), so exact freeze-point
  // equivalence is only guaranteed single-threaded below the cap — which is
  // what this pins: shard routing + per-shard compaction change no verdicts.
  FingerprintSet flat(1u << 20);
  TieredOptions options;
  options.max_entries = 1u << 20;
  options.hot_entries = 256;  // 4 per shard: constant per-shard compaction
  systest::explore::ShardedFingerprintSet sharded(options);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(flat.Insert(stream[i]), sharded.Insert(stream[i]))
        << "diverged at element " << i;
  }
  EXPECT_EQ(flat.Size(), sharded.Size());
  const VisitedStats stats = sharded.Stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.hot_entries + stats.run_entries, sharded.Size());
}

TEST(TieredCompaction, CompactsMergesAndKeepsMembershipExact) {
  TieredFingerprintSet set({1u << 20, 64, std::string{}});
  // 64 * kMaxRuns novel states: the kMaxRuns-th compaction merges all runs,
  // each at most twice the keys newer than it, into one.
  const std::size_t n = 64 * TieredFingerprintSet::kMaxRuns;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1));
    ExpectRunShape(set, i + 1, 64);
  }
  EXPECT_EQ(set.Size(), n);
  const VisitedStats stats = set.Stats();
  EXPECT_EQ(stats.compactions, TieredFingerprintSet::kMaxRuns);
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.merged_entries, n);
  EXPECT_EQ(set.RunSizes(), std::vector<std::size_t>{n});
  EXPECT_EQ(stats.hot_entries + stats.run_entries, n);
  // Every state remains a hit, wherever compaction moved it.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FALSE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1)) << i;
    ASSERT_TRUE(set.Contains(i * 0x9e3779b97f4a7c15ull + 1)) << i;
  }
}

TEST(TieredCompaction, FreezesAtTotalBudgetLikeFlat) {
  TieredFingerprintSet set({10, 4, std::string{}});  // compacts twice en route
  for (Fingerprint fp = 1; fp <= 10; ++fp) ASSERT_TRUE(set.Insert(fp));
  EXPECT_EQ(set.Size(), 10u);
  // Frozen: known states hit, unseen states are reported novel uncounted.
  for (Fingerprint fp = 1; fp <= 10; ++fp) ASSERT_FALSE(set.Insert(fp));
  EXPECT_TRUE(set.Insert(999));
  EXPECT_TRUE(set.Insert(999));  // still not recorded
  EXPECT_EQ(set.Size(), 10u);
}

/// Per-iteration fingerprint trails + end report: everything about a stateful
/// run that pruning decisions could perturb.
struct StatefulRunOutcome {
  std::map<std::uint64_t, std::vector<Fingerprint>> trails;
  std::map<std::uint64_t, bool> pruned;
  systest::TestReport report;
};

StatefulRunOutcome RunStateful(const systest::Harness& harness,
                               TestConfig config, std::uint64_t hot) {
  config.max_visited_hot = hot;
  config.record_fingerprint_trail = true;
  config.stop_on_first_bug = false;
  StatefulRunOutcome outcome;
  TestingEngine engine(config, harness);
  engine.SetIterationCallback(
      [&outcome](std::uint64_t i, const systest::ExecutionResult& r) {
        outcome.trails[i] = r.fingerprint_trail;
        outcome.pruned[i] = r.pruned;
      });
  outcome.report = engine.Run();
  return outcome;
}

void ExpectEngineEquivalence(const systest::Harness& harness,
                             TestConfig config) {
  // Hot = total budget: never compacts, i.e. the historical flat behavior.
  // Hot = 32: compacts constantly. Identical seeds must give bit-identical
  // prune decisions, trails and aggregate stats either way.
  const StatefulRunOutcome flat = RunStateful(harness, config, config.max_visited);
  const StatefulRunOutcome tiered = RunStateful(harness, config, 32);
  EXPECT_GT(tiered.report.visited.compactions, 0u);
  EXPECT_EQ(flat.report.visited.compactions, 0u);
  EXPECT_EQ(flat.report.executions, tiered.report.executions);
  EXPECT_EQ(flat.report.pruned_executions, tiered.report.pruned_executions);
  EXPECT_EQ(flat.report.fingerprint_hits, tiered.report.fingerprint_hits);
  EXPECT_EQ(flat.report.fingerprint_misses, tiered.report.fingerprint_misses);
  EXPECT_EQ(flat.report.distinct_states, tiered.report.distinct_states);
  EXPECT_EQ(flat.report.total_steps, tiered.report.total_steps);
  ASSERT_EQ(flat.trails.size(), tiered.trails.size());
  for (const auto& [iteration, trail] : flat.trails) {
    EXPECT_EQ(tiered.pruned.at(iteration), flat.pruned.at(iteration))
        << "iteration " << iteration;
    EXPECT_EQ(tiered.trails.at(iteration), trail) << "iteration " << iteration;
  }
}

TEST(TieredEngineEquivalence, SampleReplRunsBitForBitIdentical) {
  samplerepl::HarnessOptions options;
  const systest::Harness harness = samplerepl::MakeHarness(options);
  TestConfig config;
  config.strategy = "random";
  config.seed = 7;
  config.iterations = 40;
  config.max_steps = 500;
  config.stateful = true;
  ExpectEngineEquivalence(harness, config);
}

TEST(TieredEngineEquivalence, VNextRunsBitForBitIdentical) {
  vnext::DriverOptions options;
  const systest::Harness harness = vnext::MakeExtentRepairHarness(options);
  TestConfig config = vnext::DefaultConfig("random");
  config.seed = 7;
  config.iterations = 25;
  config.max_steps = 400;
  config.stateful = true;
  config.fingerprint_payloads = true;
  ExpectEngineEquivalence(harness, config);
}

TEST(TieredSpill, RoundTripsRunsThroughDisk) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "systest-tiered-spill-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::size_t n = 64 * TieredFingerprintSet::kMaxRuns * 2;
  {
    TieredFingerprintSet set({1u << 20, 64, dir.string()});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1));
    }
    const VisitedStats stats = set.Stats();
    // 2 * kMaxRuns compactions: the first kMaxRuns merge into one run, the
    // next kMaxRuns - 1 merge with it, and the last stays on its own.
    EXPECT_EQ(set.RunSizes(), (std::vector<std::size_t>{n - 64, 64}));
    EXPECT_EQ(stats.merges, 2u);
    EXPECT_GT(stats.spilled_runs, 0u);
    EXPECT_EQ(stats.spilled_runs, stats.runs);  // every run went to disk
    EXPECT_GT(stats.spilled_bytes, 0u);
    // The spill files are live on disk while the set serves from them.
    EXPECT_FALSE(std::filesystem::is_empty(dir));
    // Every membership probe below the hot level is answered from mmap.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_FALSE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1)) << i;
    }
    EXPECT_EQ(set.Size(), n);
  }
  // Destruction unlinks the run files: the spill dir is left empty.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(TieredSpill, DirHoldsExactlyTheLiveSpilledRuns) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "systest-tiered-spill-count";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto files = [&dir] {
    return static_cast<std::uint64_t>(std::distance(
        std::filesystem::directory_iterator(dir),
        std::filesystem::directory_iterator{}));
  };
  {
    TieredFingerprintSet set({1u << 20, 32, dir.string()});
    for (std::size_t i = 0; i < 32 * 200; ++i) {
      ASSERT_TRUE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1));
      if (i % 32 == 31) {
        // Merged runs spill and merge inputs are unlinked, after every
        // compaction and merge.
        const VisitedStats stats = set.Stats();
        ASSERT_EQ(stats.spilled_runs, stats.runs) << i;
        ASSERT_EQ(files(), stats.spilled_runs) << i;
      }
    }
    EXPECT_GT(set.Stats().merges, 10u);
  }
  EXPECT_EQ(files(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(TieredSpill, FallsBackToMemoryWhenDirUnusable) {
  // Nonexistent directory: every spill fails, the set silently keeps runs in
  // memory and stays exact.
  TieredFingerprintSet set(
      {1u << 20, 16, "/nonexistent-systest-spill-dir/sub"});
  for (Fingerprint fp = 1; fp <= 200; ++fp) ASSERT_TRUE(set.Insert(fp));
  for (Fingerprint fp = 1; fp <= 200; ++fp) ASSERT_FALSE(set.Insert(fp));
  const VisitedStats stats = set.Stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.spilled_runs, 0u);
  EXPECT_EQ(stats.spilled_bytes, 0u);
}

TEST(TieredConfigValidate, RejectsStatefulWithZeroHotLevel) {
  TestConfig config;
  config.stateful = true;
  config.max_visited_hot = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.max_visited_hot = 1;
  EXPECT_NO_THROW(config.Validate());
}

TEST(TieredConfigValidate, RejectsSpillDirWithoutStateful) {
  TestConfig config;
  config.visited_spill_dir = "/tmp/spill";
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.stateful = true;
  EXPECT_NO_THROW(config.Validate());
}

TEST(TieredStats, CountsHotHitsAndBloomTraffic) {
  TieredFingerprintSet set({1u << 20, 64, std::string{}});
  for (Fingerprint fp = 1; fp <= 200; ++fp) set.Insert(fp);  // compacts 3x
  for (Fingerprint fp = 1; fp <= 200; ++fp) set.Insert(fp);  // all hits
  const VisitedStats stats = set.Stats();
  EXPECT_GT(stats.hot_hits, 0u);
  EXPECT_GT(stats.run_probes, 0u);
  EXPECT_GT(stats.bloom_true_positives, 0u);
  // Exactness invariant: every run probe resolves to a definite answer.
  EXPECT_EQ(stats.run_probes,
            stats.bloom_true_positives + stats.bloom_false_positives);
  // 200 states, all still tracked.
  EXPECT_EQ(stats.hot_entries + stats.run_entries, 200u);
}

}  // namespace
