// Regression tests for the scheduling-strategy fixes: PCT must consume
// change points at the step they were placed (re-selecting after a demotion
// without advancing the step), and delay-bounded scheduling must drain every
// delay point due at a step instead of silently burning budget on
// duplicates.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "api/strategy_registry.h"
#include "core/strategy.h"

namespace {

using systest::DelayBoundedStrategy;
using systest::MachineId;
using systest::PctStrategy;
using systest::RoundRobinStrategy;

TEST(PctStrategy, DemotionsFireAtTheirOwnSteps) {
  // Find a seed whose two change points land on ADJACENT steps k, k+1 with
  // k >= 1 (placement is a pure function of the seed, so this scan is
  // deterministic). The old implementation re-selected with step+1 after the
  // demotion at k, which prematurely consumed the k+1 point: both demotions
  // fired at step k and step k+1 saw no change.
  constexpr std::uint64_t kMaxSteps = 50;
  std::optional<std::uint64_t> found_seed;
  std::uint64_t k = 0;
  for (std::uint64_t seed = 0; seed < 10'000 && !found_seed; ++seed) {
    PctStrategy probe(seed, 2);
    probe.PrepareIteration(0, kMaxSteps);
    const auto points = probe.ChangePoints();
    if (points.size() == 2 && points[0] >= 1 && points[1] == points[0] + 1) {
      found_seed = seed;
      k = points[0];
    }
  }
  ASSERT_TRUE(found_seed.has_value())
      << "no seed with adjacent change points in scan range";

  PctStrategy strategy(*found_seed, 2);
  strategy.PrepareIteration(0, kMaxSteps);
  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3}};

  // Up to the first change point the same leader runs every step.
  const MachineId leader = strategy.Next(ids, 0);
  for (std::uint64_t step = 1; step < k; ++step) {
    ASSERT_EQ(strategy.Next(ids, step).value, leader.value);
  }
  // Step k: exactly ONE demotion — a new leader, not two demotions at once.
  const MachineId second = strategy.Next(ids, k);
  EXPECT_NE(second.value, leader.value);
  // Step k+1: the second change point fires HERE, demoting the new leader.
  const MachineId third = strategy.Next(ids, k + 1);
  EXPECT_NE(third.value, second.value);
  EXPECT_NE(third.value, leader.value);
  // Budget exhausted: the final leader is stable from now on.
  for (std::uint64_t step = k + 2; step < kMaxSteps; ++step) {
    EXPECT_EQ(strategy.Next(ids, step).value, third.value);
  }
}

TEST(PctStrategy, DuplicateChangePointsEachDemote) {
  // max_steps = 1 forces every sampled change point onto step 0; each must
  // demote the re-selected leader in turn, so with budget 2 and 3 machines
  // the step-0 pick is the machine with the LOWEST original priority.
  PctStrategy strategy(7, 2);
  strategy.PrepareIteration(0, 1);
  ASSERT_EQ(strategy.ChangePoints().size(), 2u);
  ASSERT_EQ(strategy.ChangePoints()[0], 0u);
  ASSERT_EQ(strategy.ChangePoints()[1], 0u);

  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3}};
  const MachineId first = strategy.Next(ids, 0);
  // Both points consumed at step 0; later steps keep the same leader.
  EXPECT_TRUE(strategy.ChangePoints().empty());
  EXPECT_EQ(strategy.Next(ids, 1).value, first.value);
}

TEST(DelayBoundedStrategy, DrainsAllDelayPointsDueAtAStep) {
  // max_steps = 1 forces all sampled delay points to 0 (duplicates). With a
  // budget of 3 every one of them must be consumed at step 0, advancing the
  // cursor by 3 — the old code consumed one per call and stranded the rest.
  DelayBoundedStrategy strategy(11, 3);
  strategy.PrepareIteration(0, 1);
  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3},
                           MachineId{4}};
  EXPECT_EQ(strategy.Next(ids, 0).value, ids[3].value);
  // Budget exhausted: the cursor no longer moves.
  EXPECT_EQ(strategy.Next(ids, 1).value, ids[3].value);
  EXPECT_EQ(strategy.Next(ids, 2).value, ids[3].value);
}

TEST(RoundRobinStrategy, SeedOffsetsRotationForShardedWorkers) {
  // Sharded parallel workers hold disjoint seed ranges; round-robin must
  // honour them so worker w's iteration i covers the rotation position the
  // serial engine would reach at global iteration (seed_offset + i) —
  // otherwise every worker replays worker 0's schedules.
  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3}};

  RoundRobinStrategy w0(0), w1(1);
  w0.PrepareIteration(0, 100);
  w1.PrepareIteration(0, 100);
  EXPECT_NE(w0.Next(ids, 0).value, w1.Next(ids, 0).value)
      << "workers with different seeds must start at different rotations";

  // Worker 1's iteration 0 equals the serial engine's iteration 1.
  RoundRobinStrategy serial(0);
  serial.PrepareIteration(1, 100);
  RoundRobinStrategy sharded(1);
  sharded.PrepareIteration(0, 100);
  for (int step = 0; step < 9; ++step) {
    EXPECT_EQ(sharded.Next(ids, step).value, serial.Next(ids, step).value);
  }

  // The registry must forward the seed.
  const auto made =
      systest::StrategyRegistry::Instance().Create("round-robin", 2, 0);
  made->PrepareIteration(0, 100);
  RoundRobinStrategy direct(2);
  direct.PrepareIteration(0, 100);
  EXPECT_EQ(made->Next(ids, 0).value, direct.Next(ids, 0).value);
}

TEST(DelayBoundedStrategy, PastDuePointsAreNotLost) {
  // Points sampled at earlier steps than the first scheduling call must all
  // be consumed on that call, not trickled out one per step.
  DelayBoundedStrategy strategy(3, 2);
  strategy.PrepareIteration(0, 4);
  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3},
                           MachineId{4}};
  // Jump straight to the last step: every sampled point (< 4) is now due.
  const MachineId pick = strategy.Next(ids, 3);
  EXPECT_EQ(pick.value, ids[2].value);  // cursor advanced by the full budget
  EXPECT_EQ(strategy.Next(ids, 3).value, pick.value);
}

}  // namespace
