#include "core/strategy.h"

#include <algorithm>

#include "core/bug.h"

namespace systest {

// ---------------------------------------------------------------------------
// SchedulingStrategy fault-choice defaults

void SchedulingStrategy::SampleFaultPlacement(std::uint64_t max_steps) {
  if (placement_points_ <= 0) return;
  placement_armed_ = true;
  fault_points_.clear();
  fault_points_.reserve(static_cast<std::size_t>(placement_points_));
  for (int i = 0; i < placement_points_; ++i) {
    fault_points_.push_back(NextInt(std::max<std::uint64_t>(1, max_steps)));
  }
  std::sort(fault_points_.begin(), fault_points_.end());
}

FaultDecision SchedulingStrategy::NextFault(const FaultContext& ctx) {
  // Destructive faults (crash, partition) come from one of two placement
  // models; recovery actions (restart, heal) always roll per-step odds.
  if (placement_armed_) {
    // Pre-sampled placement: a destructive fault fires only when a sampled
    // point is due. The point is consumed only once a candidate exists —
    // a point landing before any machine opted in (or while every candidate
    // is crashed) waits for the first eligible step instead of evaporating.
    if (!fault_points_.empty() && ctx.step >= fault_points_.front()) {
      const bool can_crash = !ctx.crashable.empty();
      const bool can_partition = !ctx.partitionable.empty();
      if (can_crash || can_partition) {
        fault_points_.erase(fault_points_.begin());
        const bool crash =
            can_crash && (!can_partition || NextInt(2) == 0);
        if (crash) {
          return {FaultDecision::Kind::kCrash,
                  ctx.crashable[NextInt(ctx.crashable.size())]};
        }
        return {FaultDecision::Kind::kPartition,
                ctx.partitionable[NextInt(ctx.partitionable.size())]};
      }
    }
  } else {
    // Geometric placement from the strategy's own choice source: at each
    // eligible step the fault fires with probability 1/odds_den, then a
    // second draw picks the victim uniformly. Consuming NextInt keeps the
    // decision inside the strategy's deterministic seed-derived stream, so
    // the same seed places the same faults. Empty spans roll nothing, so a
    // config without partitions draws exactly what it drew before they
    // existed.
    if (!ctx.crashable.empty() && NextInt(ctx.odds_den) == 0) {
      return {FaultDecision::Kind::kCrash,
              ctx.crashable[NextInt(ctx.crashable.size())]};
    }
    if (!ctx.partitionable.empty() && NextInt(ctx.odds_den) == 0) {
      return {FaultDecision::Kind::kPartition,
              ctx.partitionable[NextInt(ctx.partitionable.size())]};
    }
  }
  if (!ctx.restartable.empty() && NextInt(ctx.odds_den) == 0) {
    return {FaultDecision::Kind::kRestart,
            ctx.restartable[NextInt(ctx.restartable.size())]};
  }
  if (!ctx.healable.empty() && NextInt(ctx.heal_den) == 0) {
    return {FaultDecision::Kind::kHeal,
            ctx.healable[NextInt(ctx.healable.size())]};
  }
  return {};
}

DeliveryFault SchedulingStrategy::NextDeliveryFault(
    const DeliveryFaultContext& ctx) {
  if (ctx.drop_allowed && NextInt(ctx.drop_den) == 0) {
    return DeliveryFault::kDrop;
  }
  if (ctx.duplicate_allowed && NextInt(ctx.dup_den) == 0) {
    return DeliveryFault::kDuplicate;
  }
  return DeliveryFault::kNone;
}

// ---------------------------------------------------------------------------
// RandomStrategy

void RandomStrategy::PrepareIteration(std::uint64_t iteration,
                                      std::uint64_t max_steps) {
  std::uint64_t state = base_seed_ + iteration;
  rng_.Reseed(SplitMix64(state));
  SampleFaultPlacement(max_steps);
}

// ---------------------------------------------------------------------------
// PctStrategy

void PctStrategy::PrepareIteration(std::uint64_t iteration,
                                   std::uint64_t max_steps) {
  std::uint64_t state = base_seed_ + iteration;
  rng_.Reseed(SplitMix64(state));
  priorities_.clear();
  low_water_ = 1'000'000'000ULL;
  change_points_.clear();
  change_points_.reserve(static_cast<std::size_t>(depth_));
  for (int i = 0; i < depth_; ++i) {
    change_points_.push_back(rng_.NextBelow(std::max<std::uint64_t>(1, max_steps)));
  }
  std::sort(change_points_.begin(), change_points_.end());
  SampleFaultPlacement(max_steps);
}

std::uint64_t PctStrategy::PriorityOf(MachineId id) {
  if (priorities_.size() <= id.value) {
    priorities_.resize(id.value + 1, 0);
  }
  if (priorities_[id.value] == 0) {
    // Random priority strictly above the demotion low-water mark.
    priorities_[id.value] = low_water_ + 1 + rng_.NextBelow(1'000'000'000ULL);
  }
  return priorities_[id.value];
}

MachineId PctStrategy::Next(std::span<const MachineId> enabled,
                            std::uint64_t step) {
  while (true) {
    MachineId best = enabled.front();
    std::uint64_t best_priority = PriorityOf(best);
    for (const MachineId id : enabled.subspan(1)) {
      const std::uint64_t p = PriorityOf(id);
      if (p > best_priority) {
        best = id;
        best_priority = p;
      }
    }
    // At each change point, demote the machine that would run now below
    // every other machine, forcing a different interleaving prefix. Only
    // points due at this step are consumed: re-selection happens at the SAME
    // step, so a change point placed at step+1 still fires on the next call.
    // (Duplicate sampled points at this step each demote the re-selected
    // leader in turn.)
    if (!change_points_.empty() && step >= change_points_.front()) {
      change_points_.erase(change_points_.begin());
      priorities_[best.value] = --low_water_;
      continue;
    }
    return best;
  }
}

// ---------------------------------------------------------------------------
// RoundRobinStrategy

void RoundRobinStrategy::PrepareIteration(std::uint64_t iteration,
                                          std::uint64_t /*max_steps*/) {
  cursor_ = base_ + iteration;  // rotate the starting machine across iterations
  counter_ = 0;
}

MachineId RoundRobinStrategy::Next(std::span<const MachineId> enabled,
                                   std::uint64_t /*step*/) {
  return enabled[cursor_++ % enabled.size()];
}

// ---------------------------------------------------------------------------
// DelayBoundedStrategy

void DelayBoundedStrategy::PrepareIteration(std::uint64_t iteration,
                                            std::uint64_t max_steps) {
  std::uint64_t state = base_seed_ + iteration;
  rng_.Reseed(SplitMix64(state));
  cursor_ = 0;
  delay_points_.clear();
  delay_points_.reserve(static_cast<std::size_t>(delay_budget_));
  for (int i = 0; i < delay_budget_; ++i) {
    delay_points_.push_back(rng_.NextBelow(std::max<std::uint64_t>(1, max_steps)));
  }
  std::sort(delay_points_.begin(), delay_points_.end());
  SampleFaultPlacement(max_steps);
}

MachineId DelayBoundedStrategy::Next(std::span<const MachineId> enabled,
                                     std::uint64_t step) {
  // Drain ALL delay points due at or before this step: with a small
  // max_steps the sampled points can collide, and consuming only one per
  // call would silently burn the rest of the budget on the same step.
  while (!delay_points_.empty() && step >= delay_points_.front()) {
    delay_points_.erase(delay_points_.begin());
    ++cursor_;  // consume one delay: skip the machine that would run
  }
  return enabled[cursor_ % enabled.size()];
}

// ---------------------------------------------------------------------------
// ReplayStrategy

void ReplayStrategy::PrepareIteration(std::uint64_t /*iteration*/,
                                      std::uint64_t /*max_steps*/) {
  cursor_ = 0;
}

const Decision& ReplayStrategy::Take(Decision::Kind expected) {
  if (cursor_ >= trace_.Size()) {
    throw BugFound(BugKind::kReplayDivergence,
                   "replay: trace exhausted before execution finished");
  }
  const Decision& d = trace_.Decisions()[cursor_++];
  if (d.kind != expected) {
    throw BugFound(BugKind::kReplayDivergence,
                   "replay: decision kind mismatch at index " +
                       std::to_string(cursor_ - 1));
  }
  return d;
}

MachineId ReplayStrategy::Next(std::span<const MachineId> enabled,
                               std::uint64_t /*step*/) {
  const Decision& d = Take(Decision::Kind::kSchedule);
  const MachineId id{d.value};
  if (!std::binary_search(enabled.begin(), enabled.end(), id)) {
    throw BugFound(BugKind::kReplayDivergence,
                   "replay: machine " + std::to_string(d.value) +
                       " not enabled at replayed scheduling point");
  }
  return id;
}

bool ReplayStrategy::NextBool() {
  return Take(Decision::Kind::kBool).value != 0;
}

std::uint64_t ReplayStrategy::NextInt(std::uint64_t bound) {
  const Decision& d = Take(Decision::Kind::kInt);
  if (d.bound != bound || d.value >= bound) {
    throw BugFound(BugKind::kReplayDivergence,
                   "replay: integer choice bound mismatch");
  }
  return d.value;
}

FaultDecision ReplayStrategy::NextFault(const FaultContext& ctx) {
  // Peek, don't take: a fault decision was only recorded when a fault
  // actually fired, so at most step boundaries the next decision is the
  // upcoming schedule/bool/int. The recorded step disambiguates a fault
  // recorded for a LATER boundary from one due now.
  if (cursor_ < trace_.Size()) {
    const Decision& d = trace_.Decisions()[cursor_];
    if (d.kind == Decision::Kind::kCrash && d.bound == ctx.step) {
      ++cursor_;
      return {FaultDecision::Kind::kCrash, MachineId{d.value}};
    }
    if (d.kind == Decision::Kind::kRestart && d.bound == ctx.step) {
      ++cursor_;
      return {FaultDecision::Kind::kRestart, MachineId{d.value}};
    }
    if (d.kind == Decision::Kind::kPartition && d.bound == ctx.step) {
      ++cursor_;
      return {FaultDecision::Kind::kPartition, MachineId{d.value}};
    }
    if (d.kind == Decision::Kind::kHeal && d.bound == ctx.step) {
      ++cursor_;
      return {FaultDecision::Kind::kHeal, MachineId{d.value}};
    }
  }
  return {};
}

DeliveryFault ReplayStrategy::NextDeliveryFault(
    const DeliveryFaultContext& ctx) {
  if (cursor_ < trace_.Size()) {
    const Decision& d = trace_.Decisions()[cursor_];
    if (d.kind == Decision::Kind::kDrop && d.value == ctx.ordinal) {
      ++cursor_;
      return DeliveryFault::kDrop;
    }
    if (d.kind == Decision::Kind::kDuplicate && d.value == ctx.ordinal) {
      ++cursor_;
      return DeliveryFault::kDuplicate;
    }
  }
  return DeliveryFault::kNone;
}

}  // namespace systest
