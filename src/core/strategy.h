// SysTest systematic-testing framework.
//
// Scheduling strategies. The paper evaluates two (§6.2): a random scheduler,
// and a randomized priority-based scheduler (after Burckhardt et al.'s PCT,
// their citation [4]) configured with a budget of priority change points per
// execution. We implement both, plus round-robin (deterministic baseline),
// delay-bounded scheduling (Emmi et al., the paper's citation [11]) for
// ablation benches, and a replay strategy that re-executes a recorded trace.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/trace.h"

namespace systest {

/// Strong identifier for a machine instance. Ids are assigned sequentially
/// from 1 in creation order within an execution, which makes them stable
/// across iterations and replayable.
struct MachineId {
  std::uint64_t value{0};

  [[nodiscard]] bool Valid() const noexcept { return value != 0; }
  friend auto operator<=>(const MachineId&, const MachineId&) = default;
};

/// Concrete-type tag carried by the strategy base class so Runtime::Step can
/// special-case the dominant built-ins: the tagged final classes are called
/// through a static_cast instead of the vtable (the registry is the single
/// construction site for engines, but the tag is stamped in the constructors
/// so directly built strategies — benches, golden tests — devirtualize too).
/// kOther keeps the plain virtual path; a wrong tag would be a correctness
/// bug, which is why only the built-ins' own constructors set it.
enum class BuiltinStrategy : std::uint8_t { kOther = 0, kRandom, kPct };

/// Outcome of the per-step fault choice point (the fault plane's
/// step-boundary fault action): crash/restart a machine, or install/heal a
/// network partition isolating one machine from the rest.
struct FaultDecision {
  enum class Kind : std::uint8_t { kNone, kCrash, kRestart, kPartition, kHeal };
  Kind kind = Kind::kNone;
  MachineId machine{};
};

/// Context for SchedulingStrategy::NextFault. The runtime populates the
/// candidate spans only while the corresponding budget remains, so an empty
/// span means "this fault kind is not available here". Under replay all
/// spans are empty — the ReplayStrategy reads the decision from the trace.
struct FaultContext {
  std::span<const MachineId> crashable;      ///< crash candidates (sorted)
  std::span<const MachineId> restartable;    ///< restart candidates (sorted)
  std::span<const MachineId> partitionable;  ///< partition candidates (sorted)
  std::span<const MachineId> healable;       ///< isolated machines (sorted)
  std::uint64_t step = 0;       ///< 0-based step this boundary precedes
  std::uint64_t odds_den = 16;  ///< suggested per-step fault odds (1/den)
  std::uint64_t heal_den = 4;   ///< suggested per-step heal odds (1/den)
};

/// Outcome of the per-delivery message-fault choice point.
enum class DeliveryFault : std::uint8_t { kNone, kDrop, kDuplicate };

/// Context for SchedulingStrategy::NextDeliveryFault. `ordinal` is the
/// 0-based index of this machine-to-machine delivery within the execution —
/// the stable coordinate fault decisions are recorded against, so replay can
/// re-apply them without any fault configuration.
struct DeliveryFaultContext {
  std::uint64_t ordinal = 0;
  MachineId target{};
  bool drop_allowed = false;       ///< drop_probability_den is configured
  bool duplicate_allowed = false;  ///< budget remains and the event is clonable
  std::uint64_t drop_den = 0;      ///< per-delivery drop odds (1/den)
  std::uint64_t dup_den = 0;       ///< per-delivery duplication odds (1/den)
};

/// Interface consulted by the runtime at every scheduling point.
class SchedulingStrategy {
 public:
  virtual ~SchedulingStrategy() = default;

  /// Which built-in (if any) this instance is — see BuiltinStrategy.
  [[nodiscard]] BuiltinStrategy Builtin() const noexcept { return builtin_; }

  /// Called before each execution. `iteration` is 0-based; `max_steps` is the
  /// engine's per-execution step bound (needed by PCT/delay-bounded to place
  /// change points).
  virtual void PrepareIteration(std::uint64_t iteration,
                                std::uint64_t max_steps) = 0;

  /// Picks the machine to run next. `enabled` is non-empty and sorted by id.
  /// `step` is the 0-based index of this scheduling point.
  virtual MachineId Next(std::span<const MachineId> enabled,
                         std::uint64_t step) = 0;

  /// Value for a controlled boolean choice (PSharp.Nondet()).
  virtual bool NextBool() = 0;

  /// Value in [0, bound) for a controlled integer choice. bound >= 1.
  virtual std::uint64_t NextInt(std::uint64_t bound) = 0;

  /// Step-boundary fault choice point (crash/restart/partition/heal),
  /// consulted once per scheduling step while the fault plane is active and
  /// budget remains. The default derives the decision from the strategy's
  /// own choice source (NextInt), so EVERY strategy — random, PCT,
  /// delay-bounded, round-robin, third-party — explores failure
  /// interleavings without any code of its own. With pre-sampled placement
  /// armed (SetFaultPlacementPoints + a PrepareIteration that calls
  /// SampleFaultPlacement), destructive faults (crash, partition) fire only
  /// at the sampled points instead of geometric per-step odds.
  /// ReplayStrategy overrides it to read the recorded failure schedule from
  /// the trace.
  virtual FaultDecision NextFault(const FaultContext& ctx);

  /// Message-fault choice point, consulted once per machine-to-machine
  /// delivery while the fault plane is active. Same override contract as
  /// NextFault.
  virtual DeliveryFault NextDeliveryFault(const DeliveryFaultContext& ctx);

  [[nodiscard]] virtual std::string Name() const = 0;

  /// Steps (from the start of the execution) during which the stateful
  /// engine must NOT count consecutive known states toward pruning. Default
  /// 0: pruning behaves exactly as before for every existing strategy.
  /// Corpus-guided strategies (corpus/mutation_strategy.h) return the length
  /// of the trace prefix they are deliberately replaying — the prefix walks
  /// through already-visited states by construction, and pruning it would
  /// kill the execution before its mutation ever diverged. Read by the
  /// engine AFTER PrepareIteration (the prefix is chosen there).
  [[nodiscard]] virtual std::uint64_t PruneHoldoffSteps() const noexcept {
    return 0;
  }

  /// Pre-sampled fault placement (PCT-style, TestConfig::
  /// fault_placement_points): when count > 0, the default NextFault stops
  /// rolling geometric per-step odds for DESTRUCTIVE faults (crash,
  /// partition) and fires them only at `count` points sampled uniformly
  /// from the step budget each iteration — mirroring PCT's priority change
  /// points, so fault depth is bounded and systematically explorable.
  /// Recovery actions (restart, heal) keep their per-step odds. The
  /// built-in random/PCT/delay-bounded strategies honor this by calling
  /// SampleFaultPlacement from PrepareIteration; a strategy that never
  /// samples stays on the geometric default.
  void SetFaultPlacementPoints(int count) noexcept {
    placement_points_ = count;
  }
  [[nodiscard]] int FaultPlacementPoints() const noexcept {
    return placement_points_;
  }

  /// Remaining (sorted) pre-sampled fault points for the current iteration.
  /// Exposed so tests can pin where placed faults fire for a given seed.
  [[nodiscard]] std::span<const std::uint64_t> PlacedFaultPoints()
      const noexcept {
    return fault_points_;
  }

 protected:
  /// For built-in constructors only: the tag promises the dynamic type.
  void TagBuiltin(BuiltinStrategy builtin) noexcept { builtin_ = builtin; }

  /// Samples the configured number of placement points uniformly from
  /// [0, max_steps), sorted ascending, using the strategy's own choice
  /// stream (NextInt) — the same seed places the same faults. Call from
  /// PrepareIteration AFTER reseeding. No-op (and no draws) when placement
  /// is not configured, so default-off runs stay bit-identical.
  void SampleFaultPlacement(std::uint64_t max_steps);

 private:
  BuiltinStrategy builtin_ = BuiltinStrategy::kOther;
  int placement_points_ = 0;
  bool placement_armed_ = false;  ///< a PrepareIteration sampled at least once
  std::vector<std::uint64_t> fault_points_;
};

/// Uniformly random scheduling and choices.
class RandomStrategy final : public SchedulingStrategy {
 public:
  explicit RandomStrategy(std::uint64_t seed) : base_seed_(seed), rng_(seed) {
    TagBuiltin(BuiltinStrategy::kRandom);
  }

  void PrepareIteration(std::uint64_t iteration, std::uint64_t max_steps) override;
  /// In-class so Runtime::Step's devirtualized call (BuiltinStrategy tag +
  /// final class) inlines the whole pick into the step loop.
  MachineId Next(std::span<const MachineId> enabled,
                 std::uint64_t /*step*/) override {
    return enabled[rng_.NextBelow(enabled.size())];
  }
  bool NextBool() override { return rng_.NextBool(); }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return rng_.NextBelow(bound);
  }
  [[nodiscard]] std::string Name() const override { return "random"; }

 private:
  std::uint64_t base_seed_;
  Xoshiro256 rng_;
};

/// Randomized priority-based scheduling (PCT-style). Each machine receives a
/// random priority on first appearance; the highest-priority enabled machine
/// always runs. At `depth` randomly chosen steps the currently running
/// highest-priority machine is demoted below all others. The paper used a
/// budget of 2 priority change points (§6.2).
class PctStrategy final : public SchedulingStrategy {
 public:
  PctStrategy(std::uint64_t seed, int depth)
      : base_seed_(seed), depth_(depth), rng_(seed) {
    TagBuiltin(BuiltinStrategy::kPct);
  }

  void PrepareIteration(std::uint64_t iteration, std::uint64_t max_steps) override;
  MachineId Next(std::span<const MachineId> enabled, std::uint64_t step) override;
  bool NextBool() override { return rng_.NextBool(); }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return rng_.NextBelow(bound);
  }
  [[nodiscard]] std::string Name() const override {
    return "pct(" + std::to_string(depth_) + ")";
  }

  /// Remaining (sorted) demotion steps for the current iteration. Exposed so
  /// tests can pin down where demotions fire for a given seed.
  [[nodiscard]] std::span<const std::uint64_t> ChangePoints() const noexcept {
    return change_points_;
  }

 private:
  std::uint64_t PriorityOf(MachineId id);

  std::uint64_t base_seed_;
  int depth_;
  Xoshiro256 rng_;
  std::vector<std::uint64_t> change_points_;
  std::vector<std::uint64_t> priorities_;  // indexed by machine id
  std::uint64_t low_water_{0};             // decreases on each demotion
};

/// Deterministic round-robin over enabled machines; boolean choices alternate
/// and integer choices cycle. Useful as a fully deterministic baseline in
/// unit tests and ablations.
class RoundRobinStrategy final : public SchedulingStrategy {
 public:
  /// `seed` offsets the rotation start (cursor = seed + iteration), so
  /// sharded workers holding disjoint seed ranges cover exactly the rotation
  /// positions the serial engine would with the same total budget.
  explicit RoundRobinStrategy(std::uint64_t seed = 0) : base_(seed) {}

  void PrepareIteration(std::uint64_t iteration, std::uint64_t max_steps) override;
  MachineId Next(std::span<const MachineId> enabled, std::uint64_t step) override;
  bool NextBool() override { return (counter_++ % 2) == 0; }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return counter_++ % bound;
  }
  [[nodiscard]] std::string Name() const override { return "round-robin"; }

 private:
  std::uint64_t base_{0};
  std::uint64_t cursor_{0};
  std::uint64_t counter_{0};
};

/// Delay-bounded scheduling: round-robin order, but up to `delay_budget`
/// randomly placed scheduling points skip the default machine.
class DelayBoundedStrategy final : public SchedulingStrategy {
 public:
  DelayBoundedStrategy(std::uint64_t seed, int delay_budget)
      : base_seed_(seed), delay_budget_(delay_budget), rng_(seed) {}

  void PrepareIteration(std::uint64_t iteration, std::uint64_t max_steps) override;
  MachineId Next(std::span<const MachineId> enabled, std::uint64_t step) override;
  bool NextBool() override { return rng_.NextBool(); }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return rng_.NextBelow(bound);
  }
  [[nodiscard]] std::string Name() const override {
    return "delay-bounded(" + std::to_string(delay_budget_) + ")";
  }

 private:
  std::uint64_t base_seed_;
  int delay_budget_;
  Xoshiro256 rng_;
  std::vector<std::uint64_t> delay_points_;
  std::uint64_t cursor_{0};
};

/// Replays a recorded trace decision-for-decision. Any divergence (a decision
/// of the wrong kind, a scheduled machine that is not enabled, or running out
/// of decisions) throws BugFound{kReplayDivergence}.
class ReplayStrategy final : public SchedulingStrategy {
 public:
  explicit ReplayStrategy(Trace trace) : trace_(std::move(trace)) {}

  void PrepareIteration(std::uint64_t iteration, std::uint64_t max_steps) override;
  MachineId Next(std::span<const MachineId> enabled, std::uint64_t step) override;
  bool NextBool() override;
  std::uint64_t NextInt(std::uint64_t bound) override;
  /// Trace-driven fault application: if the next recorded decision is a
  /// crash/restart/partition/heal whose step matches ctx.step, consume and
  /// return it; otherwise no fault fired here. Budgets and candidate lists
  /// are ignored — the trace alone defines the failure schedule, which is
  /// what lets `--replay` reproduce fault-found bugs without any --faults
  /// flags.
  FaultDecision NextFault(const FaultContext& ctx) override;
  /// Same, keyed on the recorded delivery ordinal.
  DeliveryFault NextDeliveryFault(const DeliveryFaultContext& ctx) override;
  [[nodiscard]] std::string Name() const override { return "replay"; }

  /// True once every recorded decision has been consumed.
  [[nodiscard]] bool Exhausted() const noexcept {
    return cursor_ >= trace_.Size();
  }

 private:
  const Decision& Take(Decision::Kind expected);

  Trace trace_;
  std::size_t cursor_{0};
};

/// String name of a scheduling strategy, resolved through StrategyRegistry
/// when an engine starts. Accepts an optional budget suffix ("pct(5)") that
/// overrides TestConfig::strategy_budget.
class StrategyName {
 public:
  StrategyName() = default;
  StrategyName(std::string name) : name_(std::move(name)) {}
  StrategyName(std::string_view name) : name_(name) {}
  StrategyName(const char* name) : name_(name) {}

  [[nodiscard]] const std::string& str() const noexcept { return name_; }
  [[nodiscard]] const char* c_str() const noexcept { return name_.c_str(); }
  [[nodiscard]] bool empty() const noexcept { return name_.empty(); }
  operator const std::string&() const noexcept { return name_; }

  friend bool operator==(const StrategyName&, const StrategyName&) = default;
  friend auto operator<=>(const StrategyName&, const StrategyName&) = default;

 private:
  std::string name_ = "random";
};

}  // namespace systest
