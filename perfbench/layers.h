// Per-layer tracing for the perfbench runner.
//
// Everything here times calls into the program's public entry points from
// the outside: a pass-through SchedulingStrategy around the strategy the
// registry builds, a pass-through VisitedSet around TieredFingerprintSet, a
// wrapped Harness, and a serial exploration loop over ExecutionRunner::RunOne
// that mirrors TestingEngine::Run decision for decision. The program itself
// carries no tracing code, so the untraced campaigns the end-to-end metrics
// come from run exactly what a user runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "core/strategy.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Per-step calls run millions of times, so only one call in kSampleEvery
/// is timed; busy time is the sampled mean times the exact call count.
inline constexpr std::uint64_t kSampleEvery = 64;

/// Count of calls plus a sampled estimate of the time they took.
struct SampledTimer {
  std::uint64_t calls = 0;
  std::uint64_t sampled_calls = 0;
  std::uint64_t sampled_ns = 0;

  [[nodiscard]] double BusyNs() const {
    return sampled_calls == 0 ? 0.0
                              : static_cast<double>(sampled_ns) /
                                    static_cast<double>(sampled_calls) *
                                    static_cast<double>(calls);
  }
};

/// Times `fn` on one call in kSampleEvery and counts every call.
template <typename Fn>
decltype(auto) Sample(SampledTimer& timer, Fn&& fn) {
  if (timer.calls++ % kSampleEvery != 0) return fn();
  struct Stop {
    SampledTimer& timer;
    std::uint64_t start = NowNs();
    ~Stop() {
      timer.sampled_ns += NowNs() - start;
      ++timer.sampled_calls;
    }
  } stop{timer};
  return fn();
}

/// Pass-through strategy: forwards every call to the registry-built inner
/// strategy and counts (and samples the time of) each one. Its builtin tag
/// stays kOther, so the runtime's devirtualised call to the built-in random
/// and PCT strategies is lost; bench.trace_overhead_frac reports that cost.
class TimedStrategy final : public systest::SchedulingStrategy {
 public:
  explicit TimedStrategy(std::unique_ptr<systest::SchedulingStrategy> inner)
      : inner_(std::move(inner)) {}

  void PrepareIteration(std::uint64_t iteration,
                        std::uint64_t max_steps) override {
    // Fault placement is configured on the object ExecutionRunner holds
    // (this wrapper); the inner strategy samples the points, so hand it over.
    inner_->SetFaultPlacementPoints(FaultPlacementPoints());
    const std::uint64_t start = NowNs();
    inner_->PrepareIteration(iteration, max_steps);
    prepare_ns += NowNs() - start;
  }
  systest::MachineId Next(std::span<const systest::MachineId> enabled,
                          std::uint64_t step) override {
    return Sample(decisions, [&] { return inner_->Next(enabled, step); });
  }
  bool NextBool() override {
    return Sample(decisions, [&] { return inner_->NextBool(); });
  }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return Sample(decisions, [&] { return inner_->NextInt(bound); });
  }
  systest::FaultDecision NextFault(const systest::FaultContext& ctx) override {
    return Sample(fault_queries, [&] { return inner_->NextFault(ctx); });
  }
  systest::DeliveryFault NextDeliveryFault(
      const systest::DeliveryFaultContext& ctx) override {
    return Sample(fault_queries,
                  [&] { return inner_->NextDeliveryFault(ctx); });
  }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  [[nodiscard]] std::uint64_t PruneHoldoffSteps() const noexcept override {
    return inner_->PruneHoldoffSteps();
  }

  SampledTimer decisions;
  SampledTimer fault_queries;
  std::uint64_t prepare_ns = 0;

 private:
  std::unique_ptr<systest::SchedulingStrategy> inner_;
};

/// Pass-through visited set around the engine's TieredFingerprintSet.
class TimedVisitedSet final : public systest::VisitedSet {
 public:
  explicit TimedVisitedSet(const systest::TieredOptions& options)
      : inner_(options) {}

  bool Insert(systest::Fingerprint fp) override {
    const bool novel = Sample(inserts, [&] { return inner_.Insert(fp); });
    novel_inserts += novel ? 1 : 0;
    return novel;
  }
  [[nodiscard]] std::size_t Size() const override { return inner_.Size(); }
  [[nodiscard]] systest::VisitedStats Stats() const override {
    return inner_.Stats();
  }

  SampledTimer inserts;
  std::uint64_t novel_inserts = 0;

 private:
  systest::TieredFingerprintSet inner_;
};

/// Wraps a harness so each call is counted and timed (harness runs happen
/// once per campaign when the runtime recycles, once per execution when the
/// recycle seal is refused).
struct HarnessTimer {
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;
};

systest::Harness TimeHarness(systest::Harness inner, HarnessTimer& timer);

/// One span of the traced run. Spans of one campaign share `campaign`;
/// `child_ns` is the time the span's children and sampled per-step calls
/// cover, so self time is (end - start - child_ns).
struct Span {
  std::uint64_t campaign = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 for a campaign span
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;
};

/// In-memory span log, written out once when the run ends.
class SpanLog {
 public:
  /// Opens a span; a child (parent != 0) inherits its parent's campaign.
  std::uint32_t Open(std::uint64_t campaign, std::uint32_t parent,
                     const char* name);
  std::uint32_t OpenChild(std::uint32_t parent, const char* name) {
    return Open(Get(parent).campaign, parent, name);
  }
  void Close(std::uint32_t id, std::uint64_t child_ns = 0);
  [[nodiscard]] const Span& Get(std::uint32_t id) const {
    return spans_[id - 1];
  }
  /// Writes one JSON object per line; returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer totals summed over every traced campaign of a run.
struct LayerTotals {
  std::uint64_t resolve_ns = 0;
  std::uint64_t resolves = 0;
  HarnessTimer harness;
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  std::uint64_t run_one_ns = 0;
  std::uint64_t child_ns = 0;  ///< strategy + visited + harness inside RunOne
  std::uint64_t recycled = 0;
  std::uint64_t pruned = 0;
  std::uint64_t faults = 0;
  SampledTimer decisions;
  SampledTimer fault_queries;
  std::uint64_t prepare_ns = 0;
  SampledTimer inserts;
  std::uint64_t novel_inserts = 0;
  systest::VisitedStats visited;
  std::uint64_t corpus_add_calls = 0;
  std::uint64_t corpus_added = 0;
  std::uint64_t corpus_add_ns = 0;
  std::uint64_t corpus_sampled = 0;
  std::uint64_t corpus_entries = 0;
  std::uint64_t corpus_saves = 0;
  std::uint64_t corpus_save_ns = 0;
  std::uint64_t corpus_loads = 0;
  std::uint64_t corpus_load_ns = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_ns = 0;
};

/// Counts a traced campaign must share with its untraced twin.
struct CampaignCounts {
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  bool bug_found = false;
  std::uint64_t bug_iteration = 0;
  std::uint64_t distinct_states = 0;
  std::uint64_t pruned = 0;
  std::uint64_t corpus_added = 0;

  friend bool operator==(const CampaignCounts&,
                         const CampaignCounts&) = default;
};

/// Which wrappers a traced run installs (tests switch them one at a time).
struct WrapOptions {
  bool strategy = true;
  bool visited = true;
  bool harness = true;
};

struct TracedCampaign {
  CampaignCounts counts;
  double explore_s = 0;                ///< the RunOne loop's wall time
  std::vector<systest::Trace> traces;  ///< per execution, if keep_traces
};

/// Runs one serial campaign through the traced loop: scenario resolution,
/// harness factory, the registry's strategy, the tiered visited set, the
/// corpus (loaded from and saved to `corpus_dir` when the session names
/// one) and the metrics plane, then ExecutionRunner::RunOne per iteration
/// exactly as TestingEngine::Run drives it. Adds layer timings to `totals`
/// and setup, execution and corpus-save spans under the open campaign span
/// `parent` to `spans`.
TracedCampaign RunTraced(const systest::api::SessionConfig& session,
                         std::uint32_t parent, LayerTotals& totals,
                         SpanLog& spans, const WrapOptions& wrap = {},
                         bool keep_traces = false);

}  // namespace perfbench
