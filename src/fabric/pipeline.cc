#include "fabric/pipeline.h"

namespace fabric {

template <bool kGuarded>
BasicAggregatorMachine<kGuarded>::BasicAggregatorMachine(
    systest::MachineId driver, int expected_records)
    : driver_(driver), expected_records_(expected_records) {
  if constexpr (kGuarded) {
    // Correct: records are deferred until the configuration has arrived.
    State("Unconfigured")
        .Defer<PipelineRecord>()
        .On<PipelineConfig>(&BasicAggregatorMachine::OnConfig);
    State("Configured").On<PipelineRecord>(&BasicAggregatorMachine::OnRecord);
    SetStart("Unconfigured");
  } else {
    // BUG (CScale NullReferenceException analogue): a single state whose
    // record handler dereferences the configuration unconditionally.
    systest::StateBuilder running = State("Running");
    running.On<PipelineConfig>(&BasicAggregatorMachine::OnConfig);
    running.On<PipelineRecord>(&BasicAggregatorMachine::OnRecord);
    SetStart("Running");
  }
}

template <bool kGuarded>
void BasicAggregatorMachine<kGuarded>::OnConfig(const PipelineConfig& config) {
  scale_ = config.scale;
  if constexpr (kGuarded) {
    Goto("Configured");
  }
}

template <bool kGuarded>
void BasicAggregatorMachine<kGuarded>::OnRecord(const PipelineRecord& record) {
  if constexpr (!kGuarded) {
    // The unguarded dereference: with no configuration present this is the
    // modeled null-reference crash.
    Assert(scale_.has_value(),
           "null dereference: aggregator consumed a record before its "
           "routing configuration arrived");
  }
  aggregate_ += record.value * *scale_;
  if (++seen_ == expected_records_) {
    Send<PipelineResult>(driver_, aggregate_);
    Halt();
  }
}

template class BasicAggregatorMachine<true>;
template class BasicAggregatorMachine<false>;

PipelineSourceMachine::PipelineSourceMachine(systest::MachineId aggregator,
                                             int records,
                                             std::uint64_t value_space)
    : aggregator_(aggregator), records_(records), value_space_(value_space) {
  State("Emitting").OnEntry(&PipelineSourceMachine::OnStart);
  SetStart("Emitting");
}

void PipelineSourceMachine::OnStart() {
  for (int i = 0; i < records_; ++i) {
    // Derived record values are chosen through controlled nondeterminism.
    Send<PipelineRecord>(aggregator_,
                         static_cast<std::int64_t>(NondetInt(value_space_)) + 1);
  }
  Halt();
}

}  // namespace fabric
