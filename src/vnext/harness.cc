#include "vnext/harness.h"

#include "vnext/repair_monitor.h"

namespace vnext {

systest::Harness MakeExtentRepairHarness(const DriverOptions& options) {
  return [options](systest::Runtime& rt) {
    std::set<NodeId> initial;
    for (std::size_t i = 0; i < options.initial_replicas; ++i) {
      initial.insert(static_cast<NodeId>(i + 1));  // driver numbers ENs from 1
    }
    rt.RegisterMonitor<RepairMonitor>("RepairMonitor",
                                      options.manager.replica_target,
                                      std::move(initial));
    rt.CreateMachine<TestingDriverMachine>("TestingDriver", options);
  };
}

systest::TestConfig DefaultConfig(systest::StrategyName strategy) {
  systest::TestConfig config;
  config.iterations = 100'000;  // the paper's execution budget
  config.max_steps = 3'000;
  // A correct repair completes in well under 1200 consecutive-hot steps with
  // ~12 machines; a stuck repair stays hot to the bound.
  config.liveness_temperature_threshold = 1'200;
  config.strategy = strategy;
  config.strategy_budget = 2;  // the paper's PCT budget
  config.seed = 2016;
  // Scenario 2 by default: the fault plane crashes one scheduler-chosen EN
  // per execution (the ENs opt in via DriverOptions::crashable_nodes).
  // Crashes are permanent; the driver launches a replacement EN instead.
  // Scenario 1 (pure replication, no failure) is max_crashes = 0.
  config.faults.max_crashes = 1;
  config.faults.max_restarts = 0;
  return config;
}

}  // namespace vnext
