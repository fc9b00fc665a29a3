// SysTest — Azure Storage vNext case study (§3.4).
//
// TestingDriver: drives the testing scenarios and relays messages between
// machines (paper Fig. 10). Scenario 1 launches one ExtentManager and N ENs
// with the extent under-replicated and waits for replication; scenario 2
// starts fully replicated, lets the FAULT PLANE crash a scheduler-chosen EN
// at a scheduler-chosen point (Runtime::SetCrashable +
// TestConfig::faults.max_crashes — the driver carries no failure injection
// of its own), launches a replacement when told of the crash, and waits for
// the extent to be repaired.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "core/runtime.h"
#include "core/timer.h"
#include "vnext/extent_manager.h"
#include "vnext/harness_events.h"

namespace vnext {

struct DriverOptions {
  ExtentManagerOptions manager;
  std::size_t num_nodes = 3;         ///< initial Extent Nodes
  std::size_t initial_replicas = 3;  ///< how many of them hold the extent
  /// Opt every launched EN in as a fault-plane crash candidate
  /// (Runtime::SetCrashable). Whether crashes actually happen is the
  /// engine's call: scenario 2 is crashable_nodes=true plus max_crashes>=1
  /// in the TestConfig (vnext::DefaultConfig budgets 1), scenario 1 is the
  /// same harness with max_crashes=0.
  bool crashable_nodes = true;
  /// Launch a fresh, empty EN when a crashed EN reports in (the scenario-2
  /// replacement launch of Fig. 10). Disable for fleets that pre-provision
  /// a spare instead (vnext-repair-under-crash).
  bool replace_crashed = true;
  ExtentId extent = 1;
};

class TestingDriverMachine final : public systest::Machine {
 public:
  /// Execution recycling: the manager, the ENs and their timers are created
  /// mid-execution (truncated by the reset); only the driver's own roster
  /// needs restoring.
  static constexpr bool kReusableRuntime = true;

  explicit TestingDriverMachine(DriverOptions options);

 private:
  void OnReset() override {
    next_node_ = 1;
    node_machines_.clear();
    live_nodes_.clear();
    manager_machine_ = {};
  }

  void OnStart();
  void OnMgrOutbound(const MgrOutboundEvent& outbound);
  void OnCopyRequest(const CopyRequestEvent& request);
  void OnCopyResponse(const CopyResponseEvent& response);
  void OnNodeCrashed(const ENCrashedEvent& crashed);

  /// Launches a modeled EN plus its heartbeat and sync timers; returns its
  /// node id.
  NodeId LaunchNode(bool with_extent);
  [[nodiscard]] systest::MachineId MachineOf(NodeId node);

  DriverOptions options_;
  NodeId next_node_ = 1;
  std::map<NodeId, systest::MachineId> node_machines_;
  std::vector<NodeId> live_nodes_;
  systest::MachineId manager_machine_;
};

}  // namespace vnext
