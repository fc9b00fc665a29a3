// SysTest — Azure Storage vNext case study (§3): harness events.
//
// Events exchanged between the P#-style machines of the vNext test harness
// (paper Fig. 4): the wrapped Extent Manager, the modeled Extent Nodes, the
// modeled timers, the TestingDriver and the RepairMonitor.
#pragma once

#include <memory>

#include "core/event.h"
#include "vnext/types.h"

namespace vnext {

/// Timer tags (one TimerMachine per loop, paper §3.3).
enum TimerTag : std::uint64_t {
  kExpirationLoopTimer = 1,  ///< drives ExtentManager::ProcessExpirationTick
  kRepairLoopTimer = 2,      ///< drives ExtentManager::ProcessRepairTick
  kHeartbeatTimer = 3,       ///< drives EN heartbeats
  kSyncReportTimer = 4,      ///< drives EN sync reports
};

/// EN machine -> ExtentManager machine: an inbound vNext wire message.
/// "Messages coming from ExtentNode machines do not go through the modeled
/// network engine; they are instead delivered to the ExtentManager machine"
/// (§3.1).
struct EnToMgrEvent final : systest::Event {
  explicit EnToMgrEvent(std::shared_ptr<const Message> message)
      : message(std::move(message)) {}
  std::shared_ptr<const Message> message;

  [[nodiscard]] std::string Name() const override {
    return "EnToMgr[" + message->Describe() + "]";
  }
};

/// ExtentManager machine -> TestingDriver: an outbound wire message
/// intercepted by the modeled network engine (paper Fig. 7), for the driver
/// to dispatch to the destination EN machine.
struct MgrOutboundEvent final : systest::Event {
  MgrOutboundEvent(NodeId destination, std::shared_ptr<const Message> message)
      : destination(destination), message(std::move(message)) {}
  NodeId destination;
  std::shared_ptr<const Message> message;

  [[nodiscard]] std::string Name() const override {
    return "MgrOutbound[" + message->Describe() + "]";
  }
};

/// TestingDriver -> EN machine: a repair request from the Extent Manager.
struct RepairRequestEvent final : systest::Event {
  explicit RepairRequestEvent(
      std::shared_ptr<const RepairRequestMessage> request)
      : request(std::move(request)) {}
  std::shared_ptr<const RepairRequestMessage> request;
};

/// EN -> TestingDriver -> source EN: request a copy of an extent replica
/// (the modeled extent-repair protocol, paper Fig. 8).
struct CopyRequestEvent final : systest::Event {
  CopyRequestEvent(NodeId requester, NodeId source, ExtentId extent)
      : requester(requester), source(source), extent(extent) {}
  NodeId requester;
  NodeId source;
  ExtentId extent;
};

/// Source EN -> TestingDriver -> requesting EN: the copy outcome.
struct CopyResponseEvent final : systest::Event {
  CopyResponseEvent(NodeId requester, NodeId source, ExtentRecord record,
                    bool success)
      : requester(requester), source(source), record(record),
        success(success) {}
  NodeId requester;
  NodeId source;
  ExtentRecord record;
  bool success;
};

/// Crashed EN -> TestingDriver (sent from Machine::OnCrash when the fault
/// plane kills the node): the driver launches a replacement EN, completing
/// the scenario-2 recovery loop of paper Fig. 10. The failure itself is
/// scheduler-controlled (Runtime::SetCrashable +
/// TestConfig::faults.max_crashes), not a hand-rolled injection.
struct ENCrashedEvent final : systest::Event {
  explicit ENCrashedEvent(NodeId node) : node(node) {}
  NodeId node;
};

/// Harness -> ExtentManager machine: wiring (who is the driver).
struct MgrConfigEvent final : systest::Event {
  explicit MgrConfigEvent(systest::MachineId driver) : driver(driver) {}
  systest::MachineId driver;
};

/// TestingDriver -> EN machine: ids of the EN's modeled timers, so the EN
/// can cancel them when it fails.
struct NodeTimersEvent final : systest::Event {
  NodeTimersEvent(systest::MachineId heartbeat_timer,
                  systest::MachineId sync_timer)
      : heartbeat_timer(heartbeat_timer), sync_timer(sync_timer) {}
  systest::MachineId heartbeat_timer;
  systest::MachineId sync_timer;
};

// --- RepairMonitor notifications (paper Fig. 11) ---

/// An EN holding a replica failed.
struct ENFailedEvent final : systest::Event {
  explicit ENFailedEvent(NodeId node) : node(node) {}
  NodeId node;
};

/// An EN completed the repair of a replica.
struct ExtentRepairedEvent final : systest::Event {
  explicit ExtentRepairedEvent(NodeId node) : node(node) {}
  NodeId node;
};

}  // namespace vnext
