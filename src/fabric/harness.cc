#include "fabric/harness.h"

#include "core/timer.h"
#include "fabric/cluster.h"
#include "fabric/pipeline.h"
#include "fabric/replica.h"

namespace fabric {

namespace {

/// Liveness monitor: hot until the scenario's final check completes.
class ScenarioLivenessMonitor final : public systest::Monitor {
 public:
  static constexpr bool kReusableRuntime = true;  // stateless beyond control state

  ScenarioLivenessMonitor() {
    State("Running").Hot().On<NotifyScenarioDone>(&ScenarioLivenessMonitor::OnDone);
    State("Done").Cold().Ignore<NotifyScenarioDone>();
    SetStart("Running");
  }

 private:
  void OnDone() { Goto("Done"); }
};

/// Client: sends nondeterministically generated counter increments and waits
/// for each acknowledgement (paper §2.3 pattern).
class CounterClientMachine final : public systest::Machine {
 public:
  CounterClientMachine(systest::MachineId cluster, systest::MachineId driver,
                       int ops, std::uint64_t value_space)
      : cluster_(cluster), driver_(driver), ops_(ops),
        value_space_(value_space) {
    State("Driving").OnEntry(&CounterClientMachine::Run);
    SetStart("Driving");
  }

 private:
  systest::Task Run() {
    std::int64_t total = 0;
    for (int i = 0; i < ops_; ++i) {
      const std::int64_t delta =
          static_cast<std::int64_t>(NondetInt(value_space_)) + 1;
      total += delta;
      Send<ClientOp>(cluster_, Id(), static_cast<std::uint64_t>(i + 1), delta);
      for (;;) {
        auto ack = co_await Receive<OpAck>();
        if (ack->op == static_cast<std::uint64_t>(i + 1)) {
          break;  // duplicate acks for resubmitted ops are possible
        }
      }
    }
    Send<ClientDone>(driver_, total);
    Halt();
  }

  systest::MachineId cluster_;
  systest::MachineId driver_;
  int ops_;
  std::uint64_t value_space_;
};

/// Failover driver: injects primary failures at nondeterministic times via a
/// modeled timer, then audits convergence.
class FailoverDriverMachine final : public systest::Machine {
 public:
  /// Execution recycling: the cluster, client and timer are created
  /// mid-execution (truncated by the reset); only the driver's counters
  /// need restoring.
  static constexpr bool kReusableRuntime = true;

  explicit FailoverDriverMachine(FailoverOptions options) : options_(options) {
    State("Driving")
        .OnEntry(&FailoverDriverMachine::OnStart)
        .On<systest::TimerTick>(&FailoverDriverMachine::OnTick)
        .On<RepairComplete>(&FailoverDriverMachine::OnRepair)
        .On<ClientDone>(&FailoverDriverMachine::OnClientDone)
        .On<AuditReport>(&FailoverDriverMachine::OnAuditReport);
    SetStart("Driving");
  }

 private:
  void OnReset() override {
    cluster_ = {};
    failure_timer_ = {};
    failures_injected_ = 0;
    repairs_done_ = 0;
    client_done_ = false;
    audit_sent_ = false;
    audit_reports_ = 0;
    expected_total_ = 0;
  }

  void OnStart() {
    cluster_ = Create<FabricClusterMachine>("FabricCluster", options_.replicas,
                                            options_.bugs, Id());
    Create<CounterClientMachine>("Client", cluster_, Id(), options_.client_ops,
                                 options_.value_space);
    failure_timer_ = Create<systest::TimerMachine>("FailureTimer", Id(),
                                                   /*max_rounds=*/0);
  }

  void OnTick(const systest::TimerTick& tick) {
    Send<systest::TickAck>(tick.timer);
    if (failures_injected_ < options_.failures) {
      ++failures_injected_;
      Send<InjectPrimaryFailure>(cluster_);
    }
    if (failures_injected_ == options_.failures) {
      Send<systest::CancelTimer>(failure_timer_);
    }
  }

  void OnRepair(const RepairComplete&) {
    ++repairs_done_;
    MaybeAudit();
  }

  void OnClientDone(const ClientDone& done) {
    expected_total_ = done.total;
    client_done_ = true;
    MaybeAudit();
  }

  void MaybeAudit() {
    if (client_done_ && repairs_done_ == failures_injected_ &&
        failures_injected_ == options_.failures && !audit_sent_) {
      audit_sent_ = true;
      Send<AuditBarrier>(cluster_, Id());
    }
  }

  void OnAuditReport(const AuditReport& report) {
    Assert(report.total == expected_total_, [&] {
      return "replica diverged after failover: reports " +
             std::to_string(report.total) + " but the client accumulated " +
             std::to_string(expected_total_);
    });
    if (++audit_reports_ == static_cast<int>(options_.replicas)) {
      Notify<ScenarioLivenessMonitor, NotifyScenarioDone>();
      Halt();
    }
  }

  FailoverOptions options_;
  systest::MachineId cluster_;
  systest::MachineId failure_timer_;
  int failures_injected_ = 0;
  int repairs_done_ = 0;
  bool client_done_ = false;
  bool audit_sent_ = false;
  int audit_reports_ = 0;
  std::int64_t expected_total_ = 0;
};

/// Reconfig driver: no failure timer — the fault plane owns the crash (the
/// cluster makes the primary crashable while the initial builds are
/// pending). Audits once the client finished and the reconfiguration
/// drained; every replica alive at that point (original set, added nodes,
/// and any replacement launched after a crash) must report the client's
/// acknowledged total.
class ReconfigDriverMachine final : public systest::Machine {
 public:
  static constexpr bool kReusableRuntime = true;

  explicit ReconfigDriverMachine(ReconfigOptions options) : options_(options) {
    State("Driving")
        .OnEntry(&ReconfigDriverMachine::OnStart)
        .On<RepairComplete>(&ReconfigDriverMachine::OnRepair)
        .On<ReconfigDone>(&ReconfigDriverMachine::OnReconfigDone)
        .On<ClientDone>(&ReconfigDriverMachine::OnClientDone)
        .On<AuditReport>(&ReconfigDriverMachine::OnAuditReport);
    SetStart("Driving");
  }

 private:
  void OnReset() override {
    cluster_ = {};
    reconfig_done_ = options_.added_nodes == 0;
    client_done_ = false;
    audit_sent_ = false;
    audit_reports_ = 0;
    expected_total_ = 0;
  }

  void OnStart() {
    cluster_ = Create<FabricClusterMachine>(
        "FabricCluster", options_.replicas, options_.bugs, Id(),
        /*initial_builds=*/options_.added_nodes, /*crashable_primary=*/true);
    Create<CounterClientMachine>("Client", cluster_, Id(), options_.client_ops,
                                 options_.value_space);
  }

  void OnRepair(const RepairComplete&) {
    // Promotions are counted by the cluster's own ReconfigDone (a crash adds
    // a replacement build, so the count is schedule-dependent here).
  }

  void OnReconfigDone() {
    reconfig_done_ = true;
    MaybeAudit();
  }

  void OnClientDone(const ClientDone& done) {
    expected_total_ = done.total;
    client_done_ = true;
    MaybeAudit();
  }

  void MaybeAudit() {
    if (client_done_ && reconfig_done_ && !audit_sent_) {
      audit_sent_ = true;
      Send<AuditBarrier>(cluster_, Id());
    }
  }

  void OnAuditReport(const AuditReport& report) {
    Assert(report.total == expected_total_, [&] {
      return "replica diverged after reconfig: reports " +
             std::to_string(report.total) + " but the client accumulated " +
             std::to_string(expected_total_);
    });
    // Replica count is crash-invariant: every crash launches exactly one
    // replacement, so the audit always expects the original set plus the
    // added nodes.
    const int expected =
        static_cast<int>(options_.replicas + options_.added_nodes);
    if (++audit_reports_ == expected) {
      Notify<ScenarioLivenessMonitor, NotifyScenarioDone>();
      Halt();
    }
  }

  ReconfigOptions options_;
  systest::MachineId cluster_;
  // With no added nodes there is no reconfiguration to wait for (and the
  // cluster never reports one).
  bool reconfig_done_ = options_.added_nodes == 0;
  bool client_done_ = false;
  bool audit_sent_ = false;
  int audit_reports_ = 0;
  std::int64_t expected_total_ = 0;
};

/// Delivers the aggregator's configuration from its own machine so that the
/// delivery genuinely races the upstream records under the scheduler.
class ConfigDeployerMachine final : public systest::Machine {
 public:
  ConfigDeployerMachine(systest::MachineId aggregator, std::int64_t scale)
      : aggregator_(aggregator), scale_(scale) {
    State("Deploying").OnEntry(&ConfigDeployerMachine::OnStart);
    SetStart("Deploying");
  }

 private:
  void OnStart() {
    Send<PipelineConfig>(aggregator_, scale_);
    Halt();
  }

  systest::MachineId aggregator_;
  std::int64_t scale_;
};

/// Pipeline driver: deploys the aggregator, races its configuration against
/// the upstream records, and checks the final aggregate.
class PipelineDriverMachine final : public systest::Machine {
 public:
  static constexpr bool kReusableRuntime = true;  // options_ is const-after-ctor

  explicit PipelineDriverMachine(PipelineOptions options) : options_(options) {
    State("Driving")
        .OnEntry(&PipelineDriverMachine::OnStart)
        .On<PipelineResult>(&PipelineDriverMachine::OnResult);
    SetStart("Driving");
  }

 private:
  void OnStart() {
    const systest::MachineId aggregator =
        options_.bugs.unguarded_pipeline_config
            ? Create<UnguardedAggregatorMachine>("Aggregator", Id(),
                                                 options_.records)
            : Create<AggregatorMachine>("Aggregator", Id(), options_.records);
    // The source starts emitting concurrently with the configuration
    // delivery — the race at the heart of the modeled CScale bug.
    Create<PipelineSourceMachine>("PipelineSource", aggregator,
                                  options_.records, options_.value_space);
    Create<ConfigDeployerMachine>("ConfigDeployer", aggregator,
                                  options_.scale);
  }

  void OnResult(const PipelineResult& result) {
    Assert(result.value % options_.scale == 0,
           "aggregate not scaled by the configuration");
    Notify<ScenarioLivenessMonitor, NotifyScenarioDone>();
    Halt();
  }

  PipelineOptions options_;
};

}  // namespace

systest::Harness MakeFailoverHarness(const FailoverOptions& options) {
  return [options](systest::Runtime& rt) {
    rt.RegisterMonitor<ScenarioLivenessMonitor>("ScenarioLivenessMonitor");
    rt.CreateMachine<FailoverDriverMachine>("FailoverDriver", options);
  };
}

systest::Harness MakeReconfigHarness(const ReconfigOptions& options) {
  return [options](systest::Runtime& rt) {
    rt.RegisterMonitor<ScenarioLivenessMonitor>("ScenarioLivenessMonitor");
    rt.CreateMachine<ReconfigDriverMachine>("ReconfigDriver", options);
  };
}

systest::Harness MakePipelineHarness(const PipelineOptions& options) {
  return [options](systest::Runtime& rt) {
    rt.RegisterMonitor<ScenarioLivenessMonitor>("ScenarioLivenessMonitor");
    rt.CreateMachine<PipelineDriverMachine>("PipelineDriver", options);
  };
}

systest::TestConfig DefaultConfig(systest::StrategyName strategy) {
  systest::TestConfig config;
  config.iterations = 100'000;
  config.max_steps = 5'000;
  // The scenario monitor is hot from the first step, so the threshold only
  // flags executions that fail to finish anywhere near the bound.
  config.liveness_temperature_threshold = 4'000;
  config.strategy = strategy;
  config.strategy_budget = 2;
  config.seed = 2016;
  return config;
}

}  // namespace fabric
