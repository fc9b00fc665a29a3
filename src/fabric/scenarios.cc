// Scenario registrations for the Azure Service Fabric case study (§5):
// failover with the promote-during-copy role bug, the CScale-like pipeline
// with the unguarded configuration dereference, and their fixed controls.
#include "api/scenario_registry.h"
#include "fabric/harness.h"

namespace fabric {
namespace {

using systest::api::ParamMap;
using systest::api::ParamSpec;
using systest::api::Scenario;

FailoverOptions FailoverFrom(const ParamMap& params) {
  FailoverOptions options;
  options.replicas = params.GetUint("replicas", options.replicas);
  options.client_ops =
      static_cast<int>(params.GetUint("client-ops", options.client_ops));
  options.value_space = params.GetUint("value-space", options.value_space);
  options.failures =
      static_cast<int>(params.GetUint("failures", options.failures));
  return options;
}

PipelineOptions PipelineFrom(const ParamMap& params) {
  PipelineOptions options;
  options.records =
      static_cast<int>(params.GetUint("records", options.records));
  options.value_space = params.GetUint("value-space", options.value_space);
  options.scale = params.GetInt("scale", options.scale);
  return options;
}

std::vector<ParamSpec> FailoverParams() {
  return {
      {"replicas", "replica count (default 3)"},
      {"client-ops", "acknowledged counter operations (default 4)"},
      {"value-space", "distinct operation values (default 3)"},
      {"failures", "primary failures injected (default 2)"},
  };
}

std::vector<ParamSpec> PipelineParams() {
  return {
      {"records", "records pushed through the pipeline (default 3)"},
      {"value-space", "distinct record values (default 3)"},
      {"scale", "aggregator scale factor (default 2)"},
  };
}

Scenario Failover(const char* name, const char* description, bool buggy) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.tags = {"fabric", "safety", buggy ? "buggy" : "fixed"};
  s.params = FailoverParams();
  s.make = [buggy](const ParamMap& params) {
    FailoverOptions options = FailoverFrom(params);
    options.bugs.promote_during_copy = buggy;
    return MakeFailoverHarness(options);
  };
  s.default_config = [] { return DefaultConfig(); };
  return s;
}

Scenario Pipeline(const char* name, const char* description, bool buggy) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.tags = {"fabric", "safety", buggy ? "buggy" : "fixed"};
  s.params = PipelineParams();
  s.make = [buggy](const ParamMap& params) {
    PipelineOptions options = PipelineFrom(params);
    options.bugs.unguarded_pipeline_config = buggy;
    return MakePipelineHarness(options);
  };
  s.default_config = [] { return DefaultConfig(); };
  return s;
}

SYSTEST_REGISTER_SCENARIO(fabric_failover) {
  return Failover("fabric-failover",
                  "sec. 5 Service Fabric failover, promote-during-copy role "
                  "assertion",
                  /*buggy=*/true);
}

SYSTEST_REGISTER_SCENARIO(fabric_failover_fixed) {
  return Failover("fabric-failover-fixed",
                  "sec. 5 Service Fabric failover with the promotion guard "
                  "(control)",
                  /*buggy=*/false);
}

// Production-shaped crash scenario (fault plane): a reconfiguration adds a
// node to the replica set, and the PRIMARY is crashable exactly while the
// build is in flight — the scheduler picks the crash point via the
// TestConfig::faults.max_crashes budget (SetCrashable + budgets, no failure
// timer).
// With the promotion guard on this must converge under every placement; the
// "buggy" param re-introduces the sec. 5 promote-during-copy bug, which the
// crash-driven failover rediscovers.
SYSTEST_REGISTER_SCENARIO(fabric_primary_crash_during_reconfig) {
  Scenario s;
  s.name = "fabric-primary-crash-during-reconfig";
  s.description =
      "sec. 5 Service Fabric reconfiguration (node add) with the primary "
      "under scheduler-controlled crashes while the build is pending";
  s.tags = {"fabric", "safety", "crash-recovery", "fixed"};
  s.params = {
      {"replicas", "replica count (default 3)"},
      {"client-ops", "acknowledged counter operations (default 4)"},
      {"value-space", "distinct operation values (default 3)"},
      {"added-nodes", "idle secondaries built at start (default 1)"},
      {"buggy", "re-introduce the promote-during-copy bug (default false)"},
  };
  s.make = [](const ParamMap& params) {
    ReconfigOptions options;
    options.replicas = params.GetUint("replicas", options.replicas);
    options.client_ops =
        static_cast<int>(params.GetUint("client-ops", options.client_ops));
    options.value_space =
        params.GetUint("value-space", options.value_space);
    options.added_nodes =
        params.GetUint("added-nodes", options.added_nodes);
    options.bugs.promote_during_copy = params.GetBool("buggy", false);
    return MakeReconfigHarness(options);
  };
  s.default_config = [] {
    systest::TestConfig config = DefaultConfig();
    // One fault-plane crash, permanent (the cluster launches a replacement;
    // the replica process itself never comes back).
    config.faults.max_crashes = 1;
    config.faults.max_restarts = 0;
    return config;
  };
  return s;
}

SYSTEST_REGISTER_SCENARIO(fabric_pipeline) {
  return Pipeline("fabric-pipeline",
                  "sec. 5 CScale-like pipeline, unguarded configuration "
                  "dereference",
                  /*buggy=*/true);
}

SYSTEST_REGISTER_SCENARIO(fabric_pipeline_fixed) {
  return Pipeline("fabric-pipeline-fixed",
                  "sec. 5 CScale-like pipeline with the configuration guard "
                  "(control)",
                  /*buggy=*/false);
}

}  // namespace
}  // namespace fabric
