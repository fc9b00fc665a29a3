// Scenario registrations for the §2.2 worked example: the seeded safety bug
// (non-unique replica count), the seeded liveness bug (no counter reset) and
// the fixed control.
#include "api/scenario_registry.h"
#include "samplerepl/harness.h"

namespace samplerepl {
namespace {

using systest::api::ParamMap;
using systest::api::ParamSpec;
using systest::api::Scenario;

HarnessOptions OptionsFrom(const ParamMap& params) {
  HarnessOptions options;
  options.num_nodes = params.GetUint("nodes", options.num_nodes);
  options.replica_target =
      params.GetUint("replica-target", options.replica_target);
  options.num_requests = params.GetUint("requests", options.num_requests);
  options.value_space = params.GetUint("value-space", options.value_space);
  options.timer_rounds = params.GetUint("timer-rounds", options.timer_rounds);
  return options;
}

std::vector<ParamSpec> Params() {
  return {
      {"nodes", "storage nodes (default 3)"},
      {"replica-target", "replicas required before Ack (default 3)"},
      {"requests", "client requests (default 2; bug 2 needs at least 2)"},
      {"value-space", "distinct payload values per request (default 2)"},
      {"timer-rounds", "sync-timer rounds per node (default 0 = unbounded)"},
  };
}

Scenario Base(const char* name, const char* description, const char* extra_tag,
              ServerBugs bugs) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.tags = {"samplerepl", extra_tag};
  s.tags.emplace_back(bugs.non_unique_replica_count || bugs.no_counter_reset
                          ? "buggy"
                          : "fixed");
  s.params = Params();
  s.make = [bugs](const ParamMap& params) {
    HarnessOptions options = OptionsFrom(params);
    options.bugs = bugs;
    return MakeHarness(options);
  };
  s.default_config = [] { return DefaultConfig(); };
  return s;
}

SYSTEST_REGISTER_SCENARIO(samplerepl_safety) {
  ServerBugs bugs;
  bugs.non_unique_replica_count = true;
  return Base("samplerepl-safety",
              "sec. 2.2 example, seeded safety bug (non-unique replica count)",
              "safety", bugs);
}

SYSTEST_REGISTER_SCENARIO(samplerepl_liveness) {
  ServerBugs bugs;
  bugs.no_counter_reset = true;
  return Base("samplerepl-liveness",
              "sec. 2.2 example, seeded liveness bug (no replica counter reset)",
              "liveness", bugs);
}

SYSTEST_REGISTER_SCENARIO(samplerepl_fixed) {
  return Base("samplerepl-fixed", "sec. 2.2 example with both bugs fixed (control)",
              "safety", ServerBugs{});
}

// Crash-recovery scenario (fault plane): the FIXED server under
// scheduler-controlled storage-node crashes. The server's replica accounting
// has no notion of node failure, so a node that crashes (losing its
// in-memory log) after its sync was counted stays counted — the server acks
// with fewer real replicas than the target. A genuine protocol flaw that
// only failure interleavings expose; the witness trace carries the crash
// schedule and replays without any fault flags.
SYSTEST_REGISTER_SCENARIO(samplerepl_node_crash) {
  Scenario s;
  s.name = "samplerepl-node-crash";
  s.description =
      "sec. 2.2 example, fixed server under scheduler-controlled node "
      "crashes: replica accounting ignores failures";
  s.tags = {"samplerepl", "safety", "crash-recovery", "buggy"};
  s.params = Params();
  s.make = [](const ParamMap& params) {
    HarnessOptions options = OptionsFrom(params);
    options.bugs = ServerBugs{};  // both seeded bugs FIXED
    options.crashable_nodes = true;
    // Liveness is intentionally unmonitored: under unrestricted crashes a
    // dead quorum legitimately blocks progress, and the interesting property
    // here is the SAFETY of the ack.
    options.liveness_monitor = false;
    return MakeHarness(options);
  };
  s.default_config = [] {
    systest::TestConfig config = DefaultConfig();
    config.faults.max_crashes = 1;
    config.faults.max_restarts = 1;
    return config;
  };
  return s;
}

// Partition scenario (fault plane): the FIXED server with the storage nodes
// opted in as partition candidates. The strategy may isolate one node at any
// step boundary (store requests, sync responses and even its own timer's
// ticks are then dropped) and heal it at a later, separately chosen point.
// Partitions can only REMOVE deliveries, so the fixed server must stay safe
// under every placement: an Ack still requires the target number of genuine
// store acknowledgements, and the safety monitor checks that ground truth.
// Liveness is intentionally unmonitored — a partition the strategy never
// heals legitimately blocks progress. The witness trace (v3) carries the
// partition-and-heal schedule and replays without any fault flags.
SYSTEST_REGISTER_SCENARIO(samplerepl_partition_heal) {
  Scenario s;
  s.name = "samplerepl-partition-heal";
  s.description =
      "sec. 2.2 example, fixed server under scheduler-controlled node "
      "partition and heal";
  s.tags = {"samplerepl", "safety", "partition", "fixed"};
  s.params = Params();
  s.make = [](const ParamMap& params) {
    HarnessOptions options = OptionsFrom(params);
    options.bugs = ServerBugs{};  // both seeded bugs FIXED
    options.partitionable_nodes = true;
    options.liveness_monitor = false;
    return MakeHarness(options);
  };
  s.default_config = [] {
    systest::TestConfig config = DefaultConfig();
    config.faults.max_partitions = 1;  // heal odds stay at the engine default
    return config;
  };
  return s;
}

}  // namespace
}  // namespace samplerepl
