// Scenario registrations for the Live Table Migration case study (§4): the
// marquee QueryStreamedBackUpNewStream bug, the fixed control, and a generic
// parameterized scenario that re-introduces any Table 2 bug by name.
#include "api/scenario_registry.h"
#include "mtable/harness.h"

namespace mtable {
namespace {

using systest::api::ParamMap;
using systest::api::ParamSpec;
using systest::api::Scenario;

MigrationHarnessOptions OptionsFrom(const ParamMap& params) {
  MigrationHarnessOptions options;
  options.num_services =
      static_cast<int>(params.GetUint("services", options.num_services));
  options.ops_per_service = static_cast<int>(
      params.GetUint("ops-per-service", options.ops_per_service));
  options.value_space = params.GetUint("value-space", options.value_space);
  return options;
}

std::vector<ParamSpec> Params() {
  return {
      {"services", "concurrent service machines (default 2)"},
      {"ops-per-service", "nondeterministic operations each (default 4)"},
      {"value-space", "distinct property values (default 3)"},
  };
}

SYSTEST_REGISTER_SCENARIO(mtable_backupnewstream) {
  Scenario s;
  s.name = "mtable-backupnewstream";
  s.description =
      "sec. 4 MigratingTable, QueryStreamedBackUpNewStream (marquee sec. 6.2 bug)";
  s.tags = {"mtable", "safety", "buggy"};
  s.params = Params();
  s.make = [](const ParamMap& params) {
    MigrationHarnessOptions options = OptionsFrom(params);
    options.bugs.query_streamed_backup_new_stream = true;
    return MakeMigrationHarness(options);
  };
  s.default_config = [] { return DefaultConfig(); };
  return s;
}

// Crash-recovery scenario (fault plane): the FIXED migration protocol with
// the migrator job itself handed to the fault plane — the scheduler decides
// whether and where the job dies (SetCrashable +
// TestConfig::faults.max_crashes), including mid-copy and mid-delete; the
// driver launches a fresh job that must converge from the persisted
// partition state while services keep operating. The differential checker
// and the completion liveness monitor judge every crash placement.
SYSTEST_REGISTER_SCENARIO(mtable_migrator_crash_mid_move) {
  Scenario s;
  s.name = "mtable-migrator-crash-mid-move";
  s.description =
      "sec. 4 fixed MigratingTable protocol under scheduler-controlled "
      "migrator-job crashes (driver relaunches the job mid-move)";
  s.tags = {"mtable", "safety", "crash-recovery", "fixed"};
  s.params = Params();
  s.make = [](const ParamMap& params) {
    MigrationHarnessOptions options = OptionsFrom(params);
    options.crashable_migrator = true;
    return MakeMigrationHarness(options);
  };
  s.default_config = [] {
    systest::TestConfig config = DefaultConfig();
    // One job crash per execution; the job never restarts in place — the
    // driver's relaunch is the recovery path.
    config.faults.max_crashes = 1;
    config.faults.max_restarts = 0;
    return config;
  };
  return s;
}

SYSTEST_REGISTER_SCENARIO(mtable_migration) {
  Scenario s;
  s.name = "mtable-migration";
  s.description =
      "sec. 4 MigratingTable differential harness; re-introduce any Table 2 "
      "bug via bug=<Name> (default: fixed protocol)";
  s.tags = {"mtable", "safety", "fixed"};
  std::vector<ParamSpec> params = Params();
  params.push_back(
      {"bug", "Table 2 bug name to re-introduce (default none; see "
              "`live_migration list`)"});
  s.params = std::move(params);
  s.make = [](const ParamMap& params) {
    MigrationHarnessOptions options = OptionsFrom(params);
    const std::string bug = params.GetString("bug");
    if (!bug.empty()) {
      bool found = false;
      for (const MTableBugId id : kAllMTableBugs) {
        if (bug == ToString(id)) {
          options.bugs = EnableBug(id);
          found = true;
          break;
        }
      }
      if (!found) {
        std::string known;
        for (const MTableBugId id : kAllMTableBugs) {
          if (!known.empty()) known += ", ";
          known += std::string(ToString(id));
        }
        throw std::invalid_argument("unknown mtable bug '" + bug +
                                    "'; Table 2 bugs: " + known);
      }
    }
    return MakeMigrationHarness(options);
  };
  s.default_config = [] { return DefaultConfig(); };
  return s;
}

}  // namespace
}  // namespace mtable
