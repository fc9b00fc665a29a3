// Tests for the scenario/strategy registries and ParamMap: duplicate-name
// rejection, tag filtering, parameter round-trips, helpful unknown-name
// errors, and — the catalog's health check — every built-in scenario
// constructing and running a short exploration through TestSession.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "api/param_map.h"
#include "api/scenario_registry.h"
#include "api/session.h"
#include "api/strategy_registry.h"

namespace {

using systest::StrategyRegistry;
using systest::api::ParamMap;
using systest::api::Scenario;
using systest::api::ScenarioRegistry;
using systest::api::SessionConfig;
using systest::api::SessionReport;
using systest::api::TestSession;

// ---------------------------------------------------------------------------
// ScenarioRegistry.

TEST(ScenarioRegistry, ListsEveryBuiltinScenario) {
  const auto names = ScenarioRegistry::Instance().Names();
  const std::set<std::string> set(names.begin(), names.end());
  // Every name the pre-registry CLI knew must still be registered.
  for (const char* name :
       {"race", "samplerepl-safety", "samplerepl-liveness", "samplerepl-fixed",
        "fabric-failover", "fabric-pipeline", "mtable-backupnewstream",
        "vnext-liveness",
        // New with the registry:
        "chaintable-lost-update", "chaintable-cas", "vnext-fixed"}) {
    EXPECT_TRUE(set.contains(name)) << name;
  }
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  Scenario dup;
  dup.name = "race";  // already registered by src/api/scenarios.cc
  dup.description = "imposter";
  dup.make = [](const ParamMap&) { return systest::Harness{}; };
  EXPECT_THROW(ScenarioRegistry::Instance().Register(std::move(dup)),
               std::logic_error);
}

TEST(ScenarioRegistry, RejectsUnnamedAndFactorylessScenarios) {
  Scenario unnamed;
  unnamed.make = [](const ParamMap&) { return systest::Harness{}; };
  EXPECT_THROW(ScenarioRegistry::Instance().Register(std::move(unnamed)),
               std::logic_error);

  Scenario factoryless;
  factoryless.name = "no-factory";
  EXPECT_THROW(ScenarioRegistry::Instance().Register(std::move(factoryless)),
               std::logic_error);
}

TEST(ScenarioRegistry, UnknownNameErrorListsRegisteredScenarios) {
  try {
    (void)ScenarioRegistry::Instance().Get("definitely-not-registered");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("definitely-not-registered"), std::string::npos);
    EXPECT_NE(what.find("race"), std::string::npos)
        << "the error should list registered scenarios: " << what;
  }
}

TEST(ScenarioRegistry, TagFilteringSelectsByDomainAndDefectClass) {
  const auto& registry = ScenarioRegistry::Instance();

  std::set<std::string> samplerepl;
  for (const Scenario* s : registry.WithTag("samplerepl")) {
    samplerepl.insert(s->name);
  }
  EXPECT_EQ(samplerepl,
            (std::set<std::string>{
                "samplerepl-safety", "samplerepl-liveness", "samplerepl-fixed",
                "samplerepl-node-crash", "samplerepl-partition-heal"}));

  for (const Scenario* s : registry.WithTag("buggy")) {
    EXPECT_FALSE(s->HasTag("fixed")) << s->name;
  }
  EXPECT_FALSE(registry.WithTag("buggy").empty());
  EXPECT_FALSE(registry.WithTag("liveness").empty());
  EXPECT_FALSE(registry.WithTag("partition").empty());
  EXPECT_FALSE(registry.WithTag("crash-recovery").empty());
  EXPECT_TRUE(registry.WithTag("no-such-tag").empty());
}

// ---------------------------------------------------------------------------
// StrategyRegistry.

TEST(StrategyRegistry, BuiltinsAreRegistered) {
  const auto& registry = StrategyRegistry::Instance();
  for (const char* name : {"random", "pct", "round-robin", "delay-bounded"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
  EXPECT_EQ(registry.Create("pct", 7, 3)->Name(), "pct(3)");
}

TEST(StrategyRegistry, BudgetSuffixOverridesConfiguredBudget) {
  const auto& registry = StrategyRegistry::Instance();
  EXPECT_EQ(registry.Create("pct(5)", 7, 2)->Name(), "pct(5)");
  EXPECT_EQ(registry.Create("delay-bounded(9)", 7, 2)->Name(),
            "delay-bounded(9)");
  // An oversized suffix must keep the documented invalid_argument contract
  // (std::stoi alone would leak std::out_of_range with message "stoi").
  try {
    (void)registry.Create("pct(99999999999)", 7, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("pct(99999999999)"),
              std::string::npos)
        << error.what();
  }
}

TEST(StrategyRegistry, UnknownNameErrorListsRegisteredStrategies) {
  try {
    (void)StrategyRegistry::Instance().Create("simulated-annealing", 0, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("simulated-annealing"), std::string::npos);
    EXPECT_NE(what.find("random"), std::string::npos) << what;
    EXPECT_NE(what.find("delay-bounded"), std::string::npos) << what;
  }
}

TEST(StrategyRegistry, RejectsDuplicateAndMalformedRegistrations) {
  auto factory = [](std::uint64_t seed, int) {
    return std::make_unique<systest::RandomStrategy>(seed);
  };
  EXPECT_THROW(StrategyRegistry::Instance().Register("random", "dup", factory),
               std::logic_error);
  EXPECT_THROW(StrategyRegistry::Instance().Register("", "empty", factory),
               std::logic_error);
  EXPECT_THROW(
      StrategyRegistry::Instance().Register("bad(name)", "paren", factory),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// ParamMap.

TEST(ParamMap, TypedGettersWithDefaults) {
  ParamMap params;
  params.ParseAssign("writers=3");
  params.ParseAssign("blind=true");
  params.ParseAssign("rate=2.5");
  params.ParseAssign("label=hot-path");

  EXPECT_EQ(params.GetUint("writers", 1), 3u);
  EXPECT_EQ(params.GetUint("absent", 7), 7u);
  EXPECT_TRUE(params.GetBool("blind"));
  EXPECT_FALSE(params.GetBool("absent", false));
  EXPECT_DOUBLE_EQ(params.GetDouble("rate"), 2.5);
  EXPECT_EQ(params.GetString("label"), "hot-path");
  EXPECT_EQ(params.GetInt("writers"), 3);
}

TEST(ParamMap, RoundTripsThroughToString) {
  ParamMap params;
  params.Set("b", "2");
  params.Set("a", "1");
  params.Set("zz-top", "yes");
  EXPECT_EQ(params.ToString(), "a=1,b=2,zz-top=yes");  // sorted keys
  EXPECT_EQ(ParamMap::Parse(params.ToString()), params);
  EXPECT_EQ(ParamMap::Parse(""), ParamMap{});
}

TEST(ParamMap, RejectsMalformedInput) {
  ParamMap params;
  EXPECT_THROW(params.ParseAssign("no-equals"), std::invalid_argument);
  EXPECT_THROW(params.ParseAssign("=value"), std::invalid_argument);
  params.Set("n", "twelve");
  EXPECT_THROW((void)params.GetUint("n"), std::invalid_argument);
  params.Set("b", "maybe");
  EXPECT_THROW((void)params.GetBool("b"), std::invalid_argument);
  // std::stoull would wrap "-1" to 2^64-1; a negative count is always a
  // caller mistake and must be rejected, not turned into ~1.8e19 machines.
  params.Set("neg", "-1");
  EXPECT_THROW((void)params.GetUint("neg"), std::invalid_argument);
  EXPECT_EQ(params.GetInt("neg"), -1);  // the signed getter still accepts it
}

// ---------------------------------------------------------------------------
// TestConfig::Validate.

TEST(TestConfigValidate, RejectsConfigurationsThatExploreNothing) {
  systest::TestConfig config;
  config.Validate();  // defaults are fine

  systest::TestConfig zero_iters = config;
  zero_iters.iterations = 0;
  EXPECT_THROW(zero_iters.Validate(), std::invalid_argument);

  systest::TestConfig zero_steps = config;
  zero_steps.max_steps = 0;
  EXPECT_THROW(zero_steps.Validate(), std::invalid_argument);

  systest::TestConfig negative_budget = config;
  negative_budget.time_budget_seconds = -1;
  EXPECT_THROW(negative_budget.Validate(), std::invalid_argument);

  systest::TestConfig hot_threshold = config;
  hot_threshold.max_steps = 100;
  hot_threshold.liveness_temperature_threshold = 101;
  EXPECT_THROW(hot_threshold.Validate(), std::invalid_argument);

  systest::TestConfig no_strategy = config;
  no_strategy.strategy = "";
  EXPECT_THROW(no_strategy.Validate(), std::invalid_argument);
}

TEST(TestConfigValidate, TestSessionFailsFastOnMisconfiguration) {
  SessionConfig config;
  config.scenario = "race";
  config.iterations = 0;
  EXPECT_THROW(TestSession(config).Run(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Catalog health: every registered scenario constructs its harness with
// default parameters and survives a short exploration through TestSession.
// Catches scenarios that break at static-init, at harness construction, or
// on their first scheduling steps.

TEST(ScenarioCatalog, EveryScenarioConstructsAndRunsTenIterations) {
  for (const Scenario* scenario : ScenarioRegistry::Instance().All()) {
    SCOPED_TRACE(scenario->name);
    ASSERT_TRUE(scenario->default_config != nullptr) << scenario->name;
    SessionConfig config;
    config.scenario = scenario->name;
    config.iterations = 10;
    const SessionReport report = TestSession(config).Run();
    EXPECT_EQ(report.scenario, scenario->name);
    EXPECT_EQ(report.mode, "serial");
    EXPECT_GE(report.report.executions, 1u);
    EXPECT_GT(report.report.total_steps, 0u);
  }
}

}  // namespace
