// systest_run — command-line driver for the SysTest scenario registry.
//
// Entirely registry-driven: scenarios self-register from their domains
// (SYSTEST_REGISTER_SCENARIO) and strategies from StrategyRegistry, so this
// file carries no per-domain includes and no hardcoded harness table. Every
// run goes through the TestSession facade (serial, sharded-parallel,
// portfolio or replay alike).
//
// Examples:
//   systest_run --list
//   systest_run --list --tag buggy --json
//   systest_run --scenario samplerepl-safety --threads 4 --iterations 20000
//   systest_run --scenario race --strategy portfolio --trace-out bug.trace
//   systest_run --scenario race --replay bug.trace
//   systest_run --scenario chaintable-lost-update --param writers=3 --param ops=2
//   systest_run --all --iterations 50 --json        # CI smoke sweep
#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/reporters.h"
#include "api/scenario_registry.h"
#include "api/session.h"
#include "api/strategy_registry.h"

namespace {

using systest::StrategyRegistry;
using systest::api::JsonEscape;
using systest::api::ParamMap;
using systest::api::ParamSpec;
using systest::api::Scenario;
using systest::api::ScenarioRegistry;
using systest::api::SessionConfig;
using systest::api::SessionReport;
using systest::api::TestSession;

// ---------------------------------------------------------------------------
// Argument parsing: one table row per flag, writing straight into the
// SessionConfig the session runs. Only what the CLI itself consumes lives
// outside it.

/// CLI-only state: which scenarios to run and how to print their reports.
struct Cli {
  bool list = false;
  bool all = false;       // run every registered scenario
  std::string tag;        // with --list: filter; without: run all matching
  bool json = false;
  bool verbose = false;
  std::string trace_out;  // with --all / --tag: one file per scenario
  bool fingerprint_stats = false;
};

/// A malformed flag value; what() says what the flag expects.
struct BadValue : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Full-string, range-checked unsigned parse: "5x", "-3" and "" are errors.
std::uint64_t U64(const char* text, std::uint64_t min = 0,
                  std::uint64_t max = UINT64_MAX) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min || value > max) {
    throw BadValue(max == UINT64_MAX
                       ? "an integer >= " + std::to_string(min)
                       : "an integer in [" + std::to_string(min) + ", " +
                             std::to_string(max) + "]");
  }
  return value;
}

int Int(const char* text, int min, int max = INT_MAX) {
  return static_cast<int>(U64(text, static_cast<std::uint64_t>(min),
                              static_cast<std::uint64_t>(max)));
}

double Seconds(const char* text) {
  double value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) || value < 0) {
    throw BadValue("a finite number of seconds >= 0");
  }
  return value;
}

/// What a flag arms besides the field it writes. Budget flags imply the
/// plane they budget, as the usage says; fault, partition and corpus flags
/// (kExplore and after) are ignored under --replay, because the trace is the
/// whole schedule.
enum class Scope {
  kAlways,      ///< applies in every mode
  kStateful,    ///< implies --stateful
  kExplore,     ///< ignored under --replay
  kFaults,      ///< implies --faults; ignored under --replay
  kPartitions,  ///< implies --partitions; ignored under --replay
};

struct Flag {
  const char* name;
  /// The value's placeholder in the usage; nullptr for switches.
  const char* arg;
  Scope scope;
  /// Usage text, one '\n' per line break; nullptr keeps the flag out of the
  /// options list (the usage lines above it show it).
  const char* help;
  /// Writes the flag into the session or the CLI state; `value` is nullptr
  /// for switches.
  void (*write)(Cli& cli, SessionConfig& s, const char* value);
};

using enum Scope;

constexpr Flag kFlags[] = {
    {"--scenario", "<name>", kAlways,
     "registered scenario; see --list",
     [](auto&, auto& s, auto v) { s.scenario = v; }},
    {"--param", "k=v", kAlways,
     "scenario parameter (repeatable; see --list)",
     [](auto&, auto& s, auto v) { s.params.ParseAssign(v); }},
    {"--strategy", "<s>", kAlways,
     "registered strategy (budget suffix allowed, e.g.\n"
     "pct(5)), or portfolio to race the rotation",
     [](auto&, auto& s, auto v) { s.strategy = v; }},
    {"--threads", "<n>", kAlways,
     "worker threads (default: serial engine;\n"
     "portfolio defaults to max(6, hardware threads))",
     [](auto&, auto& s, auto v) { s.threads = Int(v, 0, 1024); }},
    {"--seed", "<n>", kAlways,
     "base seed (default: scenario default)",
     [](auto&, auto& s, auto v) { s.seed = U64(v); }},
    {"--iterations", "<n>", kAlways,
     "total execution budget, sharded across workers",
     [](auto&, auto& s, auto v) { s.iterations = U64(v, 1); }},
    {"--max-steps", "<n>", kAlways,
     "per-execution scheduling step bound",
     [](auto&, auto& s, auto v) { s.max_steps = U64(v, 1); }},
    {"--budget", "<n>", kAlways,
     "PCT priority change points / delay budget",
     [](auto&, auto& s, auto v) { s.strategy_budget = Int(v, 0); }},
    {"--time-budget", "<s>", kAlways,
     "wall-clock budget in seconds",
     [](auto&, auto& s, auto v) { s.time_budget_seconds = Seconds(v); }},
    {"--trace-out", "<f>", kAlways,
     "write the winning bug trace to <f> (with --all /\n"
     "--tag: one file per scenario, name suffixed)",
     [](auto& cli, auto&, auto v) { cli.trace_out = v; }},
    {"--replay", "<f>", kAlways,
     "replay a saved trace instead of exploring",
     [](auto&, auto& s, auto v) { s.replay_file = v; }},
    {"--faults", nullptr, kFaults,
     "enable scheduler-controlled fault injection;\n"
     "arms crash/restart 1/1 only if neither the\n"
     "scenario nor a flag below configures any fault",
     [](auto&, auto&, auto) {}},
    {"--max-crashes", "<n>", kFaults,
     "per-execution machine-crash budget (implies\n"
     "--faults)",
     [](auto&, auto& s, auto v) { s.max_crashes = U64(v); }},
    {"--max-restarts", "<n>", kFaults,
     "per-execution restart budget (implies --faults)",
     [](auto&, auto& s, auto v) { s.max_restarts = U64(v); }},
    {"--drop-den", "<n>", kFaults,
     "drop each delivery with probability 1/n\n"
     "(implies --faults)",
     [](auto&, auto& s, auto v) { s.drop_probability_den = U64(v); }},
    {"--max-dups", "<n>", kFaults,
     "per-execution message-duplication budget\n"
     "(implies --faults)",
     [](auto&, auto& s, auto v) { s.max_duplications = U64(v); }},
    {"--partitions", nullptr, kPartitions,
     "enable scheduler-controlled network partitions;\n"
     "arms a budget of 1 only if neither the scenario\n"
     "nor --max-partitions configures one",
     [](auto&, auto&, auto) {}},
    {"--max-partitions", "<n>", kPartitions,
     "per-execution partition budget (implies\n"
     "--partitions)",
     [](auto&, auto& s, auto v) { s.max_partitions = U64(v); }},
    {"--heal-den", "<n>", kPartitions,
     "heal each active partition with probability 1/n\n"
     "per step; 0 = partitions never heal (implies\n"
     "--partitions)",
     [](auto&, auto& s, auto v) { s.partition_heal_den = U64(v); }},
    {"--fault-points", "<n>", kExplore,
     "pre-sample <n> destructive-fault placement points\n"
     "from the step budget (PCT-style) instead of\n"
     "geometric per-step odds",
     [](auto&, auto& s, auto v) { s.fault_placement_points = Int(v, 0); }},
    {"--stateful", nullptr, kStateful,
     "fingerprint visited program states and prune\n"
     "executions that reconverge to them",
     [](auto&, auto&, auto) {}},
    {"--max-visited", "<n>", kStateful,
     "total distinct-state budget across both levels\n"
     "of the tiered visited set (default 1M; implies\n"
     "--stateful)",
     [](auto&, auto& s, auto v) { s.max_visited = U64(v); }},
    {"--max-visited-hot", "<n>", kStateful,
     "exact hot-level capacity; reaching it\n"
     "compacts the hot front into a sorted run behind\n"
     "a bloom filter (default 1M; implies --stateful)",
     [](auto&, auto& s, auto v) { s.max_visited_hot = U64(v); }},
    {"--visited-spill-dir", "<d>", kStateful,
     "write compacted runs to <d> as mmap-able\n"
     "files instead of keeping them in RAM (implies\n"
     "--stateful)",
     [](auto&, auto& s, auto v) { s.visited_spill_dir = v; }},
    {"--corpus-dir", "<d>", kExplore,
     "persist the trace corpus of interesting schedules\n"
     "to <d> and reload it next run; arms the corpus\n"
     "and implies --stateful (with --all / --tag: one\n"
     "subdirectory per scenario). Pair with\n"
     "--strategy mutate (or portfolio) to exploit it",
     [](auto&, auto& s, auto v) { s.corpus_dir = v; }},
    {"--corpus-max", "<n>", kExplore,
     "cap on stored corpus entries (default 1024)",
     [](auto&, auto& s, auto v) { s.corpus_max = U64(v); }},
    {"--progress", nullptr, kAlways,
     "live one-line progress telemetry on stderr\n"
     "(exec/s, distinct states, prune %, faults, ETA,\n"
     "per-worker rates)",
     [](auto&, auto& s, auto) { s.progress = true; }},
    {"--metrics-out", "<f>", kAlways,
     "append a JSONL metrics sample to <f> every\n"
     "interval (with --all / --tag: one file per\n"
     "scenario, name suffixed)",
     [](auto&, auto& s, auto v) { s.metrics_out = v; }},
    {"--metrics-interval", "<ms>", kAlways,
     "sampling interval (default 250)",
     [](auto&, auto& s, auto v) { s.metrics_interval_ms = U64(v, 1); }},
    {"--coverage", nullptr, kAlways,
     "print/emit the end-of-run coverage heatmap\n"
     "(state visits, unvisited declared states, event\n"
     "deliveries, fault placements)",
     [](auto&, auto& s, auto) { s.coverage = true; }},
    {"--fingerprint-stats", nullptr, kStateful,
     "print the detailed dedup breakdown after the\n"
     "run (implies --stateful)",
     [](auto& cli, auto&, auto) { cli.fingerprint_stats = true; }},
    {"--json", nullptr, kAlways,
     "machine-readable output (one JSON line per run)",
     [](auto& cli, auto&, auto) { cli.json = true; }},
    {"--verbose", nullptr, kAlways,
     "include the readable execution log on a bug",
     [](auto& cli, auto& s, auto) {
       cli.verbose = true;
       s.readable_trace_on_bug = true;
     }},
    {"--list", nullptr, kAlways, nullptr,
     [](auto& cli, auto&, auto) { cli.list = true; }},
    {"--all", nullptr, kAlways, nullptr,
     [](auto& cli, auto&, auto) { cli.all = true; }},
    {"--tag", "<tag>", kAlways, nullptr,
     [](auto& cli, auto&, auto v) { cli.tag = v; }},
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --scenario <name> [options]\n"
      "       %s --tag <tag> | --all [options]     run every matching scenario\n"
      "       %s --list [--tag <tag>] [--json]\n"
      "\n"
      "options:\n",
      argv0, argv0, argv0);
  for (const Flag& flag : kFlags) {
    if (flag.help == nullptr) continue;
    std::string head = flag.name;
    if (flag.arg != nullptr) head = head + ' ' + flag.arg;
    // Help text starts in column 21, or two spaces after a longer head.
    std::printf("  %-18s%s", head.c_str(), head.size() > 18 ? "  " : " ");
    for (const char* c = flag.help; *c != '\0'; ++c) {
      std::putchar(*c);
      if (*c == '\n') std::printf("%21s", "");
    }
    std::putchar('\n');
  }
}

bool ParseArgs(int argc, char** argv, Cli& cli, SessionConfig& config) {
  std::vector<std::pair<const Flag*, const char*>> given;
  bool replay = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      std::exit(0);
    }
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return arg == f.name; });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown argument %s\n", argv[i]);
      return false;
    }
    if (flag->arg != nullptr && i + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", flag->name);
      return false;
    }
    given.emplace_back(flag, flag->arg != nullptr ? argv[++i] : nullptr);
    replay |= arg == "--replay";
  }
  SessionConfig ignored;
  for (const auto& [flag, value] : given) {
    const Scope scope = flag->scope;
    SessionConfig& target = replay && scope >= kExplore ? ignored : config;
    if (scope == kStateful) target.stateful = true;
    if (scope == kFaults) target.faults = true;
    if (scope == kPartitions) target.partitions = true;
    try {
      flag->write(cli, target, value);
    } catch (const BadValue& error) {
      std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag->name,
                   error.what(), value);
      return false;
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// --list: produced entirely from the registries.

std::string JoinTags(const Scenario& scenario) {
  std::string out;
  for (const std::string& tag : scenario.tags) {
    if (!out.empty()) out += ',';
    out += tag;
  }
  return out;
}

void PrintList(const Cli& cli) {
  const auto scenarios = cli.tag.empty()
                             ? ScenarioRegistry::Instance().All()
                             : ScenarioRegistry::Instance().WithTag(cli.tag);
  if (cli.json) {
    std::string json = "{\"scenarios\":[";
    bool first = true;
    for (const Scenario* s : scenarios) {
      if (!first) json += ',';
      first = false;
      json += "{\"name\":\"" + JsonEscape(s->name) + "\",\"description\":\"" +
              JsonEscape(s->description) + "\",\"tags\":[";
      for (std::size_t i = 0; i < s->tags.size(); ++i) {
        if (i > 0) json += ',';
        json += '"' + JsonEscape(s->tags[i]) + '"';
      }
      json += "],\"params\":[";
      for (std::size_t i = 0; i < s->params.size(); ++i) {
        if (i > 0) json += ',';
        json += "{\"name\":\"" + JsonEscape(s->params[i].name) +
                "\",\"help\":\"" + JsonEscape(s->params[i].help) + "\"}";
      }
      json += "]}";
    }
    json += "],\"strategies\":[";
    bool sfirst = true;
    for (const auto& entry : StrategyRegistry::Instance().All()) {
      if (!sfirst) json += ',';
      sfirst = false;
      json += "{\"name\":\"" + JsonEscape(entry.name) + "\",\"description\":\"" +
              JsonEscape(entry.description) + "\"}";
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    return;
  }
  std::printf("registered scenarios%s:\n",
              cli.tag.empty() ? "" : (" [tag=" + cli.tag + "]").c_str());
  for (const Scenario* s : scenarios) {
    std::printf("  %-26s %s\n", s->name.c_str(), s->description.c_str());
    std::printf("  %-26s   tags: %s\n", "", JoinTags(*s).c_str());
    for (const ParamSpec& p : s->params) {
      std::printf("  %-26s   --param %s=...  %s\n", "", p.name.c_str(),
                  p.help.c_str());
    }
  }
  std::printf("\nregistered strategies (plus 'portfolio' to race them):\n");
  for (const auto& entry : StrategyRegistry::Instance().All()) {
    std::printf("  %-26s %s\n", entry.name.c_str(), entry.description.c_str());
  }
}

// ---------------------------------------------------------------------------
// Running one scenario through the TestSession facade.

/// With --all / --tag sweeps, "m.jsonl" becomes "m.<scenario>.jsonl" so each
/// scenario's time-series survives instead of the last run clobbering all.
std::string PerScenarioPath(const std::string& path,
                            const std::string& scenario) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + scenario;
  }
  return path.substr(0, dot) + "." + scenario + path.substr(dot);
}

int RunOne(const std::string& scenario, const Cli& cli, SessionConfig config,
           bool multi_scenario) {
  config.scenario = scenario;
  if (multi_scenario && !config.metrics_out.empty()) {
    config.metrics_out = PerScenarioPath(config.metrics_out, scenario);
  }
  if (multi_scenario && !config.corpus_dir.empty()) {
    // A subdirectory, not a name suffix: the corpus path is a directory, and
    // corpora from different scenarios must never mix (their traces replay
    // different machines).
    config.corpus_dir += "/" + scenario;
  }
  std::string trace_out = cli.trace_out;
  if (multi_scenario && !trace_out.empty()) {
    // Same fan-out as metrics: "bug.trace" becomes "bug.<scenario>.trace" so
    // each scenario's witness survives the sweep.
    trace_out = PerScenarioPath(trace_out, scenario);
  }
  TestSession session(std::move(config));
  systest::api::HumanReporter human(stdout, cli.verbose);
  systest::api::JsonReporter json(stdout);
  if (cli.json) {
    session.AddObserver(&json);
  } else {
    session.AddObserver(&human);
  }

  const SessionReport report = session.Run();

  // Gated on the REPORT's stateful flag, not the requested one: replay mode
  // never dedups, so printing zeros there would read as a measurement.
  if (cli.fingerprint_stats && !cli.json && report.report.stateful) {
    const systest::TestReport& r = report.report;
    std::printf(
        "fingerprint stats:\n"
        "  distinct states     %llu\n"
        "  pruned executions   %llu of %llu\n"
        "  fingerprint hits    %llu\n"
        "  fingerprint misses  %llu\n"
        "  hit rate            %.2f%%\n",
        static_cast<unsigned long long>(r.distinct_states),
        static_cast<unsigned long long>(r.pruned_executions),
        static_cast<unsigned long long>(r.executions),
        static_cast<unsigned long long>(r.fingerprint_hits),
        static_cast<unsigned long long>(r.fingerprint_misses),
        r.FingerprintHitRate() * 100.0);
    std::printf(
        "  hot entries         %llu\n"
        "  run entries         %llu in %llu runs\n"
        "  compactions         %llu (%llu merges writing %llu entries)\n"
        "  spilled             %llu runs, %llu bytes\n"
        "  bloom probes        %llu true-positive, %llu false-positive\n",
        static_cast<unsigned long long>(r.visited.hot_entries),
        static_cast<unsigned long long>(r.visited.run_entries),
        static_cast<unsigned long long>(r.visited.runs),
        static_cast<unsigned long long>(r.visited.compactions),
        static_cast<unsigned long long>(r.visited.merges),
        static_cast<unsigned long long>(r.visited.merged_entries),
        static_cast<unsigned long long>(r.visited.spilled_runs),
        static_cast<unsigned long long>(r.visited.spilled_bytes),
        static_cast<unsigned long long>(r.visited.bloom_true_positives),
        static_cast<unsigned long long>(r.visited.bloom_false_positives));
  }

  if (report.mode == "replay") {
    if (!report.replay_verified) return 1;  // reporter already explained
    return 0;
  }

  if (!trace_out.empty()) {
    // Status goes to stderr in --json mode so stdout stays one JSON line
    // per run.
    std::FILE* status = cli.json ? stderr : stdout;
    if (report.report.bug_found) {
      report.report.bug_trace.SaveFile(trace_out);
      std::fprintf(status, "bug trace written to %s (replay with --replay)\n",
                   trace_out.c_str());
    } else {
      std::fprintf(status, "no bug found; %s not written\n",
                   trace_out.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  SessionConfig config;
  if (!ParseArgs(argc, argv, cli, config)) {
    PrintUsage(argv[0]);
    return 2;
  }
  if (cli.list) {
    PrintList(cli);
    return 0;
  }

  std::vector<std::string> targets;
  if (!config.scenario.empty()) {
    targets.push_back(config.scenario);
  } else if (cli.all || !cli.tag.empty()) {
    const auto scenarios =
        cli.all ? ScenarioRegistry::Instance().All()
                : ScenarioRegistry::Instance().WithTag(cli.tag);
    for (const Scenario* s : scenarios) targets.push_back(s->name);
    if (targets.empty()) {
      std::fprintf(stderr, "error: no scenario carries tag '%s'\n",
                   cli.tag.c_str());
      return 2;
    }
  } else {
    PrintUsage(argv[0]);
    return 2;
  }
  int exit_code = 0;
  for (const std::string& target : targets) {
    if (targets.size() > 1 && !cli.json) {
      std::printf("=== %s ===\n", target.c_str());
    }
    try {
      const int code = RunOne(target, cli, config, targets.size() > 1);
      if (code != 0) exit_code = code;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      exit_code = 2;
    }
    if (targets.size() > 1 && !cli.json) std::printf("\n");
  }
  return exit_code;
}
