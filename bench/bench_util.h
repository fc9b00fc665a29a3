// Shared helpers for the SysTest benches: runs a harness under a scheduler
// with the paper's 100,000-execution budget and prints Table 2-style rows
// (BF?, time-to-bug in seconds, #NDC — the number of nondeterministic
// choices in the first execution that found the bug).
//
// Every bench accepts a `--json` flag (see ParseArgs): instead of
// the human-readable table it then emits one JSON object per row of the form
//   {"bench":..., "executions_per_sec":..., "steps_per_sec":..., "config":...}
// which CI's perf job keeps as an artifact for the benches it runs.
// Performance claims are judged by perfbench/, not by these rows.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/systest.h"

namespace bench {

/// The rally ball of the micro workloads: `n` counts the bounces so far
/// (PingPong) or still to go (parallel_speedup's paddles).
struct Ball final : systest::Event {
  explicit Ball(int n) : n(n) {}
  int n;
};

/// One side of a two-machine rally that bounces a Ball `rounds` times: the
/// raw scheduling-step workload (nearly every step is a delivery).
class PingPong final : public systest::Machine {
 public:
  /// Execution recycling: rounds_/serve_ are const-after-ctor and peer_ is
  /// patched exactly once at harness time (the machine OBJECT persists across
  /// resets, so the patch persists with it).
  static constexpr bool kReusableRuntime = true;

  PingPong(systest::MachineId peer, int rounds, bool serve)
      : peer_(peer), rounds_(rounds), serve_(serve) {
    State("Play").OnEntry(&PingPong::OnStart).On<Ball>(&PingPong::OnBall);
    SetStart("Play");
  }
  systest::MachineId peer_;

 private:
  void OnStart() {
    if (serve_) {
      Send<Ball>(peer_, 0);
    }
  }
  void OnBall(const Ball& ball) {
    if (ball.n < rounds_) {
      Send<Ball>(peer_, ball.n + 1);
    }
  }
  int rounds_;
  bool serve_;
};

/// Populates `rt` with a PingPong rally of `rounds` bounces.
inline void SetUpPingPong(systest::Runtime& rt, int rounds) {
  auto a = rt.CreateMachine<PingPong>("A", systest::MachineId{}, rounds, false);
  auto b = rt.CreateMachine<PingPong>("B", a, rounds, true);
  static_cast<PingPong*>(rt.FindMachine(a))->peer_ = b;
}

struct RowResult {
  bool found = false;
  double seconds = 0.0;
  std::uint64_t ndc = 0;
  std::uint64_t executions = 0;
  double executions_per_sec = 0.0;
  double steps_per_sec = 0.0;
};

/// Wall seconds elapsed since `start`.
inline double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Global output mode toggled by --json on any bench command line.
inline bool& JsonMode() {
  static bool json = false;
  return json;
}

/// Scans argv for --json; leaves positional arguments alone so existing
/// benches keep their ad-hoc argument parsing.
inline void ParseArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      JsonMode() = true;
    }
  }
}

/// Hardware context for every JSON config line: the machine's hardware
/// thread count plus the cores actually AVAILABLE to this process (cgroup /
/// affinity limited — CI containers routinely expose 1 of many). Numbers
/// from differently-sized boxes are not comparable; this makes the mismatch
/// visible in the committed baselines instead of a mystery regression.
inline std::string HardwareDescription() {
  unsigned available = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    available = static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return "hw_conc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cores=" + std::to_string(available);
}

/// Emits one machine-readable result line (see header comment).
inline void EmitJson(const std::string& name, double executions_per_sec,
                     double steps_per_sec, const std::string& config) {
  std::printf(
      "{\"bench\":\"%s\",\"executions_per_sec\":%.1f,"
      "\"steps_per_sec\":%.1f,\"config\":\"%s %s\"}\n",
      name.c_str(), executions_per_sec, steps_per_sec, config.c_str(),
      HardwareDescription().c_str());
  std::fflush(stdout);
}

/// One-line description of the engine configuration for the JSON output.
inline std::string DescribeConfig(const systest::TestConfig& config) {
  return config.strategy.str() +
         " iters=" + std::to_string(config.iterations) +
         " max_steps=" + std::to_string(config.max_steps) +
         " seed=" + std::to_string(config.seed);
}

/// Runs `harness` under `config` and prints one Table 2-style row (or one
/// JSON line in --json mode).
inline RowResult RunRow(const std::string& label,
                        const systest::TestConfig& config,
                        const systest::Harness& harness) {
  systest::TestingEngine engine(config, harness);
  const systest::TestReport report = engine.Run();
  RowResult row;
  row.found = report.bug_found;
  row.seconds = report.seconds_to_bug;
  row.ndc = report.ndc;
  row.executions = report.executions;
  if (report.total_seconds > 0) {
    row.executions_per_sec =
        static_cast<double>(report.executions) / report.total_seconds;
    row.steps_per_sec =
        static_cast<double>(report.total_steps) / report.total_seconds;
  }
  if (JsonMode()) {
    EmitJson(label, row.executions_per_sec, row.steps_per_sec,
             DescribeConfig(config) +
                 (report.bug_found ? " bug_found=1" : " bug_found=0"));
    return row;
  }
  if (report.bug_found) {
    std::printf("  %-42s  %-3s  %10.3f  %8llu   (iteration %llu)\n",
                label.c_str(), "yes", report.seconds_to_bug,
                static_cast<unsigned long long>(report.ndc),
                static_cast<unsigned long long>(report.bug_iteration));
  } else {
    std::printf("  %-42s  %-3s  %10s  %8s   (%llu executions)\n",
                label.c_str(), "no", "-", "-",
                static_cast<unsigned long long>(report.executions));
  }
  std::fflush(stdout);
  return row;
}

inline void PrintHeader(const std::string& title) {
  if (JsonMode()) {
    return;
  }
  std::printf("\n%s\n", title.c_str());
  std::printf("  %-42s  %-3s  %10s  %8s\n", "Bug Identifier", "BF?",
              "TimeToBug(s)", "#NDC");
  std::printf(
      "  ------------------------------------------  ---  ----------  "
      "--------\n");
  std::fflush(stdout);
}

}  // namespace bench
