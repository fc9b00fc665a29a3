// Runtime hot-path microbench. Measures the serialized execution core the
// way the paper's 100k-execution budgets stress it:
//
//   pingpong_steps    raw scheduling-step throughput (send/dequeue/dispatch)
//                     on a two-machine rally (bench::PingPong)
//   samplerepl_exec   whole-execution throughput (setup + run to quiescence
//                     + teardown) of the §2.2 case-study harness under the
//                     random scheduler — the table2 throughput metric
//
// Usage: micro_steps [--json] [pingpong-execs] [samplerepl-iters]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/systest.h"
#include "samplerepl/harness.h"

namespace {

using Clock = std::chrono::steady_clock;
using bench::Seconds;

void RunPingPong(std::uint64_t executions) {
  const int rounds = 1000;
  // Execution recycling: one Runtime + one event arena serve the whole
  // budget (the ExecutionRunner probes the first execution, seals it, and
  // reset-reuses from then on) — the same path TestingEngine takes.
  systest::TestConfig config;
  config.iterations = executions;
  config.max_steps = 1'000'000;
  config.seed = 42;
  config.strategy = "random";
  const systest::Harness harness = [rounds](systest::Runtime& rt) {
    bench::SetUpPingPong(rt, rounds);
  };
  systest::RandomStrategy strategy(config.seed);
  systest::ExecutionRunner runner(config, harness, strategy, nullptr);
  std::uint64_t steps = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < executions; ++i) {
    steps += runner.RunOne(i, nullptr).steps;
  }
  const double seconds = Seconds(start);
  const double steps_per_sec = seconds > 0 ? steps / seconds : 0.0;
  const double exec_per_sec = seconds > 0 ? executions / seconds : 0.0;
  if (bench::JsonMode()) {
    bench::EmitJson("pingpong_steps", exec_per_sec, steps_per_sec,
                    "random rounds=" + std::to_string(rounds) +
                        " execs=" + std::to_string(executions));
  } else {
    std::printf("  %-18s  %12.0f steps/s  %10.1f exec/s  (%llu execs, %.3fs)\n",
                "pingpong_steps", steps_per_sec, exec_per_sec,
                static_cast<unsigned long long>(executions), seconds);
  }
}

void RunSampleRepl(std::uint64_t iterations) {
  systest::TestConfig config;
  config.iterations = iterations;
  config.max_steps = 2'000;
  config.seed = 42;
  config.strategy = "random";
  systest::TestingEngine engine(
      config, samplerepl::MakeHarness(samplerepl::HarnessOptions{}));
  const systest::TestReport report = engine.Run();
  const double exec_per_sec =
      report.total_seconds > 0 ? report.executions / report.total_seconds : 0.0;
  const double steps_per_sec =
      report.total_seconds > 0 ? report.total_steps / report.total_seconds
                               : 0.0;
  if (bench::JsonMode()) {
    bench::EmitJson("samplerepl_exec", exec_per_sec, steps_per_sec,
                    bench::DescribeConfig(config));
  } else {
    std::printf("  %-18s  %12.0f steps/s  %10.1f exec/s  (%llu execs, %.3fs)\n",
                "samplerepl_exec", steps_per_sec, exec_per_sec,
                static_cast<unsigned long long>(report.executions),
                report.total_seconds);
  }
  if (report.bug_found) {
    // stderr: keeps the stdout JSON-lines stream parseable in --json mode.
    std::fprintf(stderr, "unexpected bug: %s\n", report.bug_message.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);
  std::vector<std::uint64_t> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") continue;
    positional.push_back(std::strtoull(argv[i], nullptr, 10));
  }
  const std::uint64_t pingpong_execs =
      positional.size() > 0 ? positional[0] : 500;
  const std::uint64_t samplerepl_iters =
      positional.size() > 1 ? positional[1] : 5'000;
  if (!bench::JsonMode()) {
    std::printf("runtime hot-path microbench\n");
  }
  RunPingPong(pingpong_execs);
  RunSampleRepl(samplerepl_iters);
  return 0;
}
