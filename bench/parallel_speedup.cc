// Parallel exploration throughput: executions/sec vs worker count on the
// random-strategy micro harness (a clean ping-pong system, so the full
// iteration budget always runs — no early bug exit skews the rate).
//
// The workload is embarrassingly parallel (ISSUE/ROADMAP: each iteration is
// an independent serialized execution), so on a machine with >= 8 hardware
// threads the 8-worker row should show >= 3x the single-worker rate. On
// fewer cores the rate plateaus at the hardware parallelism — the table
// prints both the measured speedup and the detected core count so results
// are interpretable anywhere.
//
// Usage: parallel_speedup [iterations-per-worker-count] (default 4000)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/systest.h"
#include "explore/parallel_engine.h"

namespace {

using bench::Ball;
using systest::Machine;
using systest::MachineId;

/// Two paddles bounce a ball a fixed number of times, with a nondet choice
/// per bounce to exercise the trace path; the system always quiesces.
class Paddle final : public Machine {
 public:
  Paddle() {
    State("Play").On<Ball>(&Paddle::OnBall);
    SetStart("Play");
  }

  void SetPeer(MachineId peer) { peer_ = peer; }

 private:
  void OnBall(const Ball& ball) {
    if (ball.n <= 0) return;  // n counts the bounces still to go
    (void)NondetBool();
    Send<Ball>(peer_, ball.n - 1);
  }
  MachineId peer_;
};

class Server final : public Machine {
 public:
  Server() {
    State("Init").OnEntry(&Server::OnStart).On<Ball>(&Server::OnBall);
    SetStart("Init");
  }

 private:
  void OnStart() {
    // Two independent rallies so there is real scheduling nondeterminism.
    for (int rally = 0; rally < 2; ++rally) {
      auto a = Create<Paddle>("PaddleA" + std::to_string(rally));
      auto b = Create<Paddle>("PaddleB" + std::to_string(rally));
      auto* pa = static_cast<Paddle*>(Rt().FindMachine(a));
      auto* pb = static_cast<Paddle*>(Rt().FindMachine(b));
      pa->SetPeer(b);
      pb->SetPeer(a);
      Send<Ball>(a, 16);
    }
  }
  void OnBall(const Ball&) {}
};

systest::Harness PingPongHarness() {
  return [](systest::Runtime& rt) { rt.CreateMachine<Server>("Server"); };
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);
  std::uint64_t iterations = 4'000;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") continue;
    iterations = std::strtoull(argv[i], nullptr, 10);
    break;
  }

  if (!bench::JsonMode()) {
    std::printf("parallel exploration speedup — random strategy, ping-pong "
                "micro harness\n");
    std::printf("budget: %llu executions per row; hardware threads: %u\n\n",
                static_cast<unsigned long long>(iterations),
                std::thread::hardware_concurrency());
    std::printf("  %-8s  %12s  %12s  %10s  %8s\n", "workers", "executions",
                "exec/sec", "wall(s)", "speedup");
    std::printf(
        "  --------  ------------  ------------  ----------  --------\n");
  }

  double base_rate = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    systest::TestConfig config;
    config.iterations = iterations;
    config.max_steps = 1'000;
    config.seed = 99;
    config.strategy = "random";
    config.stop_on_first_bug = true;  // clean harness: never triggers

    systest::explore::ParallelOptions options;
    options.threads = workers;
    options.verify_replay = false;
    systest::explore::ParallelTestingEngine engine(config, PingPongHarness(),
                                                   options);
    const systest::explore::ParallelTestReport report = engine.Run();
    const double rate =
        report.aggregate.total_seconds > 0
            ? static_cast<double>(report.aggregate.executions) /
                  report.aggregate.total_seconds
            : 0.0;
    if (workers == 1) base_rate = rate;
    if (bench::JsonMode()) {
      const double steps_rate =
          report.aggregate.total_seconds > 0
              ? static_cast<double>(report.aggregate.total_steps) /
                    report.aggregate.total_seconds
              : 0.0;
      bench::EmitJson("parallel_speedup/workers=" + std::to_string(workers),
                      rate, steps_rate,
                      "random iters=" + std::to_string(iterations) +
                          " max_steps=1000 seed=99");
    } else {
      std::printf("  %-8d  %12llu  %12.0f  %10.3f  %7.2fx\n", workers,
                  static_cast<unsigned long long>(report.aggregate.executions),
                  rate, report.aggregate.total_seconds,
                  base_rate > 0 ? rate / base_rate : 0.0);
    }
    if (report.aggregate.bug_found) {
      // stderr: keeps the stdout JSON-lines stream parseable in --json mode.
      std::fprintf(stderr, "unexpected bug: %s\n",
                   report.aggregate.bug_message.c_str());
      return 1;
    }
  }
  if (!bench::JsonMode()) {
    std::printf("\n(speedup tracks min(workers, hardware threads); the "
                "schedule spaces explored by each row are identical unions of "
                "disjoint per-worker seed ranges)\n");
  }
  return 0;
}
