// perfbench runner: runs the campaigns of one benchmark workload.
//
// Reads one campaign per line from stdin (key=value tokens, generated by
// run.py from the workload seed), runs each through the public API the way
// a user does, checks its verdict, and prints one JSON object per campaign
// followed by a summary line. With --trace 1 every campaign is also run
// through the traced loop (layers.h) and its counts are compared with the
// untraced run; the summary then carries the per-layer totals. An untraced
// run makes as many passes over the campaign list as the campaigns ask for
// and reports every pass's timings.
//
// The timings the end-to-end metrics come from (set-up, the campaign, its
// exploration, replay) are the process's CPU time over the interval, not
// wall time: every campaign runs on one thread, where the two agree on an
// idle host, and CPU time leaves out the time a shared host gives to other
// tenants (the kernel also leaves out time stolen by the hypervisor).
//
//   perfbench_runner --trace 0|1 --work-dir <dir> [--spans <file>]
//                    < campaigns
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/scenario_registry.h"
#include "api/session.h"
#include "core/bug.h"
#include "core/engine.h"
#include "core/strategy.h"
#include "corpus/trace_corpus.h"
#include "explore/parallel_engine.h"
#include "layers.h"

namespace {

using perfbench::NowNs;
using systest::Trace;
using systest::api::SessionConfig;
using systest::api::SessionReport;
namespace fs = std::filesystem;

/// One campaign as run.py generated it.
struct Campaign {
  std::uint64_t id = 0;
  bool expect_bug = false;
  std::string scenario;
  std::string strategy = "random";
  std::uint64_t seed = 0;
  std::uint64_t iterations = 0;
  bool stateful = false;
  bool payloads = false;
  std::uint64_t max_visited = 0;
  std::uint64_t max_visited_hot = 0;
  /// Traced runs only: also run the campaign on this many workers through
  /// ParallelTestingEngine::Run, for the explore layer's metrics.
  int explore_threads = 0;
  bool metrics = false;
  /// Untraced runs time the campaign this many times, once per pass.
  int passes = 1;
  bool corpus = false;
  systest::api::ParamMap params;
};

std::uint64_t ToU64(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(value, &used);
  if (used != value.size()) {
    throw std::invalid_argument("bad number for " + key + ": " + value);
  }
  return v;
}

Campaign ParseCampaign(const std::string& line) {
  Campaign c;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("campaign token without '=': " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "id") c.id = ToU64(key, value);
    else if (key == "expect") c.expect_bug = value == "bug";
    else if (key == "scenario") c.scenario = value;
    else if (key == "strategy") c.strategy = value;
    else if (key == "seed") c.seed = ToU64(key, value);
    else if (key == "iterations") c.iterations = ToU64(key, value);
    else if (key == "stateful") c.stateful = value == "1";
    else if (key == "payloads") c.payloads = value == "1";
    else if (key == "max_visited") c.max_visited = ToU64(key, value);
    else if (key == "max_visited_hot") c.max_visited_hot = ToU64(key, value);
    else if (key == "explore_threads") {
      c.explore_threads = static_cast<int>(ToU64(key, value));
    }
    else if (key == "metrics") c.metrics = value == "1";
    else if (key == "passes") c.passes = static_cast<int>(ToU64(key, value));
    else if (key == "corpus") c.corpus = value == "1";
    else if (key.rfind("param.", 0) == 0) c.params.Set(key.substr(6), value);
    else throw std::invalid_argument("unknown campaign key: " + key);
  }
  if (c.scenario.empty() || c.iterations == 0 || c.passes < 1) {
    throw std::invalid_argument(
        "campaign needs scenario, iterations and passes >= 1: " + line);
  }
  return c;
}

/// The campaign's session. A guided campaign keeps its corpus in memory.
SessionConfig MakeSession(const Campaign& c) {
  SessionConfig s;
  s.scenario = c.scenario;
  s.strategy = c.strategy;
  s.params = c.params;
  s.seed = c.seed;
  s.iterations = c.iterations;
  s.stop_on_first_bug = true;
  if (c.stateful) {
    s.stateful = true;
    s.max_visited = c.max_visited;
    s.max_visited_hot = c.max_visited_hot;
  }
  if (c.payloads) s.fingerprint_payloads = true;
  s.metrics = c.metrics;
  return s;
}

/// A fresh, empty directory for one corpus.
std::string FreshDir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

double Seconds(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Peak resident set of this process image, in KiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss would not do: across exec it
/// keeps the high-water mark of the process that forked the runner.
std::uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// CPU time of the whole process, in nanoseconds.
std::uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double CpuSeconds(std::uint64_t start_cpu_ns) {
  return static_cast<double>(CpuNs() - start_cpu_ns) / 1e9;
}

/// How fast the host runs code right now: nanoseconds of CPU time per step
/// of a pointer chase around a fixed 256 KiB ring, sampled between
/// campaigns. Other tenants of a shared host slow the program and this loop
/// alike; the benchmark's own code, it does not change with the program.
class HostSpeed {
 public:
  HostSpeed() : next_(kEntries) {
    // Sattolo's shuffle: one cycle through every entry.
    for (std::uint32_t i = 0; i < kEntries; ++i) next_[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// The latest sample, taking a new one if at least kIntervalNs of wall
  /// time passed since the last.
  double Current() {
    if (last_ns_ != 0 && NowNs() - last_ns_ < kIntervalNs) return current_;
    Chase(kEntries);  // warm the ring back into the cache
    const std::uint64_t start = CpuNs();
    Chase(kTimedSteps);
    current_ = static_cast<double>(CpuNs() - start) / kTimedSteps;
    last_ns_ = NowNs();
    return current_;
  }

 private:
  static constexpr std::uint32_t kEntries = 1u << 16;
  static constexpr std::uint32_t kTimedSteps = 4u << 16;
  static constexpr std::uint64_t kIntervalNs = 100'000'000;

  void Chase(std::uint32_t steps) {
    std::uint32_t p = position_;
    for (std::uint32_t i = 0; i < steps; ++i) p = next_[p];
    position_ = p;
  }

  std::vector<std::uint32_t> next_;
  volatile std::uint32_t position_ = 0;  // keeps the chase from being elided
  std::uint64_t last_ns_ = 0;
  double current_ = 0;
};

/// The CPU time of a session's exploration: from OnStart, just before the
/// engine runs, to OnFinish.
class ExploreCpu final : public systest::api::RunObserver {
 public:
  void OnStart(const systest::api::SessionStartInfo& /*info*/) override {
    start_ = CpuNs();
  }
  void OnFinish(const SessionReport& /*report*/) override {
    seconds = CpuSeconds(start_);
  }

  double seconds = 0;

 private:
  std::uint64_t start_ = 0;
};

/// Captures the trace of a session's first execution.
class FirstTrace final : public systest::api::RunObserver {
 public:
  void OnIteration(const systest::api::IterationInfo& info) override {
    if (!trace.has_value()) {
      trace = info.result.trace;
      pruned = info.result.pruned;
    }
  }
  [[nodiscard]] bool WantsIterations() const override { return true; }

  std::optional<Trace> trace;
  bool pruned = false;
};

/// Builds a JSON object one field at a time.
class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Raw(key, buf);
  }
  Json& Int(const char* key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      quoted += (ch == '\n' || ch == '\t') ? ' ' : ch;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Raw(const char* key, const std::string& v) {
    body_.append(body_.empty() ? "{\"" : ",\"").append(key).append("\":");
    body_.append(v);
    return *this;
  }
  [[nodiscard]] std::string Done() const { return body_ + "}"; }

 private:
  std::string body_;
};

struct ReplayOutcome {
  bool ok = false;
  double seconds = 0;  ///< CPU time of serialize + deserialize + Replay
  std::uint64_t decisions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t serialize_ns = 0;
  std::uint64_t deserialize_ns = 0;
  std::uint64_t replay_ns = 0;
  std::uint64_t replay_steps = 0;
};

/// Saves and reloads `trace` in the on-disk text format, then replays it. A
/// witness is replayed with readable logging (TestingEngine::Replay) and must
/// reproduce its violation. A control has no violation to read about: its
/// trace is re-executed without the log and must replay clean, decision for
/// decision. (The log of a 3,000-step vnext execution is a large string whose
/// allocation made this stand-in swing with the host's load.)
ReplayOutcome ReplayWitness(const SessionConfig& session, const Trace& trace,
                            const systest::TestReport* bug) {
  ReplayOutcome out;
  const systest::api::Scenario& scenario =
      systest::api::ScenarioRegistry::Instance().Get(session.scenario);
  const systest::TestConfig tc =
      systest::api::TestSession(session).ResolveConfig();
  const systest::Harness harness = scenario.make(session.params);
  const std::uint64_t start_cpu = CpuNs();
  const std::uint64_t start = NowNs();
  const std::string text = trace.Serialize();
  out.serialize_ns = NowNs() - start;
  std::uint64_t t = NowNs();
  const Trace loaded = Trace::Deserialize(text);
  out.deserialize_ns = NowNs() - t;
  t = NowNs();
  if (bug != nullptr) {
    const systest::TestReport replayed =
        systest::TestingEngine(tc, harness).Replay(loaded);
    out.replay_ns = NowNs() - t;
    out.replay_steps = replayed.total_steps;
    out.ok = loaded == trace && replayed.bug_found &&
             replayed.bug_kind == bug->bug_kind &&
             replayed.bug_message == bug->bug_message;
  } else {
    systest::ReplayStrategy strategy(loaded);
    strategy.PrepareIteration(0, tc.max_steps);
    systest::RuntimeOptions options =
        systest::MakeRuntimeOptions(tc, /*logging=*/false);
    options.stateful = false;
    options.replay_faults = true;
    systest::Runtime runtime(strategy, options);
    bool clean = true;
    try {
      systest::StepToCompletion(runtime, harness, tc.max_steps);
    } catch (const systest::BugFound&) {
      clean = false;
    }
    out.replay_ns = NowNs() - t;
    out.replay_steps = runtime.Steps();
    out.ok = loaded == trace && clean && runtime.GetTrace() == trace;
  }
  out.seconds = CpuSeconds(start_cpu);
  out.decisions = trace.Size();
  out.bytes = text.size();
  return out;
}

/// Re-runs a stateless witness once with fingerprinting on and no pruning,
/// counting the distinct states it passes through (the only state count a
/// stateless campaign has). Returns 0 states if the bug did not reproduce.
std::pair<std::uint64_t, double> WitnessStates(const SessionConfig& session,
                                               const Trace& witness) {
  const systest::api::Scenario& scenario =
      systest::api::ScenarioRegistry::Instance().Get(session.scenario);
  systest::TestConfig tc = systest::api::TestSession(session).ResolveConfig();
  tc.stateful = true;
  tc.prune_run = tc.max_steps + 1;
  const systest::Harness harness = scenario.make(session.params);
  const std::uint64_t start = CpuNs();
  systest::ReplayStrategy strategy(witness);
  systest::TieredFingerprintSet visited(systest::TieredOptions{});
  systest::ExecutionRunner runner(tc, harness, strategy, nullptr);
  const systest::ExecutionResult result = runner.RunOne(0, &visited);
  const double seconds = CpuSeconds(start);
  if (!result.bug_found ||
      result.bug_kind == systest::BugKind::kReplayDivergence) {
    return {0, seconds};
  }
  return {visited.Size(), seconds};
}

struct Options {
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--work-dir") o.work_dir = value;
    else if (flag == "--spans") o.spans_path = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.work_dir.empty()) {
    throw std::invalid_argument("need --work-dir");
  }
  return o;
}

/// What one campaign produced so far, over the passes. The counts of the
/// first pass are the campaign's result; every later pass must repeat them.
struct Record {
  Json line;
  perfbench::CampaignCounts counts;
  bool repeated = true;
  bool replay_ok = true;
  /// Per-pass timings, as JSON arrays under construction, and the host
  /// speed (HostSpeed) measured before each pass of the campaign.
  std::string setup_s, cpu_s, explore_cpu_s, replay_s, witness_states_s;
  std::string chase_ns;
};

void AppendTiming(std::string& array, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", seconds);
  array.append(array.empty() ? "[" : ",").append(buf);
}

int Run(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
  const std::uint64_t run_start = NowNs();
  std::vector<Campaign> campaigns;
  for (std::string line; std::getline(std::cin, line);) {
    if (!line.empty()) campaigns.push_back(ParseCampaign(line));
  }

  perfbench::LayerTotals layers;
  perfbench::SpanLog spans;
  std::uint64_t replay_verify_ns = 0;
  std::uint64_t explore_workers = 0;
  double worker_busy_s = 0;
  double worker_idle_s = 0;
  double imbalance_max = 0;
  HostSpeed host_speed;
  std::vector<Record> records(campaigns.size());
  int most_passes = 1;
  for (const Campaign& c : campaigns) {
    most_passes = std::max(most_passes, c.passes);
  }
  if (opts.trace) most_passes = 1;
  // Every campaign runs once per pass, a whole pass before the next, so the
  // passes of one campaign lie many seconds apart and meet different load on
  // a shared host; run.py keeps each campaign's median time. A traced run
  // makes one pass.
  for (int pass = 0; pass < most_passes; ++pass) {
    for (std::size_t index = 0; index < campaigns.size(); ++index) {
      if (pass >= campaigns[index].passes) continue;
      const Campaign& c = campaigns[index];
      Record& rec = records[index];
      AppendTiming(rec.chase_ns, host_speed.Current());
      const bool first_pass = pass == 0;
      const bool traced = first_pass && opts.trace;
      const std::string corpus_dir =
          opts.work_dir + "/corpus-" + std::to_string(c.id);
      const SessionConfig session = MakeSession(c);
      Json& line = rec.line;
      if (first_pass) line.Int("id", c.id).Bool("expect_bug", c.expect_bug);

      // Set-up probe: a one-execution session pays scenario resolution,
      // the harness factory, engine and visited-set construction and the
      // first (probing and sealing) execution, as every campaign does. It
      // also yields the first execution's trace, which a control replays.
      FirstTrace first;
      {
        SessionConfig probe = session;
        probe.iterations = 1;
        systest::api::TestSession probe_session(probe);
        probe_session.AddObserver(&first);
        const std::uint64_t start = CpuNs();
        probe_session.Run();
        AppendTiming(rec.setup_s, CpuSeconds(start));
        if (first.pruned) {
          // A pruned execution stops short of its end and leaves no complete
          // trace to replay; take the first execution of a stateless session.
          SessionConfig plain = session;
          plain.iterations = 1;
          plain.stateful = false;
          plain.fingerprint_payloads.reset();
          plain.max_visited.reset();
          plain.max_visited_hot.reset();
          plain.metrics = false;
          if (plain.strategy == "mutate") plain.strategy = "random";
          first = FirstTrace();
          systest::api::TestSession(plain).AddObserver(&first).Run();
        }
      }

      // The campaign itself, untraced, through the front door.
      ExploreCpu explore_cpu;
      const std::uint64_t start_cpu = CpuNs();
      std::uint64_t start = NowNs();
      const SessionReport sr =
          systest::api::TestSession(session).AddObserver(&explore_cpu).Run();
      const double wall = Seconds(start);
      AppendTiming(rec.cpu_s, CpuSeconds(start_cpu));
      AppendTiming(rec.explore_cpu_s, explore_cpu.seconds);
      const systest::TestReport& r = sr.report;
      perfbench::CampaignCounts counts;
      counts.executions = r.executions;
      counts.steps = r.total_steps;
      counts.bug_found = r.bug_found;
      counts.bug_iteration = r.bug_iteration;
      counts.distinct_states = r.distinct_states;
      counts.pruned = r.pruned_executions;
      counts.corpus_added = sr.corpus.added;
      if (first_pass) {
        rec.counts = counts;
        line.Num("wall_s", wall)
            .Num("explore_s", r.total_seconds)
            .Int("executions", r.executions)
            .Int("steps", r.total_steps)
            .Bool("bug_found", r.bug_found)
            .Str("bug_kind",
                 r.bug_found ? std::string(ToString(r.bug_kind)) : "")
            .Int("bug_iteration", r.bug_iteration)
            .Int("states", r.distinct_states)
            .Int("pruned", r.pruned_executions)
            .Bool("saturated", r.VisitedSetSaturated())
            .Int("faults", r.injected_faults.Total());
      } else {
        rec.repeated = rec.repeated && counts == rec.counts;
      }
      if (c.corpus && first_pass) {
        // Once per campaign, untimed: the same campaign with a corpus
        // directory must run the same, save its corpus, and load it back
        // entry for entry. The timed passes keep the corpus in memory, so
        // the end-to-end timings do not measure a shared host's disk; the
        // traced run times SaveDir and LoadDir.
        SessionConfig saving = session;
        saving.corpus_dir = FreshDir(corpus_dir);
        const SessionReport saved = systest::api::TestSession(saving).Run();
        systest::corpus::TraceCorpus reloaded;
        start = NowNs();
        const std::size_t loaded = reloaded.LoadDir(corpus_dir);
        if (traced) {
          layers.corpus_load_ns += NowNs() - start;
          ++layers.corpus_loads;
        }
        fs::remove_all(corpus_dir);
        rec.repeated = rec.repeated &&
                       saved.report.executions == r.executions &&
                       saved.report.total_steps == r.total_steps &&
                       saved.report.bug_found == r.bug_found &&
                       saved.corpus.added == sr.corpus.added;
        line.Int("corpus_entries", sr.corpus.entries)
            .Int("corpus_added", sr.corpus.added)
            .Bool("corpus_reloaded", loaded == saved.corpus.entries &&
                                         saved.corpus.entries ==
                                             sr.corpus.entries);
      }

      // Replay: the witness of a bug, or the first execution of a control.
      const Trace* witness = r.bug_found ? &r.bug_trace
                             : first.trace.has_value() ? &*first.trace
                                                       : nullptr;
      const std::uint32_t campaign_span =
          traced ? spans.Open(c.id, 0, "campaign") : 0;
      if (witness != nullptr) {
        const std::uint32_t replay_span =
            traced ? spans.OpenChild(campaign_span, "replay") : 0;
        const ReplayOutcome replay =
            ReplayWitness(session, *witness, r.bug_found ? &r : nullptr);
        if (traced) spans.Close(replay_span);
        rec.replay_ok = rec.replay_ok && replay.ok;
        AppendTiming(rec.replay_s, replay.seconds);
        if (r.bug_found && !c.stateful) {
          const auto [states, seconds] = WitnessStates(session, *witness);
          rec.replay_ok = rec.replay_ok && states > 0;
          AppendTiming(rec.witness_states_s, seconds);
          if (first_pass) line.Int("witness_states", states);
        }
        if (first_pass) {
          line.Int("witness_decisions", replay.decisions)
              .Int("witness_bytes", replay.bytes)
              .Int("serialize_ns", replay.serialize_ns)
              .Int("deserialize_ns", replay.deserialize_ns)
              .Int("replay_ns", replay.replay_ns)
              .Int("replay_steps", replay.replay_steps);
        }
      } else {
        rec.replay_ok = false;
      }

      if (traced) {
        // The traced loop must reproduce the untraced counts exactly.
        SessionConfig traced_session = session;
        if (c.corpus) {
          traced_session.corpus_dir = FreshDir(corpus_dir + "-traced");
        }
        const perfbench::TracedCampaign traced_run = perfbench::RunTraced(
            traced_session, campaign_span, layers, spans);
        line.Bool("fidelity_ok", traced_run.counts == counts)
            .Num("traced_explore_s", traced_run.explore_s)
            .Int("traced_executions", traced_run.counts.executions);
        if (c.corpus) fs::remove_all(traced_session.corpus_dir);
      }
      if (traced && c.explore_threads > 1) {
        // The same campaign on several workers: time
        // ParallelTestingEngine::Run itself.
        start = NowNs();
        const systest::api::Scenario& scenario =
            systest::api::ScenarioRegistry::Instance().Get(c.scenario);
        const systest::TestConfig tc =
            systest::api::TestSession(session).ResolveConfig();
        layers.resolve_ns += NowNs() - start;
        ++layers.resolves;
        systest::explore::ParallelOptions popts;
        popts.threads = c.explore_threads;
        systest::explore::ParallelTestingEngine engine(
            tc, scenario.make(session.params), popts);
        const std::uint32_t span = spans.OpenChild(campaign_span, "explore");
        start = NowNs();
        const systest::explore::ParallelTestReport fleet = engine.Run();
        const double pwall = Seconds(start);
        spans.Close(span);
        double busy = 0;
        std::uint64_t most = 0;
        std::uint64_t least = UINT64_MAX;
        double slowest = 0;
        for (const auto& w : fleet.workers) {
          busy += w.seconds;
          slowest = std::max(slowest, w.seconds);
          most = std::max(most, w.executions);
          least = std::min(least, w.executions);
        }
        explore_workers = std::max<std::uint64_t>(explore_workers,
                                                  fleet.workers.size());
        worker_busy_s += busy;
        worker_idle_s +=
            static_cast<double>(fleet.workers.size()) * pwall - busy;
        if (least > 0) {
          imbalance_max =
              std::max(imbalance_max, static_cast<double>(most) /
                                          static_cast<double>(least));
        }
        if (fleet.aggregate.bug_found) {
          // Verification replays on the calling thread after the workers
          // join.
          replay_verify_ns += static_cast<std::uint64_t>(
              std::max(0.0, pwall - slowest) * 1e9);
        }
        // Its counts stay out of the serial layer totals: the explore layer
        // reports on its own.
        line.Bool("explore_clean", !fleet.aggregate.bug_found);
      }
      if (traced) spans.Close(campaign_span);
    }
  }
  for (Record& rec : records) {
    rec.line.Bool("repeated", rec.repeated)
        .Bool("replay_ok", rec.replay_ok)
        .Raw("setup_s", rec.setup_s + "]")
        .Raw("cpu_s", rec.cpu_s + "]")
        .Raw("explore_cpu_s", rec.explore_cpu_s + "]")
        .Raw("chase_ns", rec.chase_ns + "]");
    if (!rec.replay_s.empty()) rec.line.Raw("replay_s", rec.replay_s + "]");
    if (!rec.witness_states_s.empty()) {
      rec.line.Raw("witness_states_s", rec.witness_states_s + "]");
    }
    std::cout << rec.line.Done() << '\n';
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
          1e6;
  Json summary;
  summary.Bool("summary", true)
      .Num("wall_s", Seconds(run_start))
      .Num("cpu_s", cpu_s)
      .Int("peak_rss_kb", PeakRssKb());
  if (opts.trace) {
    const perfbench::LayerTotals& l = layers;
    summary.Int("resolve_ns", l.resolve_ns)
        .Int("resolves", l.resolves)
        .Int("harness_calls", l.harness.calls)
        .Int("harness_busy_ns", l.harness.busy_ns)
        .Int("executions", l.executions)
        .Int("steps", l.steps)
        .Int("run_one_ns", l.run_one_ns)
        .Int("child_ns", l.child_ns)
        .Int("recycled", l.recycled)
        .Int("pruned", l.pruned)
        .Int("faults", l.faults)
        .Int("decisions", l.decisions.calls)
        .Num("decisions_busy_ns", l.decisions.BusyNs())
        .Int("fault_queries", l.fault_queries.calls)
        .Num("fault_queries_busy_ns", l.fault_queries.BusyNs())
        .Int("prepare_ns", l.prepare_ns)
        .Int("inserts", l.inserts.calls)
        .Num("inserts_busy_ns", l.inserts.BusyNs())
        .Int("novel_inserts", l.novel_inserts)
        .Int("run_probes", l.visited.run_probes)
        .Int("bloom_fp", l.visited.bloom_false_positives)
        .Int("compactions", l.visited.compactions)
        .Int("merges", l.visited.merges)
        .Int("corpus_add_calls", l.corpus_add_calls)
        .Int("corpus_added", l.corpus_added)
        .Int("corpus_add_ns", l.corpus_add_ns)
        .Int("corpus_sampled", l.corpus_sampled)
        .Int("corpus_entries", l.corpus_entries)
        .Int("corpus_saves", l.corpus_saves)
        .Int("corpus_save_ns", l.corpus_save_ns)
        .Int("corpus_loads", l.corpus_loads)
        .Int("corpus_load_ns", l.corpus_load_ns)
        .Int("snapshots", l.snapshots)
        .Int("snapshot_ns", l.snapshot_ns)
        .Int("explore_workers", explore_workers)
        .Num("worker_busy_s", worker_busy_s)
        .Num("worker_idle_s", worker_idle_s)
        .Num("imbalance", imbalance_max)
        .Int("replay_verify_ns", replay_verify_ns)
        .Bool("spans_written",
              opts.spans_path.empty() || spans.Write(opts.spans_path));
  }
  std::cout << summary.Done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
