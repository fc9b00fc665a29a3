#include "api/reporters.h"

#include <cinttypes>

#include "core/bug.h"
#include "obs/coverage.h"

namespace systest::api {

namespace {

void PrintBugTail(std::FILE* out, const TestReport& report) {
  if (report.execution_log.empty()) return;
  const std::string& log = report.execution_log;
  const std::size_t from = log.size() > 2'000 ? log.size() - 2'000 : 0;
  std::fprintf(out, "\nreadable trace (tail):\n%s\n", log.substr(from).c_str());
}

}  // namespace

void HumanReporter::OnStart(const SessionStartInfo& info) {
  if (info.scenario != nullptr) {
    std::fprintf(out_, "scenario %s: %s\n", info.scenario->name.c_str(),
                 info.scenario->description.c_str());
  }
  if (!info.plan.empty()) {
    std::fprintf(out_, "exploration plan (%d workers):\n%s", info.threads,
                 info.plan.c_str());
  }
}

void HumanReporter::OnFinish(const SessionReport& report) {
  if (!report.workers.empty()) {
    std::fprintf(out_, "\n%s\n", report.BreakdownTable().c_str());
  }
  std::fprintf(out_, "%s\n", report.report.Summary().c_str());
  if (report.report.bug_found && report.winning_worker >= 0) {
    std::fprintf(out_, "winning worker: w%d (%s); main-thread replay %s\n",
                 report.winning_worker, report.report.strategy_name.c_str(),
                 !report.replay_verify_attempted
                     ? "skipped (verify_replay=false)"
                     : report.replay_verified ? "REPRODUCED the violation"
                                              : "did not reproduce (!)");
  }
  if (report.mode == "replay" && !report.replay_verified) {
    if (report.report.bug_kind == systest::BugKind::kReplayDivergence) {
      std::fprintf(out_,
                   "replay DIVERGED (wrong scenario or parameters?)\n");
    } else {
      std::fprintf(out_, "replay did NOT reproduce a violation\n");
    }
  }
  if (report.report.stateful) {
    std::fprintf(out_,
                 "stateful: %llu distinct states, %llu/%llu executions "
                 "pruned, fingerprint hit-rate %.1f%%\n",
                 static_cast<unsigned long long>(report.report.distinct_states),
                 static_cast<unsigned long long>(
                     report.report.pruned_executions),
                 static_cast<unsigned long long>(report.report.executions),
                 report.report.FingerprintHitRate() * 100.0);
    const VisitedStats& v = report.report.visited;
    if (v.compactions > 0 || v.runs > 0) {
      // Tiered-set maintenance line: only interesting once the hot level has
      // compacted at least once (the default config never does).
      std::fprintf(out_,
                   "visited set: %llu hot + %llu in %llu runs "
                   "(%llu compactions, %llu merges, %llu spilled runs, "
                   "%llu bytes on disk)\n",
                   static_cast<unsigned long long>(v.hot_entries),
                   static_cast<unsigned long long>(v.run_entries),
                   static_cast<unsigned long long>(v.runs),
                   static_cast<unsigned long long>(v.compactions),
                   static_cast<unsigned long long>(v.merges),
                   static_cast<unsigned long long>(v.spilled_runs),
                   static_cast<unsigned long long>(v.spilled_bytes));
    }
    if (report.report.VisitedSetSaturated()) {
      // The TOTAL distinct-state budget — hot level plus compacted runs —
      // is exhausted, so novel states now pass through uncounted and the
      // reported hit rate goes dishonest. (Hot-level compactions alone are
      // routine and never trigger this note.)
      std::fprintf(out_,
                   "note: visited-set budget exhausted (%llu distinct states "
                   "recorded, max_visited=%llu) — novel states are no longer "
                   "recorded. Raise --max-visited (the tiered back level "
                   "scales to hundreds of millions; add --visited-spill-dir "
                   "to keep runs on disk).\n",
                   static_cast<unsigned long long>(
                       report.report.distinct_states),
                   static_cast<unsigned long long>(
                       report.report.visited_budget));
    }
    if (report.report.PruneSaturated()) {
      std::fprintf(out_,
                   "note: %llu/%llu executions pruned on a clean run — the "
                   "fingerprint view no longer tells states apart, so bugs "
                   "deeper than the prune run stay unexplored. Add a "
                   "FingerprintPayload hook or drop --stateful for this "
                   "hunt.\n",
                   static_cast<unsigned long long>(
                       report.report.pruned_executions),
                   static_cast<unsigned long long>(report.report.executions));
    }
  }
  if (report.corpus_on) {
    std::fprintf(out_,
                 "corpus: %llu entries (%llu added, %llu loaded, %llu "
                 "duplicates, %llu evicted, %llu sampled)\n",
                 static_cast<unsigned long long>(report.corpus.entries),
                 static_cast<unsigned long long>(report.corpus.added),
                 static_cast<unsigned long long>(report.corpus.loaded),
                 static_cast<unsigned long long>(report.corpus.duplicates),
                 static_cast<unsigned long long>(report.corpus.evicted),
                 static_cast<unsigned long long>(report.corpus.sampled));
  }
  if (report.report.faults) {
    const Runtime::FaultStats& f = report.report.injected_faults;
    std::fprintf(out_,
                 "faults: %llu crashes, %llu restarts, %llu drops, %llu "
                 "duplications, %llu partitions, %llu heals injected\n",
                 static_cast<unsigned long long>(f.crashes),
                 static_cast<unsigned long long>(f.restarts),
                 static_cast<unsigned long long>(f.drops),
                 static_cast<unsigned long long>(f.duplications),
                 static_cast<unsigned long long>(f.partitions),
                 static_cast<unsigned long long>(f.heals));
  }
  if (report.report.bug_found &&
      report.report.bug_trace.HasFaultDecisions()) {
    // The failure schedule that produced the first bug, straight from its
    // witness trace — replaying the trace re-applies exactly these faults.
    std::fprintf(out_, "first-bug fault schedule: %s\n",
                 report.report.bug_trace.DescribeFaults().c_str());
  }
  if (report.report.coverage != nullptr && !report.report.coverage->Empty()) {
    std::fprintf(out_, "\n%s", report.report.coverage->Render().c_str());
  }
  if (verbose_ && report.report.bug_found) PrintBugTail(out_, report.report);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonReporter::OnStart(const SessionStartInfo& info) {
  description_ =
      info.scenario != nullptr ? info.scenario->description : std::string();
}

void JsonReporter::OnFinish(const SessionReport& report) {
  const TestReport& r = report.report;
  std::string json = "{";
  auto field = [&json](const char* key, const std::string& value, bool quote) {
    if (json.size() > 1) json += ',';
    json += '"';
    json += key;
    json += "\":";
    if (quote) {
      json += '"';
      json += JsonEscape(value);
      json += '"';
    } else {
      json += value;
    }
  };
  field("scenario", report.scenario, true);
  // Escaped like every other string field: scenario descriptions are
  // free-form prose and may embed quotes/backslashes.
  if (!description_.empty()) field("description", description_, true);
  field("mode", report.mode, true);
  field("strategy", r.strategy_name, true);
  field("executions", std::to_string(r.executions), false);
  field("total_steps", std::to_string(r.total_steps), false);
  field("seconds", std::to_string(r.total_seconds), false);
  field("bug_found", r.bug_found ? "true" : "false", false);
  if (r.stateful) {
    field("stateful", "true", false);
    field("distinct_states", std::to_string(r.distinct_states), false);
    field("pruned_executions", std::to_string(r.pruned_executions), false);
    field("fingerprint_hits", std::to_string(r.fingerprint_hits), false);
    field("fingerprint_misses", std::to_string(r.fingerprint_misses), false);
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.4f", r.FingerprintHitRate());
    field("fingerprint_hit_rate", rate, false);
    // CI-detectable saturation warning: true only when the TOTAL
    // distinct-state budget (hot + back-level runs) is exhausted — hot
    // compactions alone never set it. Machine-readable counterpart of
    // HumanReporter's note.
    field("visited_set_saturated", r.VisitedSetSaturated() ? "true" : "false",
          false);
    // Counterpart of HumanReporter's pruned-clean note.
    field("prune_saturated", r.PruneSaturated() ? "true" : "false", false);
    field("visited_budget", std::to_string(r.visited_budget), false);
    // Tiered visited-set telemetry (core/fingerprint.h VisitedStats): level
    // occupancy plus compaction/spill traffic. CI's compaction smoke greps
    // these to assert a small hot cap actually compacted.
    field("visited_hot", std::to_string(r.visited.hot_entries), false);
    field("visited_run_entries", std::to_string(r.visited.run_entries),
          false);
    field("visited_runs", std::to_string(r.visited.runs), false);
    field("visited_compactions", std::to_string(r.visited.compactions),
          false);
    field("visited_merges", std::to_string(r.visited.merges), false);
    field("visited_merged_entries", std::to_string(r.visited.merged_entries),
          false);
    field("visited_spilled_runs", std::to_string(r.visited.spilled_runs),
          false);
    field("visited_spilled_bytes", std::to_string(r.visited.spilled_bytes),
          false);
    field("visited_bloom_fp", std::to_string(r.visited.bloom_false_positives),
          false);
  }
  if (report.corpus_on) {
    // Flat corpus_* fields: CI greps these to assert the corpus was written
    // and reloaded across runs.
    field("corpus", "true", false);
    field("corpus_entries", std::to_string(report.corpus.entries), false);
    field("corpus_added", std::to_string(report.corpus.added), false);
    field("corpus_loaded", std::to_string(report.corpus.loaded), false);
    field("corpus_duplicates", std::to_string(report.corpus.duplicates),
          false);
    field("corpus_evicted", std::to_string(report.corpus.evicted), false);
    field("corpus_sampled", std::to_string(report.corpus.sampled), false);
  }
  if (r.faults) {
    field("faults", "true", false);
    field("injected_crashes", std::to_string(r.injected_faults.crashes),
          false);
    field("injected_restarts", std::to_string(r.injected_faults.restarts),
          false);
    field("injected_drops", std::to_string(r.injected_faults.drops), false);
    field("injected_duplications",
          std::to_string(r.injected_faults.duplications), false);
    field("injected_partitions", std::to_string(r.injected_faults.partitions),
          false);
    field("injected_heals", std::to_string(r.injected_faults.heals), false);
  }
  if (r.bug_found) {
    field("bug_kind", std::string(ToString(r.bug_kind)), true);
    field("bug_message", r.bug_message, true);
    field("bug_iteration", std::to_string(r.bug_iteration), false);
    field("seconds_to_bug", std::to_string(r.seconds_to_bug), false);
    field("ndc", std::to_string(r.ndc), false);
    field("bug_steps", std::to_string(r.bug_steps), false);
    if (r.bug_trace.HasFaultDecisions()) {
      field("bug_fault_schedule", r.bug_trace.DescribeFaults(), true);
    }
  }
  if (!report.workers.empty()) {
    field("winning_worker", std::to_string(report.winning_worker), false);
    field("replay_verified", report.replay_verified ? "true" : "false", false);
    json += ",\"workers\":[";
    bool first = true;
    for (const explore::WorkerReport& w : report.workers) {
      if (!first) json += ',';
      first = false;
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.6f", w.seconds);
      json += "{\"worker\":" + std::to_string(w.assignment.worker) +
              ",\"strategy\":\"" + JsonEscape(w.strategy_name) +
              "\",\"seed\":" + std::to_string(w.assignment.seed) +
              ",\"iterations\":" + std::to_string(w.assignment.iterations) +
              ",\"executions\":" + std::to_string(w.executions) +
              ",\"steps\":" + std::to_string(w.steps) +
              ",\"seconds\":" + wall +
              ",\"bug_found\":" + (w.bug_found ? "true" : "false") +
              ",\"won\":" + (w.won ? "true" : "false") +
              (r.stateful ? ",\"pruned\":" + std::to_string(w.pruned_executions)
                          : std::string()) +
              (r.faults ? ",\"injected_faults\":" +
                              std::to_string(w.injected_faults.Total())
                        : std::string()) +
              "}";
    }
    json += ']';
  }
  if (report.mode == "replay") {
    field("replay_verified", report.replay_verified ? "true" : "false", false);
  }
  if (r.coverage != nullptr && !r.coverage->Empty()) {
    json += ",\"coverage\":" + r.coverage->ToJson();
  }
  json += '}';
  last_ = std::move(json);
  std::fprintf(out_, "%s\n", last_.c_str());
}

}  // namespace systest::api
