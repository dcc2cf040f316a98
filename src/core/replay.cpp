#include "core/replay.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/json.hpp"
#include "core/safe_io.hpp"
#include "core/scenarios.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {

RunFailure::Kind kind_from_name(const std::string& name) {
  using Kind = RunFailure::Kind;
  for (const Kind k : {Kind::kCheck, Kind::kWatchdog, Kind::kTimeout,
                       Kind::kException, Kind::kSkipped, Kind::kDivergence}) {
    if (name == RunFailure::kind_name(k)) return k;
  }
  // Includes "crash": older builds recorded runs whose forked child died
  // on a signal, and no run executes in a child process any more.
  PARATICK_CHECK_MSG(
      false, ("replay bundle: unknown failure kind \"" + name + "\"").c_str());
  std::abort();  // unreachable; keeps -fsanitize=thread builds warning-free
}

std::int64_t ns(sim::SimTime t) { return t.nanoseconds(); }

// Seeds are written as decimal strings (full 64-bit precision); accept a
// bare number too for hand-written bundles, where precision is the
// author's problem.
std::uint64_t seed_field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  PARATICK_CHECK_MSG(v != nullptr, "replay bundle: missing seed field");
  if (v->type == json::Value::Type::kString) {
    return std::strtoull(v->str.c_str(), nullptr, 10);
  }
  PARATICK_CHECK_MSG(v->type == json::Value::Type::kNumber,
                     "replay bundle: seed is neither string nor number");
  return static_cast<std::uint64_t>(v->number);
}

}  // namespace

std::string to_json(const ReplayBundle& b) {
  const fault::FaultConfig& f = b.fault;
  std::string out = "{\n";
  out += metrics::format("  \"bench\": \"%s\",\n",
                         metrics::json_escape(b.bench).c_str());
  out += metrics::format("  \"scenario\": \"%s\",\n",
                         metrics::json_escape(b.scenario).c_str());
  // Seeds are full 64-bit values; a JSON number would round-trip through
  // double and lose the low bits, so they travel as decimal strings.
  out += metrics::format("  \"root_seed\": \"%llu\",\n",
                         static_cast<unsigned long long>(b.root_seed));
  out += metrics::format("  \"repeat\": %d,\n", b.repeat);
  out += metrics::format("  \"run_index\": %llu,\n",
                         static_cast<unsigned long long>(b.run_index));
  out += metrics::format("  \"seed\": \"%llu\",\n",
                         static_cast<unsigned long long>(b.seed));
  out += metrics::format("  \"cell\": \"%s\",\n",
                         metrics::json_escape(b.cell_label).c_str());
  if (!b.trace_path.empty()) {
    out += metrics::format("  \"trace\": \"%s\",\n",
                           metrics::json_escape(b.trace_path).c_str());
  }
  out += metrics::format("  \"watchdog\": %s,\n", b.watchdog ? "true" : "false");
  out += metrics::format("  \"watchdog_timer_grace_ns\": %lld,\n",
                         static_cast<long long>(ns(b.watchdog_timer_grace)));
  out += metrics::format(
      "  \"fault\": {\"timer_drop_prob\": %.17g, \"timer_late_prob\": %.17g, "
      "\"timer_late_max_ns\": %lld, \"timer_coalesce_prob\": %.17g, "
      "\"timer_coalesce_window_ns\": %lld, \"tsc_drift_ppm\": %.17g, "
      "\"io_error_prob\": %.17g, \"io_spike_prob\": %.17g, "
      "\"io_spike_factor\": %.17g, \"steal_burst_prob\": %.17g, "
      "\"steal_burst_max_ns\": %lld, \"tick_delay_prob\": %.17g, "
      "\"softirq_spurious_prob\": %.17g, \"softirq_drop_prob\": %.17g},\n",
      f.timer_drop_prob, f.timer_late_prob,
      static_cast<long long>(ns(f.timer_late_max)), f.timer_coalesce_prob,
      static_cast<long long>(ns(f.timer_coalesce_window)), f.tsc_drift_ppm,
      f.io_error_prob, f.io_spike_prob, f.io_spike_factor, f.steal_burst_prob,
      static_cast<long long>(ns(f.steal_burst_max)), f.tick_delay_prob,
      f.softirq_spurious_prob, f.softirq_drop_prob);
  out += metrics::format(
      "  \"failure\": {\"kind\": \"%s\", \"expr\": \"%s\", \"file\": \"%s\", "
      "\"line\": %d, \"message\": \"%s\", \"sim_time_ns\": %lld, "
      "\"events_executed\": %llu}\n",
      RunFailure::kind_name(b.failure.kind),
      metrics::json_escape(b.failure.expr).c_str(),
      metrics::json_escape(b.failure.file).c_str(), b.failure.line,
      metrics::json_escape(b.failure.message).c_str(),
      static_cast<long long>(b.failure.sim_time_ns),
      static_cast<unsigned long long>(b.failure.events_executed));
  out += "}\n";
  return out;
}

std::string write_replay_bundle(const SweepConfig& cfg, const SweepRun& run,
                                const std::string& dir,
                                const std::string& cell_label) {
  PARATICK_CHECK_MSG(!run.ok && run.failure.has_value(),
                     "replay bundle: run did not fail");
  ReplayBundle b;
  b.bench = cfg.bench_name;
  b.scenario = cfg.scenario;
  b.root_seed = cfg.root_seed;
  b.repeat = cfg.repeat;
  b.run_index = run.run_index;
  b.seed = run.seed;
  b.cell_label = cell_label;
  b.watchdog = cfg.watchdog;
  b.watchdog_timer_grace = cfg.watchdog_timer_grace;
  b.fault = cfg.fault;
  b.failure = *run.failure;
  b.trace_path = run.trace_path;

  // One directory per producing sweep keeps multi-bench failure dirs
  // tidy: <dir>/<bench>/run<idx>.json. (Bundles from before this layout
  // lived flat as <dir>/<bench>-run<idx>.json; bench_replay scans both.)
  const std::string name = cfg.bench_name.empty() ? "sweep" : cfg.bench_name;
  const std::string bundle_dir = dir + "/" + name;
  std::filesystem::create_directories(bundle_dir);
  const std::string path =
      bundle_dir + metrics::format("/run%llu.json",
                                   static_cast<unsigned long long>(run.run_index));
  // Atomic write: a sweep killed mid-write never leaves a torn bundle.
  write_file_atomic(path, to_json(b));
  return path;
}

ReplayBundle parse_replay_bundle(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  PARATICK_CHECK_MSG(doc.type == json::Value::Type::kObject,
                     "replay bundle: document is not an object");
  ReplayBundle b;
  b.bench = json::str_field(doc, "bench");
  b.scenario = json::str_field(doc, "scenario");
  b.root_seed = seed_field(doc, "root_seed");
  b.repeat = static_cast<int>(json::num_field(doc, "repeat", 1));
  b.run_index = static_cast<std::size_t>(json::num_field(doc, "run_index"));
  b.seed = seed_field(doc, "seed");
  if (const json::Value* cell = doc.find("cell");
      cell != nullptr && cell->type == json::Value::Type::kString) {
    b.cell_label = cell->str;
  }
  if (const json::Value* trace = doc.find("trace");
      trace != nullptr && trace->type == json::Value::Type::kString) {
    b.trace_path = trace->str;
  }
  if (const json::Value* wd = doc.find("watchdog");
      wd != nullptr && wd->type == json::Value::Type::kBool) {
    b.watchdog = wd->boolean;
  }
  b.watchdog_timer_grace = sim::SimTime::ns(static_cast<std::int64_t>(
      json::num_field(doc, "watchdog_timer_grace_ns", 5e6)));

  const json::Value* f = doc.find("fault");
  PARATICK_CHECK_MSG(f != nullptr && f->type == json::Value::Type::kObject,
                     "replay bundle: missing fault object");
  fault::FaultConfig& fc = b.fault;
  fc.timer_drop_prob = json::num_field(*f, "timer_drop_prob");
  fc.timer_late_prob = json::num_field(*f, "timer_late_prob");
  fc.timer_late_max = sim::SimTime::ns(
      static_cast<std::int64_t>(json::num_field(*f, "timer_late_max_ns")));
  fc.timer_coalesce_prob = json::num_field(*f, "timer_coalesce_prob");
  fc.timer_coalesce_window = sim::SimTime::ns(static_cast<std::int64_t>(
      json::num_field(*f, "timer_coalesce_window_ns")));
  fc.tsc_drift_ppm = json::num_field(*f, "tsc_drift_ppm");
  fc.io_error_prob = json::num_field(*f, "io_error_prob");
  fc.io_spike_prob = json::num_field(*f, "io_spike_prob");
  fc.io_spike_factor = json::num_field(*f, "io_spike_factor", 20.0);
  fc.steal_burst_prob = json::num_field(*f, "steal_burst_prob");
  fc.steal_burst_max = sim::SimTime::ns(
      static_cast<std::int64_t>(json::num_field(*f, "steal_burst_max_ns")));
  fc.tick_delay_prob = json::num_field(*f, "tick_delay_prob");
  fc.softirq_spurious_prob = json::num_field(*f, "softirq_spurious_prob");
  fc.softirq_drop_prob = json::num_field(*f, "softirq_drop_prob");

  const json::Value* fail = doc.find("failure");
  PARATICK_CHECK_MSG(fail != nullptr && fail->type == json::Value::Type::kObject,
                     "replay bundle: missing failure object");
  b.failure.kind = kind_from_name(json::str_field(*fail, "kind"));
  if (const json::Value* e = fail->find("expr");
      e != nullptr && e->type == json::Value::Type::kString) {
    b.failure.expr = e->str;
  }
  if (const json::Value* fi = fail->find("file");
      fi != nullptr && fi->type == json::Value::Type::kString) {
    b.failure.file = fi->str;
  }
  b.failure.line = static_cast<int>(json::num_field(*fail, "line"));
  if (const json::Value* m = fail->find("message");
      m != nullptr && m->type == json::Value::Type::kString) {
    b.failure.message = m->str;
  }
  b.failure.sim_time_ns =
      static_cast<std::int64_t>(json::num_field(*fail, "sim_time_ns", -1.0));
  b.failure.events_executed = static_cast<std::uint64_t>(
      json::num_field(*fail, "events_executed"));
  return b;
}

ReplayBundle load_replay_bundle(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  PARATICK_CHECK_MSG(f != nullptr, ("cannot open replay bundle " + path).c_str());
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  try {
    return parse_replay_bundle(text);
  } catch (const sim::SimError& e) {
    throw sim::SimError(e.kind(), e.expr(), e.file(), e.line(),
                        path + ": " + e.msg(), e.sim_time(), e.events_executed());
  }
}

SweepRun replay_run(SweepConfig cfg, const ReplayBundle& b) {
  // The bundle's identity wins over whatever the caller-provided config
  // carries, so the replayed run is exactly the one that failed.
  cfg.root_seed = b.root_seed;
  cfg.repeat = b.repeat;
  cfg.fault = b.fault;
  cfg.watchdog = b.watchdog;
  cfg.watchdog_timer_grace = b.watchdog_timer_grace;
  // Wall-clock timeouts are not part of the deterministic identity; a
  // timed-out run replays without the budget (it may simply run longer).
  cfg.run_timeout_sec = 0.0;
  cfg.max_failures = 0;
  // Never clobber the original sweep's artifacts: a replay writes no new
  // bundles or traces. (cfg.observer is kept — that is how bench_replay
  // attaches its trace checker.)
  cfg.failure_dir.clear();
  cfg.record_trace = false;
  SweepRunner runner(std::move(cfg));
  return runner.execute_run(b.run_index);
}

SweepRun replay_bundle(const ReplayBundle& b) {
  PARATICK_CHECK_MSG(is_chaos_scenario(b.scenario),
                     "replay bundle names no registered chaos scenario; "
                     "rebuild the SweepConfig and use replay_run()");
  return replay_run(build_chaos_scenario(b.scenario), b);
}

bool reproduces(const ReplayBundle& b, const SweepRun& replayed,
                std::string* detail) {
  const auto note = [detail](std::string msg) {
    if (detail != nullptr) *detail = std::move(msg);
  };
  if (replayed.ok || !replayed.failure.has_value()) {
    note("replay completed without failing");
    return false;
  }
  const RunFailure& want = b.failure;
  const RunFailure& got = *replayed.failure;
  if (got.kind != want.kind) {
    note(metrics::format("failure kind differs: recorded %s, replayed %s",
                         RunFailure::kind_name(want.kind),
                         RunFailure::kind_name(got.kind)));
    return false;
  }
  if (got.expr != want.expr) {
    note("failing expression differs: recorded \"" + want.expr +
         "\", replayed \"" + got.expr + "\"");
    return false;
  }
  // Timeouts are wall-clock dependent: kind + expression is the best
  // reproducibility we can claim for them.
  if (want.kind != RunFailure::Kind::kTimeout &&
      got.sim_time_ns != want.sim_time_ns) {
    note(metrics::format(
        "failure sim time differs: recorded %lldns, replayed %lldns",
        static_cast<long long>(want.sim_time_ns),
        static_cast<long long>(got.sim_time_ns)));
    return false;
  }
  note(metrics::format(
      "reproduced: %s \"%s\" at sim t=%lldns (event #%llu)",
      RunFailure::kind_name(got.kind), got.expr.c_str(),
      static_cast<long long>(got.sim_time_ns),
      static_cast<unsigned long long>(got.events_executed)));
  return true;
}

}  // namespace paratick::core
