#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/record_replay/bisect.hpp"
#include "core/record_replay/record_replay.hpp"
#include "core/record_replay/trace.hpp"
#include "core/replay.hpp"
#include "core/sweep.hpp"
#include "expect_error.hpp"
#include "workload/micro.hpp"

namespace paratick::core::record_replay {
namespace {

// ---- trace encoding ------------------------------------------------------

TEST(EventTrace, AppendDecodeRoundTrip) {
  EventTrace t;
  // Irregular deltas on purpose: out-of-order seqs (pops are time-ordered,
  // not schedule-ordered) and a zero time delta.
  const std::vector<TraceRecord> records = {
      {100, 0, 0xdeadbeef},
      {100, 3, 0x00000001},
      {250, 1, 0xffffffff},
      {1'000'000'000, 4, 0},
  };
  for (const TraceRecord& r : records) t.append(r.time_ns, r.seq, r.digest);

  EXPECT_EQ(t.count(), records.size());
  EXPECT_EQ(t.decode(), records);
  EXPECT_EQ(EventTrace::from_records(records).chain_digest(), t.chain_digest());

  // Chain prefixes: empty prefix is the seed, full prefix is the digest,
  // and every record moves the chain.
  EXPECT_EQ(t.chain_at(0), kChainSeed);
  EXPECT_EQ(t.chain_at(t.count()), t.chain_digest());
  std::uint64_t prev = t.chain_at(0);
  for (std::uint64_t n = 1; n <= t.count(); ++n) {
    EXPECT_NE(t.chain_at(n), prev);
    prev = t.chain_at(n);
  }
}

TEST(EventTrace, SerializeRoundTripAndCorruptionDetection) {
  EventTrace t;
  for (int i = 0; i < 64; ++i) {
    t.append(1000 * i, static_cast<std::uint64_t>(i),
             static_cast<std::uint32_t>(i) * 2654435761u);
  }
  const std::string bytes = t.serialize();
  const EventTrace back = EventTrace::deserialize(bytes);
  EXPECT_EQ(back.count(), t.count());
  EXPECT_EQ(back.chain_digest(), t.chain_digest());
  EXPECT_EQ(back.decode(), t.decode());

  // A deserialized trace must keep appending from the right delta state.
  EventTrace grown = EventTrace::deserialize(bytes);
  grown.append(64'000, 64, 42);
  EventTrace ref = t;
  ref.append(64'000, 64, 42);
  EXPECT_EQ(grown.chain_digest(), ref.chain_digest());

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x01;
  EXPECT_SIM_ERROR((void)EventTrace::deserialize(bad_magic), "bad magic");

  EXPECT_SIM_ERROR((void)EventTrace::deserialize(bytes.substr(0, 10)),
                   "file too short");

  std::string truncated = bytes;
  truncated.pop_back();
  EXPECT_SIM_ERROR((void)EventTrace::deserialize(truncated),
                   "stream size does not match");

  // Flip one payload byte: either the varint decoder or the chain digest
  // must catch it — both throw with the trace named.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_SIM_ERROR((void)EventTrace::deserialize(corrupt), "event trace");
}

TEST(EventTrace, FileRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "paratick_rr_test" / "file_round_trip";
  fs::remove_all(dir);

  EventTrace t;
  t.append(10, 0, 1);
  t.append(20, 1, 2);
  // write_trace_file creates the missing parent directories.
  const std::string path =
      write_trace_file(t, (dir / "sub" / "run0.trace").string());
  const EventTrace back = load_trace_file(path);
  EXPECT_EQ(back.count(), 2u);
  EXPECT_EQ(back.chain_digest(), t.chain_digest());

  EXPECT_SIM_ERROR((void)load_trace_file((dir / "missing.trace").string()),
                   "cannot open trace file");
}

// ---- record -> replay round trip -----------------------------------------

/// Healthy single-cell config: one short paratick run, no faults.
SweepConfig ok_run_config() {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::ms(20);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::PureComputeSpec spec;
    spec.total_cycles = 10'000'000;  // ~5 ms at 2 GHz
    spec.chunks = 10;
    workload::install_pure_compute(k, spec);
  };
  cfg.modes = {guest::TickMode::kParatick};
  cfg.repeat = 1;
  cfg.root_seed = 42;
  cfg.threads = 1;
  return cfg;
}

/// Record run 0 of `cfg` and return (run, trace) via out-params.
SweepRun record_run0(SweepConfig cfg, EventTrace* trace) {
  TraceRecorder recorder;
  cfg.observer = &recorder;
  SweepRun run = SweepRunner(cfg).execute_run(0);
  *trace = recorder.take();
  return run;
}

void put_acc(std::ostringstream& out, const sim::Accumulator& a) {
  const sim::Accumulator::State st = a.state();
  out << " acc(" << st.n << ' ' << st.mean << ' ' << st.m2 << ' ' << st.sum
      << ' ' << st.min << ' ' << st.max << ')';
}

template <typename Range>
void put_all(std::ostringstream& out, const Range& values) {
  out << " [";
  for (const auto v : values) out << ' ' << v;
  out << " ]";
}

/// Every deterministic field of a run as text, doubles at full precision.
/// The two host-wall-clock fields (host_seconds, engine_wall_ns) are left
/// out; everything else must match bit-exactly between equivalent runs.
std::string scrubbed_record(const SweepRun& run) {
  std::ostringstream out;
  out << std::setprecision(17) << run.run_index << ' ' << run.cell << ' '
      << run.replica << ' ' << run.seed << ' ' << run.ok << ' '
      << run.bundle_path << '|' << run.trace_path << '|';
  if (run.failure) {
    const RunFailure& f = *run.failure;
    out << RunFailure::kind_name(f.kind) << '|' << f.expr << '|' << f.file
        << ':' << f.line << '|' << f.message << '|' << f.sim_time_ns << ' '
        << f.events_executed;
  }
  if (!run.ok) return out.str();
  const metrics::RunResult& r = run.result;
  out << " wall=" << r.wall.nanoseconds() << " cycles";
  for (std::size_t i = 0; i < hw::kCycleCategoryCount; ++i) {
    out << ' ' << r.cycles.total(static_cast<hw::CycleCategory>(i)).count();
  }
  out << " exits=" << r.exits_total << ' ' << r.exits_timer_related;
  put_all(out, r.exits_by_cause);
  out << " events=" << r.events_executed << ' ' << r.events_scheduled << ' '
      << r.events_cancelled << ' ' << r.callback_spills << ' '
      << r.callback_spill_bytes << ' ' << r.slot_high_water << ' '
      << r.queue_compactions << " par=" << r.par_windows << ' '
      << r.par_windows_skipped << ' ' << r.par_barriers_elided << ' '
      << r.par_horizon_max_ns;
  const fault::FaultStats& fs = r.faults;
  out << " faults=" << fs.timer_dropped << ' ' << fs.timer_delayed << ' '
      << fs.timer_coalesced << ' ' << fs.io_errors << ' ' << fs.io_spikes << ' '
      << fs.steal_bursts << ' ' << fs.ticks_delayed << ' '
      << fs.softirq_spurious << ' ' << fs.softirq_dropped;
  for (const metrics::VmResult& vm : r.vms) {
    out << "\nvm exits=" << vm.exits_total << ' ' << vm.exits_timer_related;
    put_all(out, vm.exits_by_cause);
    out << " done="
        << (vm.completion_time ? vm.completion_time->nanoseconds() : -1);
    const auto& p = vm.policy;
    out << " policy=" << p.ticks_handled << ' ' << p.virtual_ticks << ' '
        << p.msr_writes << ' ' << p.msr_writes_avoided << ' ' << p.idle_entries
        << ' ' << p.idle_exits << ' ' << p.busy_stops;
    put_acc(out, vm.tick_intervals_us);
    out << " tasks=" << vm.task_blocks << ' ' << vm.task_wakes;
    put_acc(out, vm.wakeup_latency_us);
    put_all(out, vm.wakeup_latency_hist_us.buckets());
    out << " io_errors=" << vm.io_errors
        << " steal=" << vm.steal_time.nanoseconds() << ' '
        << (vm.steal_estimate ? vm.steal_estimate->nanoseconds() : -1);
  }
  return out.str();
}

TEST(RecordReplay, RoundTripHasZeroDivergencesAndByteIdenticalResult) {
  EventTrace trace;
  const SweepRun recorded = record_run0(ok_run_config(), &trace);
  ASSERT_TRUE(recorded.ok);
  // Paratick + pure compute is event-light by design (that's the paper);
  // a run is still a dozen-plus engine events.
  ASSERT_GT(trace.count(), 10u);
  EXPECT_EQ(trace.count(), recorded.result.events_executed);

  SweepConfig cfg = ok_run_config();
  TraceChecker checker(trace);
  cfg.observer = &checker;
  const SweepRun replayed = SweepRunner(cfg).execute_run(0);
  ASSERT_TRUE(replayed.ok);
  EXPECT_FALSE(checker.divergence().has_value());
  EXPECT_FALSE(checker.check_complete().has_value());
  EXPECT_EQ(checker.events_seen(), trace.count());
  EXPECT_EQ(checker.observed_chain(), trace.chain_digest());

  EXPECT_EQ(scrubbed_record(recorded), scrubbed_record(replayed));
}

TEST(RecordReplay, RecordingIsObservational) {
  // Same run with and without the recorder attached: identical result.
  EventTrace trace;
  const SweepRun recorded = record_run0(ok_run_config(), &trace);
  const SweepRun bare = SweepRunner(ok_run_config()).execute_run(0);
  ASSERT_TRUE(recorded.ok);
  ASSERT_TRUE(bare.ok);
  EXPECT_EQ(scrubbed_record(recorded), scrubbed_record(bare));
}

/// Replay run 0 against `trace` with a per-event checker attached;
/// returns the run disposition, exposing the checker's divergence.
SweepRun checked_replay0(const EventTrace& trace,
                         std::optional<Divergence>* divergence) {
  SweepConfig cfg = ok_run_config();
  TraceChecker checker(trace);
  cfg.observer = &checker;
  SweepRun run = SweepRunner(cfg).execute_run(0);
  *divergence = checker.divergence();
  if (!*divergence) *divergence = checker.check_complete();
  return run;
}

TEST(RecordReplay, TamperedRecordsRaiseTypedDivergenceAtExactIndex) {
  EventTrace trace;
  ASSERT_TRUE(record_run0(ok_run_config(), &trace).ok);
  std::vector<TraceRecord> records = trace.decode();
  const std::uint64_t k = trace.count() / 2;

  struct Case {
    Divergence::What what;
    void (*tamper)(TraceRecord&);
  };
  const Case cases[] = {
      {Divergence::What::kDigest, [](TraceRecord& r) { r.digest ^= 0xbad; }},
      {Divergence::What::kTime, [](TraceRecord& r) { r.time_ns += 1; }},
      {Divergence::What::kSeq, [](TraceRecord& r) { r.seq += 7; }},
  };
  for (const Case& c : cases) {
    std::vector<TraceRecord> tampered = records;
    c.tamper(tampered[static_cast<std::size_t>(k)]);
    std::optional<Divergence> d;
    const SweepRun run = checked_replay0(EventTrace::from_records(tampered), &d);
    EXPECT_FALSE(run.ok);
    ASSERT_TRUE(run.failure.has_value());
    EXPECT_EQ(run.failure->kind, RunFailure::Kind::kDivergence);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->what, c.what) << Divergence::what_name(c.what);
    EXPECT_EQ(d->index, k);
    EXPECT_NE(run.failure->message.find("event #"), std::string::npos);
  }
}

TEST(RecordReplay, TraceLengthMismatchesAreTyped) {
  EventTrace trace;
  ASSERT_TRUE(record_run0(ok_run_config(), &trace).ok);
  const std::vector<TraceRecord> records = trace.decode();
  const std::uint64_t n = trace.count();

  // Truncated trace: the replay outlives it -> kExtraEvent at the cut.
  std::vector<TraceRecord> shorter(records.begin(), records.end() - 1);
  std::optional<Divergence> d;
  SweepRun run = checked_replay0(EventTrace::from_records(shorter), &d);
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->what, Divergence::What::kExtraEvent);
  EXPECT_EQ(d->index, n - 1);

  // Extended trace: the replay ends first -> kMissingEvent, reported by
  // check_complete (the engine just stops; no event is there to mismatch).
  std::vector<TraceRecord> longer = records;
  longer.push_back({records.back().time_ns + 1000, records.back().seq + 1, 0});
  run = checked_replay0(EventTrace::from_records(longer), &d);
  EXPECT_TRUE(run.ok);  // the run itself completed fine
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->what, Divergence::What::kMissingEvent);
  EXPECT_EQ(d->index, n);
}

// ---- chaos sweeps: trace files, bundles, bisection -----------------------

/// Chaos config in the split-outcome style of test_fault.cpp: 100% timer
/// drops kill dynticks replicas on the watchdog while paratick survives,
/// so every sweep produces both failed and healthy runs.
SweepConfig chaos_sweep(unsigned threads) {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::ms(200);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::PureComputeSpec spec;
    spec.total_cycles = 100'000'000;  // ~50 ms at 2 GHz
    spec.chunks = 100;
    workload::install_pure_compute(k, spec);
  };
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.repeat = 2;
  cfg.root_seed = 321;
  cfg.threads = threads;
  cfg.fault.timer_drop_prob = 1.0;
  cfg.watchdog = true;
  cfg.bench_name = "rrtest";
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "paratick_rr_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(RecordReplay, ChaosSweepWritesTracesNextToBundles) {
  SweepConfig cfg = chaos_sweep(1);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("chaos_traces");
  const SweepResult res = SweepRunner(cfg).run();

  const auto failed = res.failed_runs();
  ASSERT_GE(failed.size(), 2u);  // both dynticks replicas die on the watchdog
  for (const SweepRun* run : failed) {
    ASSERT_FALSE(run->bundle_path.empty());
    ASSERT_FALSE(run->trace_path.empty());
    EXPECT_TRUE(std::filesystem::exists(run->trace_path)) << run->trace_path;
    // Canonical layout: trace sits next to the bundle as run<idx>.trace.
    EXPECT_NE(run->trace_path.find(
                  "rrtest/run" + std::to_string(run->run_index) + ".trace"),
              std::string::npos);

    // The bundle references its trace, and the checked replay reproduces
    // the watchdog failure with every recorded event matching.
    const ReplayBundle bundle = load_replay_bundle(run->bundle_path);
    EXPECT_EQ(bundle.trace_path, run->trace_path);
    const EventTrace trace = load_trace_file(bundle.trace_path);
    EXPECT_GT(trace.count(), 0u);

    const ReplayCheckResult checked = check_replay(chaos_sweep(1), bundle, trace);
    EXPECT_FALSE(checked.divergence.has_value());
    EXPECT_EQ(checked.events_checked, trace.count());
    std::string detail;
    EXPECT_TRUE(reproduces(bundle, checked.run, &detail)) << detail;
  }
  // Healthy runs never write traces — only failures are worth archiving.
  for (const auto& run : res.runs) {
    if (run.ok) {
      EXPECT_TRUE(run.trace_path.empty());
    }
  }
}

TEST(RecordReplay, BisectPinsInjectedDivergenceToTheExactEvent) {
  SweepConfig cfg = chaos_sweep(1);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("bisect");
  const SweepResult res = SweepRunner(cfg).run();
  const auto failed = res.failed_runs();
  ASSERT_FALSE(failed.empty());
  const ReplayBundle bundle = load_replay_bundle(failed.front()->bundle_path);
  const EventTrace trace = load_trace_file(bundle.trace_path);
  ASSERT_GT(trace.count(), 8u);

  // Intact trace: nothing to bisect.
  BisectReport rep = bisect_divergence(chaos_sweep(1), bundle, trace);
  EXPECT_FALSE(rep.diverged);
  EXPECT_EQ(rep.probes, 0u);

  // Inject a single-event divergence mid-trace; the per-event pass and the
  // chain binary search must independently pin the same event.
  std::vector<TraceRecord> tampered = trace.decode();
  const std::uint64_t k = trace.count() / 2;
  tampered[static_cast<std::size_t>(k)].digest ^= 0x5a5a5a5a;
  rep = bisect_divergence(chaos_sweep(1), bundle,
                          EventTrace::from_records(tampered));
  EXPECT_TRUE(rep.diverged);
  ASSERT_TRUE(rep.first.has_value());
  EXPECT_EQ(rep.first->what, Divergence::What::kDigest);
  EXPECT_EQ(rep.first->index, k);
  EXPECT_EQ(rep.bisect_index, k);
  EXPECT_TRUE(rep.indices_agree) << rep.note;
  EXPECT_GT(rep.probes, 0u);
  EXPECT_EQ(rep.recorded_events, trace.count());
}

TEST(RecordReplay, FaultKnobChangeDivergesFromTheRecordedTrace) {
  // The bench_replay --fault-<knob> story: mutate the bundle's fault
  // identity and the replay legitimately stops matching its trace.
  SweepConfig cfg = chaos_sweep(1);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("knob_change");
  const SweepResult res = SweepRunner(cfg).run();
  const auto failed = res.failed_runs();
  ASSERT_FALSE(failed.empty());
  ReplayBundle bundle = load_replay_bundle(failed.front()->bundle_path);
  const EventTrace trace = load_trace_file(bundle.trace_path);

  bundle.fault.timer_drop_prob = 0.0;  // the watchdog kill switch, off
  const ReplayCheckResult checked = check_replay(chaos_sweep(1), bundle, trace);
  ASSERT_TRUE(checked.divergence.has_value());
  EXPECT_LT(checked.divergence->index, trace.count());
}

TEST(RecordReplay, LoadRejectsCrashBundlesFromOlderBuilds) {
  // Older builds ran sweeps in forked children and recorded a child's
  // signal death as failure kind "crash". Nothing can reproduce that kind
  // any more, so loading such a bundle must fail and name file and kind.
  ReplayBundle bundle;
  bundle.failure.kind = RunFailure::Kind::kWatchdog;
  std::string text = to_json(bundle);
  const std::string kind = "\"kind\": \"watchdog\"";
  const std::size_t at = text.find(kind);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, kind.size(), "\"kind\": \"crash\"");
  const std::string path = fresh_dir("crash_bundle") + "/run0.json";
  std::ofstream(path) << text;

  try {
    (void)load_replay_bundle(path);
    FAIL() << "a crash bundle must not load";
  } catch (const sim::SimError& e) {
    EXPECT_NE(e.msg().find(path), std::string::npos) << e.msg();
    EXPECT_NE(e.msg().find("unknown failure kind \"crash\""), std::string::npos)
        << e.msg();
  }
}

TEST(RecordReplay, TraceBytesIdenticalAcrossThreadCounts) {
  // The determinism contract extends to traces: any -j, byte-identical
  // trace files per run index.
  struct Leg {
    const char* name;
    unsigned threads;
  };
  const Leg legs[] = {{"j1", 1}, {"j2", 2}, {"j4", 4}};
  std::vector<SweepResult> results;
  for (const Leg& leg : legs) {
    SweepConfig cfg = chaos_sweep(leg.threads);
    cfg.record_trace = true;
    cfg.failure_dir = fresh_dir(std::string("bytes_") + leg.name);
    results.push_back(SweepRunner(cfg).run());
  }
  const auto baseline = results[0].failed_runs();
  ASSERT_GE(baseline.size(), 2u);
  for (std::size_t leg = 1; leg < results.size(); ++leg) {
    const auto other = results[leg].failed_runs();
    ASSERT_EQ(other.size(), baseline.size()) << legs[leg].name;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i]->run_index, other[i]->run_index);
      ASSERT_FALSE(other[i]->trace_path.empty()) << legs[leg].name;
      EXPECT_EQ(slurp(baseline[i]->trace_path), slurp(other[i]->trace_path))
          << legs[leg].name << " run " << other[i]->run_index;
    }
  }
}

TEST(RecordReplay, RecordingLeavesSweepExportsByteIdentical) {
  const SweepResult bare = SweepRunner(chaos_sweep(2)).run();

  SweepConfig cfg = chaos_sweep(2);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("observational");
  const SweepResult recorded = SweepRunner(cfg).run();

  EXPECT_EQ(bare.to_csv(), recorded.to_csv());
  EXPECT_EQ(bare.to_json(), recorded.to_json());
  ASSERT_EQ(bare.runs.size(), recorded.runs.size());
  for (std::size_t i = 0; i < bare.runs.size(); ++i) {
    SweepRun a = bare.runs[i];
    SweepRun b = recorded.runs[i];
    // Artifact paths differ by design (bare wrote none); everything that
    // feeds results must not.
    a.bundle_path.clear();
    b.bundle_path.clear();
    b.trace_path.clear();
    EXPECT_EQ(scrubbed_record(a), scrubbed_record(b)) << "run " << i;
  }
}

}  // namespace
}  // namespace paratick::core::record_replay
