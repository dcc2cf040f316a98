#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/safe_io.hpp"
#include "core/sweep.hpp"
#include "sim/error.hpp"

namespace paratick::core {
namespace {

// A two-cell SweepResult with replica spread, built by hand so the tests
// control every number exactly.
SweepResult sample_result() {
  SweepResult res;
  res.wall_seconds = 1.25;
  res.threads_used = 2;
  for (const char* variant : {"idle", "storm, \"hostile\""}) {
    SweepCellSummary cell;
    cell.key.variant = variant;
    cell.key.mode = guest::TickMode::kParatick;
    cell.key.tick_freq_hz = 250.0;
    cell.key.vcpus = 2;
    cell.key.overcommit = 1.0;
    for (double x : {100.0, 104.0, 96.0}) cell.exits_total.add(x);
    for (double x : {40.0, 41.0, 42.0}) cell.exits_timer.add(x);
    for (double x : {5e6, 5.1e6, 4.9e6}) cell.busy_cycles.add(x);
    for (double x : {12.5, 12.75, 12.25}) cell.exec_time_ms.add(x);
    for (double x : {3.0, 4.0, 5.0}) {
      cell.wakeup_latency_us.add(x);
      cell.wake_hist_us.add(x);
    }
    res.cells.push_back(std::move(cell));
  }
  return res;
}

TEST(History, JsonRoundTripsThroughParser) {
  const SweepResult res = sample_result();
  const Snapshot snap = parse_snapshot(res.to_json());

  // Host artifacts (wall time, thread count) are deliberately absent from
  // the export — the JSON must be a pure function of the cells so that
  // every -j value produces byte-identical snapshots. The parser
  // tolerates their absence with zero fallbacks.
  EXPECT_DOUBLE_EQ(snap.wall_seconds, 0.0);
  EXPECT_EQ(snap.threads, 0u);
  ASSERT_EQ(snap.cells.size(), 2u);

  const SnapshotCell& cell = snap.cells[0];
  EXPECT_EQ(cell.variant, "idle");
  EXPECT_EQ(snap.cells[1].variant, "storm, \"hostile\"");  // JSON-escape round-trip
  EXPECT_EQ(cell.mode, "paratick");
  EXPECT_DOUBLE_EQ(cell.tick_freq_hz, 250.0);
  EXPECT_EQ(cell.vcpus, 2);
  EXPECT_DOUBLE_EQ(cell.overcommit, 1.0);
  EXPECT_EQ(cell.replicas, 3u);

  const SnapshotMetric* exits = cell.metric("exits");
  ASSERT_NE(exits, nullptr);
  EXPECT_NEAR(exits->mean, 100.0, 0.05);  // %.1f in to_json
  EXPECT_NEAR(exits->stddev, 4.0, 0.05);
  EXPECT_EQ(exits->n, 3u);  // inherited from replicas

  const SnapshotMetric* wake = cell.metric("wake_us");
  ASSERT_NE(wake, nullptr);
  EXPECT_NEAR(wake->mean, 4.0, 1e-3);
  EXPECT_EQ(wake->n, 3u);  // explicit n in the wake_us object
  EXPECT_EQ(cell.metric("no_such_metric"), nullptr);

  // The histogram is carried as bucket counts, not mistaken for a
  // mean/stddev metric object.
  EXPECT_EQ(cell.metric("wake_us_hist"), nullptr);
  EXPECT_EQ(cell.wake_hist, sample_result().cells[0].wake_hist_us.buckets());
  std::uint64_t total = 0;
  for (const std::uint64_t b : cell.wake_hist) total += b;
  EXPECT_EQ(total, 3u);
}

TEST(History, MissingSnapshotGivesActionableError) {
  std::string error;
  EXPECT_FALSE(try_load_snapshot("/no/such/dir/baseline.json", &error));
  EXPECT_NE(error.find("/no/such/dir/baseline.json"), std::string::npos);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(History, CorruptSnapshotGivesActionableError) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "paratick_corrupt_snapshot.json";
  {
    std::ofstream out(path);
    out << "{\"cells\": [truncated";
  }
  std::string error;
  EXPECT_FALSE(try_load_snapshot(path.string(), &error));
  EXPECT_NE(error.find(path.string()), std::string::npos);
  // The parser pins where the document broke off (a torn write).
  EXPECT_NE(error.find("byte offset 11 of 20"), std::string::npos) << error;
  std::filesystem::remove(path);

  // The throwing loader still throws (gates that want hard failure).
  EXPECT_THROW((void)load_snapshot("/no/such/file.json"), sim::SimError);
}

TEST(History, KsDistanceFlagsTailShift) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  ASSERT_FALSE(base.cells[0].wake_hist.empty());
  Snapshot cur = base;
  // Push every sample of cell 0 into a much higher bucket: the mean-based
  // metrics in this synthetic edit stay put, but the distribution moved
  // wholesale -> KS distance 1.0.
  auto& hist = cur.cells[0].wake_hist;
  hist.assign(hist.size() + 8, 0);
  hist.back() = 3;
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].kind, DiffFinding::Kind::kDistribution);
  EXPECT_EQ(diff.findings[0].metric, "wake_us_hist");
  EXPECT_DOUBLE_EQ(diff.findings[0].z, 1.0);

  const DiffConfig cfg;
  const std::string text = describe(diff, cfg);
  EXPECT_NE(text.find("DIST"), std::string::npos);
  EXPECT_NE(text.find("KS"), std::string::npos);

  // Raising the threshold above the distance silences the gate.
  DiffConfig lax;
  lax.ks_threshold = 1.5;
  EXPECT_TRUE(diff_snapshots(base, cur, lax).clean());

  // Snapshots without histograms (pre-histogram baselines) are skipped.
  Snapshot old = base;
  for (auto& c : old.cells) c.wake_hist.clear();
  EXPECT_TRUE(diff_snapshots(old, cur).clean());
}

TEST(History, IdenticalSnapshotsDiffClean) {
  const std::string json = sample_result().to_json();
  const DiffResult diff = diff_snapshots(parse_snapshot(json), parse_snapshot(json));
  EXPECT_TRUE(diff.clean());
  EXPECT_EQ(diff.cells_compared, 2u);
  EXPECT_GT(diff.metrics_compared, 0u);
}

TEST(History, FlagsInjectedMeanShift) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  // +25% on exits: far outside the ~4% replica stddev at z=4.
  for (auto& m : cur.cells[0].metrics) {
    if (m.name == "exits") m.mean *= 1.25;
  }
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].kind, DiffFinding::Kind::kShift);
  EXPECT_EQ(diff.findings[0].metric, "exits");
  EXPECT_EQ(diff.findings[0].cell, base.cells[0].key());
  EXPECT_NEAR(diff.findings[0].rel_delta, 0.25, 1e-6);
  EXPECT_GT(diff.findings[0].z, 4.0);
}

TEST(History, NoisyShiftWithinStddevPasses) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  // Nudge by a fraction of one standard error: above rel_min, below z.
  for (auto& m : cur.cells[0].metrics) {
    if (m.name == "exits") m.mean += 1.0;  // stddev 4, n 3 -> se ~3.3
  }
  EXPECT_TRUE(diff_snapshots(base, cur).clean());
}

TEST(History, ZeroStddevCellFlagsAnyShiftAboveFloor) {
  // --repeat 1 snapshots have stddev 0; the z-score degenerates and the
  // rel_min floor is the only guard. A real shift must still flag.
  Snapshot base = parse_snapshot(sample_result().to_json());
  for (auto& c : base.cells) {
    for (auto& m : c.metrics) m.stddev = 0.0;
  }
  Snapshot cur = base;
  for (auto& m : cur.cells[1].metrics) {
    if (m.name == "busy_cycles") m.mean *= 1.01;  // +1%
  }
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].metric, "busy_cycles");

  // ...but sub-floor jitter (e.g. last-digit formatting) stays clean.
  Snapshot tiny = base;
  for (auto& m : tiny.cells[1].metrics) {
    if (m.name == "busy_cycles") m.mean *= 1.0 + 1e-5;
  }
  EXPECT_TRUE(diff_snapshots(base, tiny).clean());
}

TEST(History, GridDriftIsAFinding) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  cur.cells.pop_back();
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].kind, DiffFinding::Kind::kCellRemoved);

  DiffConfig relaxed;
  relaxed.grid_must_match = false;
  EXPECT_TRUE(diff_snapshots(base, cur, relaxed).clean());

  // A cell only in `current` is the mirror-image finding.
  Snapshot grown = base;
  grown.cells.push_back(base.cells[0]);
  grown.cells.back().variant = "brand-new";
  const DiffResult diff2 = diff_snapshots(base, grown);
  ASSERT_EQ(diff2.findings.size(), 1u);
  EXPECT_EQ(diff2.findings[0].kind, DiffFinding::Kind::kCellAdded);
}

TEST(History, DescribeNamesEveryFinding) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  for (auto& m : cur.cells[0].metrics) {
    if (m.name == "timer_exits") m.mean *= 2.0;
  }
  const DiffConfig cfg;
  const std::string text = describe(diff_snapshots(base, cur), cfg);
  EXPECT_NE(text.find("timer_exits"), std::string::npos);
  EXPECT_NE(text.find("SHIFT"), std::string::npos);
}

TEST(History, WriteSnapshotCreatesTaggedFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "paratick_history_test";
  std::filesystem::remove_all(dir);

  const SweepResult res = sample_result();
  const std::string path =
      write_history_snapshot(res, dir.string(), "bench_unit", "tag1");
  EXPECT_EQ(path, (dir / "bench_unit" / "tag1.json").string());

  const Snapshot reread = load_snapshot(path);
  ASSERT_EQ(reread.cells.size(), 2u);
  EXPECT_TRUE(diff_snapshots(parse_snapshot(res.to_json()), reread).clean());

  std::filesystem::remove_all(dir);
}

// ---- write_file_atomic: the durable write under history, replay bundles,
// traces and sweep exports -------------------------------------------------

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Names in `dir` that look like a staged temp file ("*.tmp.*").
std::vector<std::string> temp_leftovers(const std::filesystem::path& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) out.push_back(name);
  }
  return out;
}

TEST(WriteFileAtomic, ReplacesTheFileWholeAndLeavesNoTempFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "paratick_atomic_replace";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "sub" / "out.json").string();

  write_file_atomic(path, std::string(4096, 'a'));  // creates "sub" too
  EXPECT_EQ(read_file(path), std::string(4096, 'a'));
  // A shorter document replaces the longer one whole: no stale tail.
  write_file_atomic(path, "short\n");
  EXPECT_EQ(read_file(path), "short\n");
  EXPECT_TRUE(temp_leftovers(dir / "sub").empty());

  std::filesystem::remove_all(dir);
}

TEST(WriteFileAtomic, UnwritableDirectoryThrowsAndKeepsTheOldContent) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "paratick_atomic_readonly";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "out.json").string();
  write_file_atomic(path, "old content\n");
  ASSERT_EQ(::chmod(dir.c_str(), 0555), 0);

  // Root ignores directory permissions; drop to an unprivileged effective
  // uid for the write so the directory really is unwritable.
  const uid_t euid = ::geteuid();
  if (euid == 0 && ::seteuid(65534) != 0) {
    ::chmod(dir.c_str(), 0755);
    GTEST_SKIP() << "running as root without the right to drop privileges";
  }
  bool threw = false;
  try {
    write_file_atomic(path, "new content\n");
  } catch (const sim::SimError& e) {
    threw = true;
    EXPECT_NE(e.msg().find(path), std::string::npos) << e.msg();
  }
  if (euid == 0) {
    ASSERT_EQ(::seteuid(0), 0);
  }
  ::chmod(dir.c_str(), 0755);

  EXPECT_TRUE(threw) << "write into a read-only directory must throw";
  EXPECT_EQ(read_file(path), "old content\n");
  EXPECT_TRUE(temp_leftovers(dir).empty());
  std::filesystem::remove_all(dir);
}

TEST(History, TagNowIsFilenameSafe) {
  const std::string tag = history_tag_now();
  EXPECT_FALSE(tag.empty());
  for (const char c : tag) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_')
        << "character '" << c << "' in tag " << tag;
  }
}

TEST(History, ParserHandlesEscapesAndNumbers) {
  const std::string json =
      "{\n  \"wall_seconds\": 0.5,\n  \"threads\": 1,\n  \"cells\": [\n"
      "    {\"variant\": \"a\\\\b\\\"c\\u0041\", \"mode\": \"paratick\", "
      "\"tick_freq_hz\": 2.5e2, \"vcpus\": 4, \"overcommit\": 0, "
      "\"replicas\": 1, \"exits\": {\"mean\": -1.5e-3, \"stddev\": 0}}\n"
      "  ]\n}\n";
  const Snapshot snap = parse_snapshot(json);
  ASSERT_EQ(snap.cells.size(), 1u);
  EXPECT_EQ(snap.cells[0].variant, "a\\b\"cA");
  EXPECT_DOUBLE_EQ(snap.cells[0].tick_freq_hz, 250.0);
  const SnapshotMetric* exits = snap.cells[0].metric("exits");
  ASSERT_NE(exits, nullptr);
  EXPECT_DOUBLE_EQ(exits->mean, -1.5e-3);
  EXPECT_EQ(exits->n, 1u);
}

}  // namespace
}  // namespace paratick::core
