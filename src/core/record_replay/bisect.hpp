// Divergence bisection: narrow a replay that stopped matching its
// recorded trace down to the exact first divergent event.
//
// Two independent mechanisms cross-check each other:
//
//   1. check_replay() re-executes the bundle's run with a per-event
//      TraceChecker attached — one pass, the checker raises
//      SimError{kDivergence} at the first mismatching event;
//   2. bisect_divergence() additionally binary-searches prefix lengths,
//      re-replaying with a chain-only checker limited to the first N
//      events and comparing the observed 64-bit chain digest against
//      trace.chain_at(N). The minimal mismatching prefix ends at the
//      first divergent event.
//
// The chain digest is far stronger than a record's truncated 32-bit
// state digest, so agreement between the two passes is strong evidence
// the divergence is real and deterministic; disagreement flags a
// schedule-dependent replay, which is itself the finding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/record_replay/record_replay.hpp"
#include "core/record_replay/trace.hpp"
#include "core/replay.hpp"
#include "core/sweep.hpp"

namespace paratick::core::record_replay {

/// Outcome of one trace-checked replay.
struct ReplayCheckResult {
  SweepRun run;  // disposition of the replay (failure may be kDivergence)
  std::optional<Divergence> divergence;  // first mismatch, if any
  std::uint64_t events_checked = 0;
};

/// Replay the bundle's run with a per-event trace checker attached.
[[nodiscard]] ReplayCheckResult check_replay(SweepConfig cfg,
                                             const ReplayBundle& b,
                                             const EventTrace& trace);

struct BisectReport {
  bool diverged = false;
  std::optional<Divergence> first;  // from the per-event pass
  std::uint64_t bisect_index = 0;   // first divergent event per binary search
  bool indices_agree = false;       // both passes pin the same event
  std::uint64_t probes = 0;         // chain-probe replays the search ran
  std::uint64_t recorded_events = 0;
  SweepRun run;                     // the full checked replay's disposition
  std::string note;                 // human-readable verdict
};

/// Full pipeline: per-event check, then (on divergence) the chain binary
/// search. `progress` prints one line per probe on stderr.
[[nodiscard]] BisectReport bisect_divergence(SweepConfig cfg,
                                             const ReplayBundle& b,
                                             const EventTrace& trace,
                                             bool progress = false);

}  // namespace paratick::core::record_replay
