// Cancellable discrete-event priority queue.
//
// Events at equal timestamps run in schedule order (FIFO), which keeps the
// whole simulation deterministic for a given seed.
//
// Live callbacks sit in a generation-counted slot map: a flat vector of
// slots recycled through a free list, no hashing and no per-event
// allocation. schedule() builds the callable straight into its slot
// (sim::InlineCallback::emplace) and dispatch runs it there, so a callback
// is never moved between scheduling and running. An EventId packs
// (generation << 32 | slot index); a stale handle — cancelled, fired, or
// from a recycled slot — fails the generation check and is rejected in
// O(1). Cancellation is O(1) for buried events (lazy deletion), and the
// heap is compacted once dead entries outnumber live ones, so timer-heavy
// workloads (dynticks constantly reprogramming) cannot grow it far beyond
// the live event count.
//
// Dispatch (begin_dispatch / run_dispatched / end_dispatch, driven by
// Engine::step) reuses the heap root for the successor event. Almost
// every event schedules exactly one more, so instead of a pop (sift down
// to a leaf) followed by a push (sift up), the running event's entry stays
// at the root, dead, while its callback runs; the callback's first
// schedule() overwrites the root and sifts it down with an early exit. If
// the callback schedules nothing, end_dispatch() pops the root.
//
// Invariant: outside a dispatch the heap front is live. Inside one, either
// the front is live, or the root is *held* — the running event's dead
// entry — and the smaller of its two children (the next live event) is
// live. That is also the rule for holding the root at all: begin_dispatch
// keeps it only when its smaller child is live, and a cancel() that kills
// that child pops the held root at once. Either way the heap holds, at
// every cancel(), exactly the entries an eager pop-then-push queue would
// hold plus at most the held root, which the compaction check does not
// count; so compactions() is the same as with an eager pop.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/inline_callback.hpp"
#include "sim/types.hpp"

namespace paratick::sim {

/// Opaque handle to a scheduled event; used to cancel it.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return raw_ != 0; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  constexpr explicit EventId(std::uint64_t raw) : raw_(raw) {}
  std::uint64_t raw_ = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedule `fn` to fire at absolute time `when`. A callable is built in
  /// its slot; an InlineCallback is moved there.
  template <typename F>
  EventId schedule(SimTime when, F&& fn) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, InlineCallback>) {
      PARATICK_CHECK_MSG(fn != nullptr, "event callback must be callable");
      if (fn.spilled()) {
        ++spills_;
        spill_bytes_ += fn.spill_bytes();
      }
    }
    // The slot stays on the free list until commit(), so a callable whose
    // copy throws leaks nothing.
    if (free_.empty()) grow_slots();
    slots_[free_.back()].fn.emplace(std::forward<F>(fn));
    return commit(when);
  }

  /// Cancel a pending event. Returns true if it was still pending.
  bool cancel(EventId id);

  /// True if `id` refers to an event that has not yet fired or been
  /// cancelled. False for the event whose callback is running.
  [[nodiscard]] bool pending(EventId id) const { return resolve(id) != nullptr; }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the next live event. Queue must not be empty.
  [[nodiscard]] SimTime next_time() const {
    PARATICK_CHECK_MSG(live_ != 0, "next_time() on empty queue");
    return heap_[head_index()].when;
  }

  // --- dispatch: Engine::step's protocol ---

  /// The event being dispatched. The seq is the event's deterministic
  /// identity: unique, assigned at schedule time, bit-identical across
  /// runs of the same workload — what the record/replay trace stores.
  struct Dispatched {
    SimTime when;
    std::uint64_t seq;
  };

  /// Take the next live event: its id stops being pending and size()
  /// drops, but its callback stays in its slot. Queue must not be empty,
  /// and dispatches do not nest. Must be paired with end_dispatch().
  Dispatched begin_dispatch();

  /// Run the dispatched event's callback in its slot.
  void run_dispatched() { slots_[running_].fn(); }

  /// Destroy the dispatched callback, free its slot and pop the root if
  /// the callback scheduled nothing. Safe on every exit path, including a
  /// callback that threw.
  void end_dispatch() noexcept;

  /// Pop and return the next live event with its callback moved out
  /// (standalone use of the queue; Engine::step runs callbacks in place).
  struct Popped {
    SimTime when;
    std::uint64_t seq;
    Callback fn;
  };
  Popped pop();

  /// Total events ever scheduled / cancelled / fired (for stats & tests).
  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }

  /// Heap entries physically held, live + not-yet-reclaimed dead, not
  /// counting a held root (tests assert this stays within a constant
  /// factor of size()).
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size() - (root_held_ ? 1 : 0); }

  /// Slots allocated, live + free (tests assert dispatch never leaks one).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// schedule() calls that reused the held root instead of pushing.
  [[nodiscard]] std::uint64_t root_reuses() const { return root_reuses_; }

  // --- profile counters (see sim::EngineProfile) ---

  /// Callbacks that arrived heap-boxed via InlineCallback::spill().
  [[nodiscard]] std::uint64_t callback_spills() const { return spills_; }
  /// Total heap bytes behind those spilled callbacks.
  [[nodiscard]] std::uint64_t callback_spill_bytes() const { return spill_bytes_; }
  /// Most events simultaneously live over this queue's lifetime.
  [[nodiscard]] std::uint64_t slot_high_water() const { return high_water_; }
  /// Dead-entry heap rebuilds performed.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  struct Slot {
    Callback fn;
    std::uint64_t seq = 0;  // schedule order; validates heap entries after reuse
    std::uint32_t generation = 1;
    bool live = false;
  };

  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  /// Below this many entries, dead weight is negligible — skip compaction.
  static constexpr std::size_t kCompactMinEntries = 64;
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  static constexpr EventId make_id(std::uint32_t generation, std::uint32_t index) {
    return EventId{(static_cast<std::uint64_t>(generation) << 32) | index};
  }

  /// The slot `id` refers to, or nullptr if the event already fired, was
  /// cancelled, or the slot has since been recycled (generation mismatch).
  [[nodiscard]] const Slot* resolve(EventId id) const {
    const std::uint32_t index = static_cast<std::uint32_t>(id.raw_);
    const std::uint32_t generation = static_cast<std::uint32_t>(id.raw_ >> 32);
    if (index >= slots_.size()) return nullptr;
    const Slot& s = slots_[index];
    return (s.live && s.generation == generation) ? &s : nullptr;
  }

  [[nodiscard]] bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.seq == e.seq;
  }

  /// Index of the root's smaller child; heap_.size() when it has none.
  [[nodiscard]] std::size_t smaller_child() const {
    const std::size_t n = heap_.size();
    if (n < 3) return n == 2 ? 1 : n;
    return heap_[1] > heap_[2] ? 2 : 1;
  }
  /// True when the root may stay held: its smaller child (the next event)
  /// is live, or it has none.
  [[nodiscard]] bool root_holdable() const {
    const std::size_t c = smaller_child();
    return c == heap_.size() || entry_live(heap_[c]);
  }
  /// Heap index of the next live event.
  [[nodiscard]] std::size_t head_index() const { return root_held_ ? smaller_child() : 0; }

  /// Append a slot to the free list. While a callback runs, a reallocation
  /// leaves its callable behind in the old buffer (pinned_) so it is not
  /// moved mid-call.
  void grow_slots();
  /// Take free_.back() for the callable just built there and insert it.
  EventId commit(SimTime when);
  /// Mark a slot dead and bump its generation, invalidating outstanding ids.
  void kill_slot(Slot& s);
  /// Release a slot back to the free list.
  void retire_slot(std::uint32_t index);
  void pop_root();
  void release_root();
  void drop_dead_heads();
  void maybe_compact();

  // Min-heap on (when, seq) via std::*_heap with std::greater.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Slot> pinned_;  // old slot storage holding the running callable
  std::uint32_t running_ = kNoSlot;
  bool root_held_ = false;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t root_reuses_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t spill_bytes_ = 0;
  std::uint64_t high_water_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace paratick::sim
