#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace paratick::sim {

void EventQueue::grow_slots() {
  PARATICK_CHECK_MSG(slots_.size() < kNoSlot, "event slot index space exhausted");
  if (running_ != kNoSlot && pinned_.empty() && slots_.size() == slots_.capacity()) {
    // The running callback executes from slots_[running_]: move every
    // other slot to new storage and keep the old buffer until
    // end_dispatch(). Same growth as std::vector, just freed later.
    std::vector<Slot> grown;
    grown.reserve(2 * slots_.size());
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      Slot& from = slots_[i];
      Slot& to = grown.emplace_back();
      if (i != running_) to.fn = std::move(from.fn);
      to.seq = from.seq;
      to.generation = from.generation;
      to.live = from.live;
    }
    pinned_ = std::move(slots_);
    slots_ = std::move(grown);
  }
  slots_.emplace_back();
  free_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
}

EventId EventQueue::commit(SimTime when) {
  const std::uint32_t index = free_.back();
  free_.pop_back();
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[index];
  s.seq = seq;
  s.live = true;
  ++live_;
  if (live_ > high_water_) high_water_ = live_;
  const Entry e{when, seq, index};
  if (root_held_) {
    // Overwrite the running event's dead root and sift down, stopping as
    // soon as both children are later.
    root_held_ = false;
    ++root_reuses_;
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
      if (!(e > heap_[child])) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = e;
  } else {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  ++scheduled_;
  return make_id(s.generation, index);
}

void EventQueue::kill_slot(Slot& s) {
  s.live = false;
  // Skip generation 0 on wrap so a recycled slot never reproduces the
  // all-zero (invalid) id.
  if (++s.generation == 0) s.generation = 1;
  --live_;
}

void EventQueue::retire_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.fn.reset();
  kill_slot(s);
  free_.push_back(index);
}

bool EventQueue::cancel(EventId id) {
  if (resolve(id) == nullptr) return false;
  retire_slot(static_cast<std::uint32_t>(id.raw_));
  ++cancelled_;
  // A held root stays only while the next event below it is live.
  if (root_held_ && !root_holdable()) release_root();
  if (!root_held_) drop_dead_heads();
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  // Rebuild once dead entries exceed half the heap; (when, seq) ordering is
  // a total order, so the rebuilt heap pops in exactly the same sequence.
  // A held root is dead, so the rebuild drops it too.
  const std::size_t entries = heap_entries();
  if (entries < kCompactMinEntries || entries <= 2 * live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  root_held_ = false;
  ++compactions_;
}

void EventQueue::pop_root() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
}

void EventQueue::release_root() {
  root_held_ = false;
  pop_root();
}

void EventQueue::drop_dead_heads() {
  while (!heap_.empty() && !entry_live(heap_.front())) pop_root();
}

EventQueue::Dispatched EventQueue::begin_dispatch() {
  PARATICK_CHECK_MSG(live_ != 0, "dispatch from an empty queue");
  PARATICK_CHECK_MSG(running_ == kNoSlot, "nested dispatch on one queue");
  const Entry e = heap_.front();
  PARATICK_DCHECK(entry_live(e));
  kill_slot(slots_[e.slot]);
  running_ = e.slot;
  if (root_holdable()) {
    root_held_ = true;
  } else {
    pop_root();
    drop_dead_heads();
  }
  return {e.when, e.seq};
}

void EventQueue::end_dispatch() noexcept {
  if (root_held_) release_root();  // the callback scheduled nothing
  slots_[running_].fn.reset();
  if (!pinned_.empty()) std::vector<Slot>().swap(pinned_);  // destroys the running callable
  free_.push_back(running_);
  running_ = kNoSlot;
}

EventQueue::Popped EventQueue::pop() {
  const Dispatched d = begin_dispatch();
  Popped out{d.when, d.seq, std::move(slots_[running_].fn)};
  end_dispatch();
  return out;
}

}  // namespace paratick::sim
