// Oracle tests for Engine::step's dispatch path.
//
// Engine::step runs each callback in its slot and leaves the running
// event's entry at the heap root for the successor event to reuse (see
// sim/event_queue.hpp). ReferenceQueue below is the plain eager
// pop-then-push queue that dispatch replaced: the same slot map and
// compaction rule, but every dispatch pops the root and moves the callback
// out before running it. Both run the same random traces in lockstep, and
// every observable must agree after every dispatch: execution order (seq),
// each pending()/cancel() result, size(), next_time(), compactions(),
// slot_high_water() and heap_entries(). Callbacks schedule 0, 1 or many
// events (delay 0 included), cancel their own id, the next head and
// random ids, query the queue, and sometimes throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_callback.hpp"
#include "sim/rng.hpp"

namespace paratick::sim {
namespace {

// ---------------------------------------------------------------------------
// The eager-pop queue that Engine::step's dispatch replaced.
// ---------------------------------------------------------------------------

class ReferenceQueue {
 public:
  using Id = std::uint64_t;

  Id schedule(SimTime when, InlineCallback fn) {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    const std::uint64_t seq = next_seq_++;
    Slot& s = slots_[index];
    s.fn = std::move(fn);
    s.seq = seq;
    s.live = true;
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    heap_.push_back(Entry{when, seq, index});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++scheduled_;
    return (static_cast<std::uint64_t>(s.generation) << 32) | index;
  }

  bool cancel(Id id) {
    if (resolve(id) == nullptr) return false;
    retire_slot(static_cast<std::uint32_t>(id));
    ++cancelled_;
    drop_dead_heads();
    maybe_compact();
    return true;
  }

  [[nodiscard]] bool pending(Id id) const { return resolve(id) != nullptr; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] SimTime next_time() const { return heap_.front().when; }

  struct Popped {
    SimTime when;
    std::uint64_t seq;
    InlineCallback fn;
  };
  Popped pop() {
    const Entry e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    Popped out{e.when, e.seq, std::move(slots_[e.slot].fn)};
    retire_slot(e.slot);
    drop_dead_heads();
    return out;
  }

  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t slot_high_water() const { return high_water_; }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  struct Slot {
    InlineCallback fn;
    std::uint64_t seq = 0;
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
  static constexpr std::size_t kCompactMinEntries = 64;

  [[nodiscard]] const Slot* resolve(Id id) const {
    const auto index = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (index >= slots_.size()) return nullptr;
    const Slot& s = slots_[index];
    return (s.live && s.generation == generation) ? &s : nullptr;
  }
  [[nodiscard]] bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.seq == e.seq;
  }
  void retire_slot(std::uint32_t index) {
    Slot& s = slots_[index];
    s.fn.reset();
    s.live = false;
    if (++s.generation == 0) s.generation = 1;
    free_.push_back(index);
    --live_;
  }
  void drop_dead_heads() {
    while (!heap_.empty() && !entry_live(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
  }
  void maybe_compact() {
    if (heap_.size() < kCompactMinEntries || heap_.size() <= 2 * live_) return;
    std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++compactions_;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t high_water_ = 0;
  std::uint64_t compactions_ = 0;
};

// ---------------------------------------------------------------------------
// Backends: the real Engine, and an engine loop around ReferenceQueue.
// ---------------------------------------------------------------------------

class EngineBackend : public EventObserver {
 public:
  using Id = EventId;
  EngineBackend() { engine_.set_observer(this); }
  void on_event_executed(Engine&, SimTime, std::uint64_t seq) override { last_seq_ = seq; }

  template <typename F>
  Id schedule(SimTime delay, F&& fn) { return engine_.schedule_after(delay, std::forward<F>(fn)); }
  bool cancel(Id id) { return engine_.cancel(id); }
  [[nodiscard]] bool pending(Id id) const { return engine_.pending(id); }
  [[nodiscard]] SimTime now() const { return engine_.now(); }
  [[nodiscard]] const EventQueue& queue() const { return engine_.queue(); }
  bool step() { return engine_.step(); }
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }
  Engine& engine() { return engine_; }

 private:
  Engine engine_;
  std::uint64_t last_seq_ = 0;
};

class ReferenceBackend {
 public:
  using Id = ReferenceQueue::Id;

  template <typename F>
  Id schedule(SimTime delay, F&& fn) {
    return q_.schedule(now_ + delay, InlineCallback(std::forward<F>(fn)));
  }
  bool cancel(Id id) { return q_.cancel(id); }
  [[nodiscard]] bool pending(Id id) const { return q_.pending(id); }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] const ReferenceQueue& queue() const { return q_; }
  bool step() {
    if (q_.empty()) return false;
    auto [when, seq, fn] = q_.pop();
    now_ = when;
    fn();
    last_seq_ = seq;  // like the engine's observer: only after a clean run
    return true;
  }
  /// What Engine::step does when its wall limit trips: the event is
  /// popped and dropped unrun.
  std::uint64_t drop_next() {
    const auto p = q_.pop();
    now_ = p.when;
    return p.seq;
  }
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }

 private:
  ReferenceQueue q_;
  SimTime now_ = SimTime::zero();
  std::uint64_t last_seq_ = 0;
};

// ---------------------------------------------------------------------------
// The trace: identical logic over either backend.
// ---------------------------------------------------------------------------

struct TraceConfig {
  std::uint64_t seed = 1;
  double throw_p = 0.0;  // chance that a "rare" op throws SimError
};

template <typename Backend>
class Side {
 public:
  explicit Side(TraceConfig cfg) : cfg_(cfg) {}
  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;

  Backend b;
  std::vector<std::int64_t> log;  // every observation, compared across sides
  std::uint64_t head_cancels_before_schedule = 0;
  std::uint64_t throws_before_schedule = 0;
  std::uint64_t throws_after_schedule = 0;

  void seed_events(int n) {
    Rng r{cfg_.seed};
    for (int i = 0; i < n; ++i) schedule(SimTime::ns(10 * r.uniform_int(0, 500)));
  }

  /// Ids by seq - 1, so both sides name events the same way.
  [[nodiscard]] typename Backend::Id id_of(std::uint64_t seq) const { return ids_[seq - 1]; }
  [[nodiscard]] std::size_t model_size() const { return model_.size(); }
  /// Drop an event the engine consumed without running it.
  void forget(std::uint64_t seq) { model_.erase({whens_[seq - 1].nanoseconds(), seq}); }

 private:
  enum Tag : std::int64_t {
    kRun = -1, kDone = -2, kCancel = -3, kPending = -4, kSize = -5,
    kNext = -6, kEmpty = -7, kThrow = -8,
  };

  void note(Tag tag, std::int64_t value) {
    log.push_back(tag);
    log.push_back(value);
  }

  std::uint64_t schedule(SimTime delay) {
    const std::uint64_t seq = ids_.size() + 1;
    const SimTime when = b.now() + delay;
    // The capture is read again after run() returns: run() may grow the
    // slot storage, and the running callable must not have moved.
    ids_.push_back(b.schedule(delay, [this, seq] {
      run(seq);
      note(kDone, static_cast<std::int64_t>(seq));
    }));
    whens_.push_back(when);
    model_.insert({when.nanoseconds(), seq});
    return seq;
  }

  void cancel(std::uint64_t seq) {
    const bool ok = b.cancel(id_of(seq));
    if (ok) model_.erase({whens_[seq - 1].nanoseconds(), seq});
    note(kCancel, ok ? 1 : 0);
  }

  void query(std::uint64_t seq) {
    note(kPending, b.pending(id_of(seq)) ? 1 : 0);
    note(kSize, static_cast<std::int64_t>(b.queue().size()));
    if (b.queue().empty()) {
      note(kEmpty, 0);
    } else {
      note(kNext, b.queue().next_time().nanoseconds());
    }
  }

  SimTime draw_delay(Rng& r) {
    const std::int64_t kind = r.uniform_int(0, 9);
    if (kind < 2) return SimTime::zero();
    // Multiples of 10 ns make equal timestamps common: FIFO matters.
    if (kind < 6) return SimTime::ns(10 * r.uniform_int(0, 20));
    return SimTime::ns(10 * r.uniform_int(0, 5000));
  }

  void run(std::uint64_t seq) {
    model_.erase({whens_[seq - 1].nanoseconds(), seq});
    note(kRun, static_cast<std::int64_t>(seq));
    Rng r{cfg_.seed * 0x9E3779B97F4A7C15ull + seq};
    bool scheduled = false;
    const std::int64_t ops = 1 + r.uniform_int(0, 4);
    for (std::int64_t op = 0; op < ops; ++op) {
      switch (r.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          const std::size_t live = model_.size();
          std::int64_t n;
          if (live < 40) {
            n = 4;
          } else if (live > 120) {
            n = r.uniform_int(0, 1);
          } else {
            const std::int64_t x = r.uniform_int(0, 19);
            n = x < 5 ? 0 : x < 16 ? 1 : r.uniform_int(2, 4);
          }
          for (std::int64_t i = 0; i < n; ++i) schedule(draw_delay(r));
          scheduled = scheduled || n > 0;
          break;
        }
        case 4:
          cancel(seq);  // the running event: never pending
          break;
        case 5:
          if (!model_.empty()) {
            if (!scheduled) ++head_cancels_before_schedule;
            cancel(model_.begin()->second);  // the next head
          }
          break;
        case 6:
          if (!model_.empty()) {
            auto it = model_.begin();
            std::advance(it, r.uniform_int(0, static_cast<std::int64_t>(model_.size()) - 1));
            cancel(it->second);
          }
          break;
        case 7: {
          // Any event ever scheduled: mostly fired or cancelled, so stale.
          const auto other = static_cast<std::uint64_t>(
              r.uniform_int(1, static_cast<std::int64_t>(ids_.size())));
          query(other);
          cancel(other);
          break;
        }
        case 8:
          query(seq);
          break;
        default: {
          if (cfg_.throw_p > 0.0 && r.bernoulli(cfg_.throw_p)) {
            note(kThrow, static_cast<std::int64_t>(seq));
            ++(scheduled ? throws_after_schedule : throws_before_schedule);
            throw SimError(SimError::Kind::kCheck, "trace", __FILE__, __LINE__,
                           "injected callback failure", b.now(), 0);
          }
          const double x = r.next_double();
          if (x < 0.02) {
            // Cancel half the pending events: drives compaction, with the
            // running event's root still held when nothing was scheduled.
            std::vector<std::uint64_t> victims;
            for (const auto& [when, s] : model_) {
              if (r.bernoulli(0.5)) victims.push_back(s);
            }
            for (const std::uint64_t v : victims) cancel(v);
          } else if (x < 0.03) {
            // A burst large enough to grow the slot storage mid-callback.
            for (int i = 0; i < 150; ++i) schedule(draw_delay(r));
            scheduled = true;
          }
          break;
        }
      }
    }
  }

  TraceConfig cfg_;
  std::vector<typename Backend::Id> ids_;
  std::vector<SimTime> whens_;
  std::set<std::pair<std::int64_t, std::uint64_t>> model_;  // pending (when, seq)
};

using RealSide = Side<EngineBackend>;
using RefSide = Side<ReferenceBackend>;

/// Every queue-level observable agrees between the two sides.
void expect_same_state(const RealSide& real, const RefSide& ref) {
  const EventQueue& a = real.b.queue();
  const ReferenceQueue& b = ref.b.queue();
  ASSERT_EQ(real.log, ref.log);
  ASSERT_EQ(real.b.last_seq(), ref.b.last_seq());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), real.model_size());
  ASSERT_EQ(a.scheduled_count(), b.scheduled_count());
  ASSERT_EQ(a.cancelled_count(), b.cancelled_count());
  ASSERT_EQ(a.compactions(), b.compactions());
  ASSERT_EQ(a.slot_high_water(), b.slot_high_water());
  ASSERT_EQ(a.heap_entries(), b.heap_entries());
  if (!a.empty()) {
    ASSERT_EQ(a.next_time(), b.next_time());
  }
  // A dispatch never leaks a slot: at most one (the running event's)
  // beyond the most ever live.
  ASSERT_LE(a.slot_count(), a.slot_high_water() + 1);
}

/// Step both sides once; true when one ran (or threw out of) an event.
bool step_both(RealSide& real, RefSide& ref) {
  bool real_threw = false;
  bool ref_threw = false;
  bool ran = false;
  try {
    ran = real.b.step();
  } catch (const SimError&) {
    real_threw = ran = true;
  }
  try {
    ref.b.step();
  } catch (const SimError&) {
    ref_threw = true;
  }
  EXPECT_EQ(real_threw, ref_threw);
  return ran;
}

void run_lockstep(RealSide& real, RefSide& ref, int dispatches) {
  for (int i = 0; i < dispatches; ++i) {
    ASSERT_TRUE(step_both(real, ref)) << "queue drained at dispatch " << i;
    ASSERT_NO_FATAL_FAILURE(expect_same_state(real, ref)) << "after dispatch " << i;
  }
}

TEST(DispatchOracle, RandomTracesMatchEagerPop) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0xC0FFEEull}) {
    SCOPED_TRACE(seed);
    const TraceConfig cfg{seed, 0.0};
    RealSide real{cfg};
    RefSide ref{cfg};
    real.seed_events(60);
    ref.seed_events(60);
    ASSERT_NO_FATAL_FAILURE(run_lockstep(real, ref, 12'000));

    // The trace reached every path it is meant to cover.
    const EventQueue& q = real.b.queue();
    EXPECT_GT(q.root_reuses(), 4'000u);
    EXPECT_GT(q.compactions(), 0u);
    EXPECT_GT(real.head_cancels_before_schedule, 100u);
    EXPECT_GT(q.slot_count(), 150u);  // bursts grew the slots mid-callback
  }
}

TEST(DispatchOracle, ThrowingCallbacksLeaveTheQueueConsistent) {
  // A callback that throws SimError, before or after its first schedule(),
  // must end its dispatch cleanly: the held root popped, the slot freed,
  // and the rest of the run identical to the eager-pop queue's. Over
  // thousands of throw/recover cycles no slot may leak.
  const TraceConfig cfg{7, 0.25};
  RealSide real{cfg};
  RefSide ref{cfg};
  real.seed_events(60);
  ref.seed_events(60);
  ASSERT_NO_FATAL_FAILURE(run_lockstep(real, ref, 20'000));
  EXPECT_GT(real.throws_before_schedule, 300u);
  EXPECT_GT(real.throws_after_schedule, 300u);
  EXPECT_GE(real.throws_before_schedule + real.throws_after_schedule, 1'000u);
  const EventQueue& q = real.b.queue();
  EXPECT_LE(q.slot_count(), q.slot_high_water() + 1);
  EXPECT_LE(q.slot_high_water(), 1'000u);
}

TEST(DispatchOracle, ThrownEventIdIsStale) {
  Engine e;
  EventId self;
  EventId later;
  self = e.schedule_after(SimTime::ns(5), [&] {
    EXPECT_FALSE(e.pending(self));
    EXPECT_FALSE(e.cancel(self));
    later = e.schedule_after(SimTime::ns(5), [] {});
    throw SimError(SimError::Kind::kCheck, "x", __FILE__, __LINE__, "boom", e.now(), 0);
  });
  const EventId other = e.schedule_after(SimTime::ns(7), [] {});
  EXPECT_THROW(e.step(), SimError);
  EXPECT_FALSE(e.pending(self));
  EXPECT_FALSE(e.cancel(self));
  EXPECT_TRUE(e.pending(later));
  EXPECT_TRUE(e.pending(other));
  EXPECT_EQ(e.queue().size(), 2u);
  EXPECT_EQ(e.queue().next_time(), SimTime::ns(7));
  e.run();
  EXPECT_EQ(e.events_executed(), 3u);
  EXPECT_TRUE(e.queue().empty());
}

TEST(DispatchOracle, WallLimitTimeoutDropsTheEventLikeEagerPop) {
  // The wall-limit check runs after the event is taken from the queue, so
  // a kTimeout consumes that event unrun — as the eager-pop step did.
  const TraceConfig cfg{11, 0.0};
  RealSide real{cfg};
  RefSide ref{cfg};
  real.seed_events(60);
  ref.seed_events(60);
  real.b.engine().set_wall_limit(0.05);
  ASSERT_NO_FATAL_FAILURE(run_lockstep(real, ref, 1));  // arms the budget
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The budget is checked every 512 events: these run before the check.
  ASSERT_NO_FATAL_FAILURE(run_lockstep(real, ref, 511));

  bool timed_out = false;
  try {
    real.b.step();
  } catch (const SimError& err) {
    timed_out = err.kind() == SimError::Kind::kTimeout;
  }
  ASSERT_TRUE(timed_out);
  const std::uint64_t dropped = ref.b.drop_next();
  EXPECT_FALSE(real.b.pending(real.id_of(dropped)));
  EXPECT_FALSE(real.b.cancel(real.id_of(dropped)));
  EXPECT_FALSE(ref.b.cancel(ref.id_of(dropped)));
  EXPECT_EQ(real.b.now(), ref.b.now());
  real.forget(dropped);
  ref.forget(dropped);
  real.b.engine().set_wall_limit(0.0);
  ASSERT_NO_FATAL_FAILURE(expect_same_state(real, ref));
  ASSERT_NO_FATAL_FAILURE(run_lockstep(real, ref, 2'000));
}

}  // namespace
}  // namespace paratick::sim
