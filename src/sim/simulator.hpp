// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events execute in (time, insertion-seq)
// order so runs are exactly reproducible for a given seed. The engine is
// built to be allocation-free in steady state:
//
//   * ordering     — a ladder queue (sim/ladder_queue.hpp): near-future
//     timer churn drains through sorted bucket promotions, far-future
//     events wait in a sorted-overflow top rung; amortized O(1) per event
//     versus the O(log n) binary heap it replaced (the heap survives as
//     sim/baseline_simulator.hpp for benchmarking and differential tests).
//   * handlers     — a slot map with a free list instead of an
//     unordered_map<EventId, std::function>: EventId encodes (slot,
//     generation), so schedule/cancel/pending are array lookups and slot
//     reuse invalidates stale ids without hashing.
//   * closures     — small-buffer storage inside the slot (<= 48 bytes for
//     trivially-copyable captures, <= 32 for non-trivial ones — which
//     covers the [this]-capture timer/MAC/traffic/channel closures); larger
//     captures go to a size-class MemoryPool and are recycled, not freed —
//     no protocol-stack closure is that large (obs_test holds
//     sim.closure_pool_spills at 0). A slot is exactly one cache line.
//
// Cancellation is O(1): the slot is released immediately and the queue
// entry becomes a tombstone, skipped on pop; the queue is compacted in
// place once tombstones reach two-thirds of the stored entries — bounding
// memory on cancel-heavy workloads (PSM/MAC keep-alive timer churn).
//
// The same pool also backs mac::Packet payloads (Packet::wrap), so the
// routing-message bodies on the transmit path recycle through it too;
// Simulator::pool() is the accessor. The pool outlives every closure the
// engine holds (destroyed with the Simulator, after all slots are drained).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "sim/ladder_queue.hpp"
#include "util/check.hpp"
#include "util/pool.hpp"

namespace eend::obs {
class CounterRegistry;
}  // namespace eend::obs

namespace eend::sim {

/// Simulation time in seconds.
using Time = double;

/// Handle for a scheduled event; used to cancel. Encodes (slot index,
/// generation): a slot's generation bumps on every release, so handles to
/// fired or cancelled events are recognized as stale in O(1).
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

/// The event-driven simulator. All protocol stacks, MACs and traffic
/// generators schedule closures on one Simulator instance per experiment.
class Simulator {
 public:
  /// Closure bytes stored inline in a slot; larger captures are pooled.
  /// Non-trivial closures reserve the buffer tail for their destroy/move
  /// hooks, leaving kInlineNonTrivial bytes of capture space.
  static constexpr std::size_t kInlineClosure = 48;
  static constexpr std::size_t kInlineNonTrivial = 32;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Absolute-time scheduling. `at` must not be in the past.
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "event handlers are void() callables");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    EEND_REQUIRE_MSG(at >= now_, "scheduling into the past: at="
                                     << at << " now=" << now_);
    if constexpr (std::is_constructible_v<bool, const Fn&>)
      EEND_REQUIRE(static_cast<bool>(fn));  // null std::function / fn ptr
    const std::uint32_t si = acquire_slot();
    Slot& s = slots_[si];
    // Trivially-copyable closures fit the whole buffer; non-trivial ones
    // leave room for their Aux record; everything else (and over-aligned
    // types) goes to the pool. The dominant [this, ctx...] capture case
    // writes invoke + kind + the bytes — one cache line, nothing else.
    constexpr bool kTrivial = std::is_trivially_copyable_v<Fn> &&
                              std::is_trivially_destructible_v<Fn>;
    constexpr bool kFitsInline =
        alignof(Fn) <= alignof(double) &&
        sizeof(Fn) <= (kTrivial ? kInlineClosure : kInlineNonTrivial);
    if constexpr (kFitsInline) {
      ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
      if constexpr (kTrivial) {
        kinds_[si] = kKindInlineTrivial;
      } else {
        const Aux aux{
            [](void* p) { static_cast<Fn*>(p)->~Fn(); },
            [](void* dst, void* src) {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
              static_cast<Fn*>(src)->~Fn();
            }};
        std::memcpy(s.buf + kInlineNonTrivial, &aux, sizeof(aux));
        kinds_[si] = kKindInlineAux;
      }
    } else {
      pooled_closures_.add();
      void* block = pool_.allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(fn));
      const OverflowRec rec{
          block, std::is_trivially_destructible_v<Fn>
                     ? nullptr
                     : +[](void* p) { static_cast<Fn*>(p)->~Fn(); }};
      std::memcpy(s.buf, &rec, sizeof(rec));
      kinds_[si] = static_cast<std::uint32_t>(sizeof(Fn));
    }
    s.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
    const std::uint32_t gen = gens_[si];
    queue_.push(QEntry{at, next_seq_++, si, gen});
    ++live_;
    return make_id(si, gen);
  }

  /// Relative scheduling: fire `delay` seconds from now (delay >= 0).
  template <typename F>
  EventId schedule_in(Time delay, F&& fn) {
    EEND_REQUIRE_MSG(delay >= 0.0, "negative delay " << delay);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op (returns false). O(1): the queue
  /// entry is left behind as a tombstone. For trivially-destructible
  /// closures (the common case) this touches only the packed gens_/kinds_
  /// arrays — never the slot's cache line.
  bool cancel(EventId id) {
    const std::uint32_t si = slot_of(id);
    if (si >= slots_.size() || gens_[si] != gen_of(id)) return false;
    const std::uint32_t kind = kinds_[si];
    if (kind != kKindInlineTrivial) destroy_closure(slots_[si], kind);
    release_slot(si);
    --live_;
    ++stale_;  // the queue entry is now a tombstone
    cancelled_.add();
    compact_if_stale();
    return true;
  }

  // A matching generation alone proves liveness: gens_[si] bumps on every
  // release, and the current value is only ever handed out (as an id) by a
  // schedule that made the slot live again.
  bool pending(EventId id) const {
    const std::uint32_t si = slot_of(id);
    return si < slots_.size() && gens_[si] == gen_of(id);
  }

  Time now() const { return now_; }

  /// Execute every event with time <= `end` (events at exactly `end` run),
  /// then leave the clock at exactly `end` — even when the queue drained
  /// before `end` or was empty to begin with. Scheduling "between the last
  /// event and end" after the call therefore throws: that time has passed.
  void run_until(Time end);

  /// Execute every remaining event (use with care: traffic generators that
  /// reschedule forever will never drain).
  void run_all();

  /// Execute the single next event; returns false if the queue is empty.
  bool step();

  std::size_t queue_size() const { return live_; }

  /// Queue storage size, including not-yet-reclaimed cancellation
  /// tombstones. Compaction keeps this within a small constant plus three
  /// times queue_size(); exposed so tests can assert the bound.
  std::size_t heap_size() const { return queue_.stored(); }

  std::uint64_t executed_events() const { return executed_; }

  /// The simulation's size-class memory pool: closure overflow blocks and
  /// mac::Packet payloads recycle through it. Single-threaded, like the
  /// simulator itself; it outlives every object the engine stores.
  util::MemoryPool& pool() { return pool_; }

  /// Publish this simulation's telemetry (sim.*, sim.ladder.*, pool.*)
  /// into `reg`. Totals derive only from simulated work, so they are a
  /// pure function of the scenario and seed. No-op with EEND_OBS off.
  void publish_counters(obs::CounterRegistry& reg) const;

  /// Sampled sim-core trace spans: emit one "sim.batch" span per
  /// `every_events` fired events on logical trace lane (pid, tid).
  /// 0 disables (the default — the per-event cost is then one load+test).
  void set_trace_sampling(std::uint64_t every_events, std::uint32_t pid,
                          std::uint32_t tid);

 private:
  /// Destroy/relocate hooks for non-trivial inline closures, stored in the
  /// tail of the slot buffer (read back via memcpy).
  struct Aux {
    void (*destroy)(void*);
    void (*relocate)(void*, void*);  // move-construct dst from src
  };
  /// Pooled-closure record, stored at the head of the slot buffer.
  struct OverflowRec {
    void* block;
    void (*destroy)(void*);  // null = trivially destructible
  };

  static constexpr std::uint32_t kKindInlineTrivial = 0;
  static constexpr std::uint32_t kKindInlineAux = 1;
  // kind >= 2: pooled closure; the value is the closure's byte size
  // (always > kInlineClosure, so the encodings cannot collide).

  /// Exactly one aligned cache line, holding only what fire() needs: the
  /// invoke trampoline and the closure bytes. Liveness, generation, kind,
  /// and the free list all live in packed side arrays, so schedule/fire
  /// touch one slot line and cancel (trivial case) touches none.
  struct alignas(64) Slot {
    void (*invoke)(void*) = nullptr;
    alignas(double) unsigned char buf[kInlineClosure];
  };
  static_assert(sizeof(Slot) == 64, "Slot must stay one cache line");

  /// Don't bother compacting queues smaller than this: the sweep has a
  /// fixed cost and tiny queues can't hold meaningful garbage.
  static constexpr std::size_t kCompactMin = 64;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t si = free_.back();
      free_.pop_back();
      slot_reuses_.add();
      return si;
    }
    return grow_slots();
  }

  void release_slot(std::uint32_t si) {
    // Stale EventIds must never match again: bump the generation (skipping
    // 0 so no id ever equals kInvalidEvent).
    if (++gens_[si] == 0) gens_[si] = 1;
    free_.push_back(si);
  }

  void destroy_closure(Slot& s, std::uint32_t kind) {
    if (kind == kKindInlineTrivial) return;
    if (kind == kKindInlineAux) {
      Aux aux;
      std::memcpy(&aux, s.buf + kInlineNonTrivial, sizeof(aux));
      aux.destroy(static_cast<void*>(s.buf));
      return;
    }
    OverflowRec rec;
    std::memcpy(&rec, s.buf, sizeof(rec));
    if (rec.destroy != nullptr) rec.destroy(rec.block);
    pool_.release(rec.block, kind);
  }

  // Sweep once tombstones dominate the stored entries: O(stored) per
  // sweep, amortized O(1) per cancel, and the queue never holds more than
  // two-thirds garbage afterwards.
  void compact_if_stale() {
    if (stale_ >= kCompactMin && stale_ * 3 > queue_.stored() * 2)
      compact_now();
  }

  std::uint32_t grow_slots();
  void fire(std::uint32_t si);
  void compact_now();
  void flush_batch_span();  // cold: emits the sampled sim-core span

  util::MemoryPool pool_;  // declared first: destroyed after the slots
  std::vector<Slot> slots_;
  // Slot metadata, packed apart from the (cache-line-sized) slots: the
  // tombstone check on every pop, the compaction sweep, and the whole
  // cancel path for trivially-destructible closures touch only these
  // 4-byte-per-slot arrays, not the slots themselves. gens_[i] bumps on
  // release (skipping 0); kinds_[i] is the closure-storage discriminator;
  // free_ is the slot free list (LIFO, so hot slots are reused first).
  // All three stay the same size as slots_.
  std::vector<std::uint32_t> gens_;
  std::vector<std::uint32_t> kinds_;
  std::vector<std::uint32_t> free_;
  LadderQueue queue_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;   // pending handlers
  std::size_t stale_ = 0;  // queue entries whose handler is gone
  obs::HotCounter slot_reuses_;
  obs::HotCounter cancelled_;
  obs::HotCounter pooled_closures_;
#if EEND_OBS_ENABLED
  // Sampled trace-span state; trace_every_ == 0 keeps fire() at one
  // load+test of extra work. Compiled out entirely with the gate off.
  std::uint64_t trace_every_ = 0;
  std::uint64_t batch_events_ = 0;
  double batch_t0_us_ = 0.0;
  std::uint32_t trace_pid_ = 0;
  std::uint32_t trace_tid_ = 0;
#endif
};

/// A restartable one-shot timer — the idiom behind ODPM keep-alive timers,
/// route-request timeouts and beacon schedules. Restarting replaces any
/// pending expiry.
class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> on_expire)
      : sim_(&sim), on_expire_(std::move(on_expire)) {}

  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm to fire `delay` seconds from now.
  void restart(Time delay);

  /// Arm only if the new expiry is later than the current one ("extend").
  void extend_to(Time delay);

  void cancel();

  bool armed() const { return id_ != kInvalidEvent && sim_->pending(id_); }

  /// Absolute expiry time while armed(); 0.0 once the timer has fired or
  /// been cancelled — the value never goes stale.
  Time expiry() const { return expiry_; }

 private:
  Simulator* sim_;
  std::function<void()> on_expire_;
  EventId id_ = kInvalidEvent;
  Time expiry_ = 0.0;
};

}  // namespace eend::sim
