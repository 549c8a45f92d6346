#pragma once
// Events and the execution-order relation of Section 2.3.
//
// The only event type in the model is receive(m, p).  Execution property 4
// requires that TIMER messages arriving at real time t be ordered after any
// non-TIMER messages for the same process arriving at t; we encode that as
// an ordering tier.  Remaining ties break by insertion sequence, which makes
// every execution of the engine deterministic.
//
// Storage and ordering live in the engine layer: payloads sit in a slab
// pool (engine/event_pool.h) and IndexedEventQueue, the one event
// scheduler, keeps them in that order as 4-byte handles with cached keys
// (engine/indexed_queue.h).  Each Simulator lane owns one pool and one
// queue over it.

#include <cstdint>

#include "engine/event_pool.h"
#include "engine/indexed_queue.h"
#include "sim/message.h"

namespace wlsync::sim {

/// Internal engine routing for a popped event.
enum class EngineKind : std::uint8_t {
  kDeliver = 0,     ///< hand the message to the recipient process
  kNicArrive = 1,   ///< message reaches the recipient's bounded NIC buffer
  kNicService = 2,  ///< NIC hands the next buffered message to the process
  kFanout = 3,      ///< batched broadcast: next delivery of a FanoutRecord
  /// Apply a net::DynamicsEvent to the live graph.  `to` is the index into
  /// the installed DynamicsSpec, NOT a process id; the message is empty.
  /// Scheduled at tier 2, so at its exact instant it fires after every
  /// ordinary message and TIMER — a message sent at time t still travels
  /// the graph as it was when it was sent.
  kScenario = 4,
};

struct Event {
  double time = 0.0;
  /// 0 = ordinary, 1 = TIMER (execution property 4), 2 = scenario
  /// (net/dynamics.h graph changes — last at their instant, so same-time
  /// deliveries see the pre-change graph).
  std::int32_t tier = 0;
  /// Final deterministic tiebreak: (origin id << 40) | origin-local program
  /// order (Simulator::alloc_seq).  Intrinsic to the originating process'
  /// execution, NOT a global insertion count — the property that lets a
  /// sharded engine allocate identical seqs without a shared counter.
  std::uint64_t seq = 0;
  std::int32_t to = -1;
  EngineKind engine_kind = EngineKind::kDeliver;
  /// kFanout only: handle of the broadcast's net::FanoutRecord.  The event
  /// is keyed (time, seq, to) by the record's *next* delivery and re-armed
  /// in place after each one, so one queue entry serves the whole fan-out.
  std::uint32_t link = 0xFFFFFFFFu;
  Message msg;
};

/// "a executes strictly before b" — the deterministic total order.
struct EventBefore {
  [[nodiscard]] bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    if (a.tier != b.tier) return a.tier < b.tier;
    return a.seq < b.seq;
  }
};

/// Inverted order for max-heap containers (kept for reference comparisons).
struct EventAfter {
  [[nodiscard]] bool operator()(const Event& a, const Event& b) const noexcept {
    return EventBefore{}(b, a);
  }
};

/// The (time, tier, seq) order packed into 16 bytes, cached inside the
/// queue's heap entries so ordering never dereferences the pool.  Packing
/// tier into the top bits of seq assumes tier in [0, 3] and seq < 2^62 —
/// both structural in this model (tier is 0 ordinary / 1 TIMER, seq is an
/// insertion counter).
struct EventKey {
  double time = 0.0;
  std::uint64_t tier_seq = 0;

  [[nodiscard]] friend bool operator<(const EventKey& a,
                                      const EventKey& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.tier_seq < b.tier_seq;
  }
};

struct EventKeyOf {
  [[nodiscard]] EventKey operator()(const Event& event) const noexcept {
    return {event.time, (static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(event.tier))
                         << 62) |
                            event.seq};
  }
};

using EventPool = engine::SlabPool<Event>;
using EventHandle = EventPool::Handle;
using IndexedEventQueue = engine::IndexedQueue<EventPool, EventKeyOf>;

}  // namespace wlsync::sim
