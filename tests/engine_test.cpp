// Engine layer: slab pool handle stability and recycling, the indexed
// d-ary heap agreeing with a reference priority queue on the deterministic
// (time, tier, seq) order under random push/pop/top/replace_top interleavings,
// and run-over-run byte-identity of whole executions.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "analysis/round_trace.h"
#include "clock/drift.h"
#include "clock/physical_clock.h"
#include "sim/simulator.h"
#include "sim/event.h"
#include "util/rng.h"

namespace wlsync {
namespace {

using sim::Event;
using sim::EventHandle;
using sim::EventPool;

TEST(SlabPool, RecyclesReleasedSlots) {
  EventPool pool;
  const EventHandle a = pool.acquire();
  const EventHandle b = pool.acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.live(), 1u);
  const EventHandle c = pool.acquire();
  EXPECT_EQ(c, a);  // LIFO free list reuses the slot
  EXPECT_EQ(pool.capacity(), 2u);
  pool.release(b);
  pool.release(c);
}

TEST(SlabPool, ReferencesStableAcrossGrowth) {
  EventPool pool;
  const EventHandle first = pool.acquire();
  pool[first].time = 42.0;
  const Event* address = &pool[first];
  // Force several slab allocations.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5000; ++i) handles.push_back(pool.acquire());
  EXPECT_EQ(&pool[first], address);
  EXPECT_DOUBLE_EQ(pool[first].time, 42.0);
}

/// Random (time, tier) stream with deliberate collisions so the seq
/// tiebreak is exercised; seq increases with insertion order.
std::vector<Event> random_events(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Event> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Draw times from a small set: many exact ties.
    events[i].time = static_cast<double>(rng.below(count / 4 + 1)) * 0.125;
    events[i].tier = static_cast<std::int32_t>(rng.below(2));
    events[i].seq = i;
    events[i].to = static_cast<std::int32_t>(i);
  }
  return events;
}

using Key = std::tuple<double, std::int32_t, std::uint64_t>;

Key key_of(const Event& event) {
  return {event.time, event.tier, event.seq};
}

TEST(IndexedEventQueue, PopsInSortedKeyOrder) {
  EventPool pool;
  sim::IndexedEventQueue queue(pool);
  const std::vector<Event> events = random_events(4096, 7);
  for (const Event& event : events) {
    const EventHandle handle = pool.acquire();
    pool[handle] = event;
    queue.push(handle);
  }
  std::vector<Key> expected;
  expected.reserve(events.size());
  for (const Event& event : events) expected.push_back(key_of(event));
  std::sort(expected.begin(), expected.end());

  for (const Key& want : expected) {
    ASSERT_FALSE(queue.empty());
    const EventHandle handle = queue.pop();
    EXPECT_EQ(key_of(pool[handle]), want);
    pool.release(handle);
  }
  EXPECT_TRUE(queue.empty());
}

/// Drives the queue and a reference std::priority_queue through an identical
/// random interleaving of push, pop, top, top_key-gated pop and replace_top;
/// every answer must agree.
void check_queue_against_reference(std::uint64_t seed) {
  EventPool pool;
  sim::IndexedEventQueue queue(pool);
  std::priority_queue<Event, std::vector<Event>, sim::EventAfter> reference;

  util::Rng rng(seed);
  std::uint64_t next_seq = 0;
  double drift = 0.0;  // occasionally advancing time base, as in a real run
  for (int op = 0; op < 20000; ++op) {
    const double dice = queue.empty() ? 0.0 : rng.uniform(0.0, 1.0);
    if (dice < 0.55) {
      Event event;
      // Mix clustered, tied, and decreasing times around the drifting base.
      event.time = drift + static_cast<double>(rng.below(64)) * 0.03125 -
                   (rng.chance(0.1) ? 1.0 : 0.0);
      event.tier = static_cast<std::int32_t>(rng.below(2));
      event.seq = next_seq++;
      const EventHandle handle = pool.acquire();
      pool[handle] = event;
      queue.push(handle);
      reference.push(event);
      if (rng.chance(0.02)) drift += rng.uniform(0.0, 3.0);
    } else if (dice < 0.7) {
      ASSERT_EQ(key_of(pool[queue.top()]), key_of(reference.top()));
      const EventHandle handle = queue.pop();
      ASSERT_EQ(key_of(pool[handle]), key_of(reference.top()));
      pool.release(handle);
      reference.pop();
    } else if (dice < 0.85) {
      // The run_lane gate: pop only when the head is not after `limit`.
      const double limit = drift + rng.uniform(-1.0, 2.0);
      ASSERT_EQ(queue.top_key().time, reference.top().time);
      if (queue.top_key().time <= limit) {
        const EventHandle handle = queue.pop();
        ASSERT_EQ(key_of(pool[handle]), key_of(reference.top()));
        pool.release(handle);
        reference.pop();
      }
    } else {
      // A fan-out entry moving on: re-key the head in place to a later key
      // (usually) or an earlier one at the same time base, with a fresh seq
      // as its next delivery would carry.
      Event& head = pool[queue.top()];
      ASSERT_EQ(key_of(head), key_of(reference.top()));
      head.time += static_cast<double>(rng.below(16)) * 0.03125 -
                   (rng.chance(0.05) ? 0.5 : 0.0);
      head.seq = next_seq++;
      const Event moved = head;
      reference.pop();
      reference.push(moved);
      const bool stayed = queue.replace_top();
      ASSERT_EQ(stayed, key_of(reference.top()) == key_of(moved));
      ASSERT_EQ(key_of(pool[queue.top()]), key_of(reference.top()));
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  while (!queue.empty()) {
    ASSERT_FALSE(reference.empty());
    const EventHandle handle = queue.pop();
    EXPECT_EQ(key_of(pool[handle]), key_of(reference.top()));
    pool.release(handle);
    reference.pop();
  }
  EXPECT_TRUE(reference.empty());
}

TEST(IndexedEventQueue, MatchesReferenceUnderRandomInterleaving) {
  check_queue_against_reference(11);
  check_queue_against_reference(99);
}

/// Broadcasts once at START and counts what it receives.
class OneBroadcast final : public proc::Process {
 public:
  void on_start(proc::Context& ctx) override { ctx.broadcast(0, 1.0, 0); }
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override { ++received; }
  int received = 0;
};

TEST(SimulatorBudget, OverflowLeavesAQueuedFanoutIntact) {
  // One broadcast to 8 recipients is one fan-out entry, re-keyed in place
  // per delivery.  A budget of 4 events trips on the 4th delivery while
  // that entry is still queued: the throw must leave it there (no handle
  // the heap holds is released), so every later dispatch hits the same
  // guard instead of a recycled slot.
  sim::SimConfig config;
  config.max_events = 4;
  sim::Simulator sim(config, nullptr);
  for (int p = 0; p < 8; ++p) {
    sim.add_process(std::make_unique<OneBroadcast>(),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), 0.0, 1e-4),
                    0.0, /*faulty=*/false, /*start=*/p == 0 ? 0.0 : -1.0);
  }
  EXPECT_THROW(sim.run_until(1.0), std::runtime_error);
  int received = 0;
  for (int p = 0; p < 8; ++p) {
    received += dynamic_cast<OneBroadcast&>(sim.process(p)).received;
  }
  EXPECT_EQ(received, 3);  // START, then three deliveries
  EXPECT_EQ(sim.messages_sent(), 8u);
  EXPECT_EQ(sim.peak_pending(), 1u);
  EXPECT_THROW((void)sim.step(), std::runtime_error);
  EXPECT_THROW(sim.run_until(1.0), std::runtime_error);
}

// --------------------------------------------------------------------------
// Whole-execution identity run over run.

analysis::RunSpec base_spec() {
  analysis::RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 424242;
  return spec;
}

TEST(SchedulerDeterminism, RepeatedRunsAreIdentical) {
  // Same seed + spec: byte-identical traces run-over-run (no hidden state).
  analysis::Experiment first(base_spec());
  analysis::Experiment second(base_spec());
  const analysis::RunResult r1 = first.run();
  const analysis::RunResult r2 = second.run();
  EXPECT_TRUE(analysis::results_identical(r1, r2));
  EXPECT_TRUE(first.trace().same_events(second.trace()));
}

}  // namespace
}  // namespace wlsync
