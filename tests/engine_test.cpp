// Engine layer: slab pool handle stability and recycling, the indexed
// d-ary heap agreeing with a reference priority queue on the deterministic
// (time, tier, seq) order under random push/pop/top/pop_if interleavings,
// and run-over-run byte-identity of whole executions.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "analysis/round_trace.h"
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
/// random interleaving of push, pop, top and pop_if; every answer must agree.
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
    } else if (dice < 0.8) {
      ASSERT_EQ(key_of(pool[queue.top()]), key_of(reference.top()));
      const EventHandle handle = queue.pop();
      ASSERT_EQ(key_of(pool[handle]), key_of(reference.top()));
      pool.release(handle);
      reference.pop();
    } else {
      // The run_until gate: pop only when the head is not after `limit`.
      const double limit = drift + rng.uniform(-1.0, 2.0);
      const EventHandle handle = queue.pop_if(
          [limit](const sim::EventKey& key) { return key.time <= limit; });
      if (reference.top().time <= limit) {
        ASSERT_NE(handle, EventPool::kInvalidHandle);
        ASSERT_EQ(key_of(pool[handle]), key_of(reference.top()));
        pool.release(handle);
        reference.pop();
      } else {
        ASSERT_EQ(handle, EventPool::kInvalidHandle);
      }
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
  EXPECT_EQ(queue.pop_if([](const sim::EventKey&) { return true; }),
            EventPool::kInvalidHandle);
}

TEST(IndexedEventQueue, MatchesReferenceUnderRandomInterleaving) {
  check_queue_against_reference(11);
  check_queue_against_reference(99);
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
