#pragma once
// The name of the event scheduler, for run records.
//
// Every engine lane orders its pending events with one structure: the
// indexed 4-ary heap over pooled handles (sim::IndexedEventQueue, see
// engine/indexed_queue.h), popping the deterministic (time, tier, seq)
// order of sim::EventBefore.  There is nothing to select; this enum only
// names that scheduler in route records (RunSpec::scheduler).

#include <cstdint>

namespace wlsync::engine {

enum class SchedulerKind : std::uint8_t { kDaryHeap };

[[nodiscard]] constexpr const char* scheduler_name(SchedulerKind) noexcept {
  return "d-ary-heap";
}

}  // namespace wlsync::engine
