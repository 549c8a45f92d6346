#pragma once
// Batched fan-out records for broadcast and multicast delivery.
//
// The unbatched engine turns one broadcast into deg(p) separate queue
// entries that all sit in the scheduler at once — O(n^2) pending events per
// round on a full mesh, the large-n bottleneck flagged in ROADMAP.  The
// batched path stores the whole fan-out once: at send time the simulator
// draws every per-link delay (in recipient-list order, from the same
// DelayModel/RNG stream as the unbatched path — this is what keeps
// executions bit-identical), sorts the deliveries (sort_deliveries), and
// enqueues ONE pooled event keyed by the earliest one.  When that entry
// reaches the top of the scheduler, its delivery is made and the entry is
// re-keyed in place to the following recipient (IndexedQueue::replace_top);
// while it stays minimal it simply stays on top.  Queue pressure per round
// drops from O(n^2) pending entries to O(n).  Broadcasts (the sender's
// neighborhood) and Byzantine multicasts (an adversary's explicit face
// group, proc::Context::multicast) share this one path.
//
// Sequence numbers are reserved in a block at send time, one per
// recipient in list order — exactly the numbers the unbatched path
// would have assigned — so the global (time, tier, seq) order, including
// exact-tie behaviour under extremal delay models, is unchanged.

#include <cstdint>
#include <vector>

#include "engine/event_pool.h"
#include "sim/message.h"

namespace wlsync::net {

/// One recipient of an in-flight broadcast.
struct FanoutDelivery {
  double time = 0.0;       ///< real delivery time (send time + link delay)
  std::uint64_t seq = 0;   ///< the seq the unbatched path would have used
  std::int32_t to = -1;
};

/// An in-flight broadcast: the shared payload plus its remaining
/// deliveries, sorted ascending by (time, seq).  Slab-pooled and recycled;
/// the vector keeps its capacity across reuse, so steady-state broadcasts
/// allocate nothing.
struct FanoutRecord {
  sim::Message msg;
  std::vector<FanoutDelivery> deliveries;
  std::uint32_t cursor = 0;  ///< index of the next undelivered recipient

  [[nodiscard]] bool done() const noexcept {
    return cursor >= deliveries.size();
  }
  [[nodiscard]] const FanoutDelivery& next() const noexcept {
    return deliveries[cursor];
  }
};

/// Sorts a delivery list built in ascending seq order into (time, seq)
/// order.  Delivery times are non-negative, so their IEEE bit patterns
/// order like the values: a stable LSD radix sort on those bits, one pass
/// per byte that not all keys share, keeps equal times in seq order.
/// A list whose times already ascend is left as it is; short lists (and,
/// defensively, any list with a sign bit set) take a comparison sort.  `scratch` is the radix sort's buffer; keeping
/// it across calls makes steady-state sorts allocation-free.
void sort_deliveries(std::vector<FanoutDelivery>& list,
                     std::vector<FanoutDelivery>& scratch);

using FanoutPool = engine::SlabPool<FanoutRecord>;
using FanoutHandle = FanoutPool::Handle;

}  // namespace wlsync::net
