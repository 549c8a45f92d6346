#pragma once
// Process automaton interface (Section 2.1).
//
// Processes are interrupt-driven: the transition function fires on receipt
// of START, TIMER, or an ordinary message, as a function of current state,
// the received message, and the physical clock time — all mediated through
// Context.  Implementations must be deterministic (Section 4.2's convention:
// for each received message at most one cluster applies).

#include <cstdint>
#include <memory>

#include "proc/context.h"
#include "sim/message.h"

namespace wlsync::proc {

class Process {
 public:
  virtual ~Process() = default;

  /// START interrupt: begin the algorithm.
  virtual void on_start(Context& ctx) = 0;

  /// TIMER interrupt with the tag passed to set_timer*.
  virtual void on_timer(Context& ctx, std::int32_t tag) = 0;

  /// Ordinary message from process `m.from`.
  virtual void on_message(Context& ctx, const sim::Message& m) = 0;

  /// Real-time offset of process `id`'s broadcasts within a round: id*sigma
  /// under the Section 9.3 stagger, 0 (the default, and every adversary)
  /// when everyone broadcasts at the round base.  Read once by the PDES
  /// engine to deal topology regions to lanes by phase (engine/pdes.h);
  /// never consulted by the simulation itself.
  [[nodiscard]] virtual double broadcast_phase(std::int32_t id) const {
    (void)id;
    return 0.0;
  }
};

using ProcessPtr = std::unique_ptr<Process>;

}  // namespace wlsync::proc
