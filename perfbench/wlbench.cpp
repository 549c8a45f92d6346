// wlbench — the repository benchmark's measuring program.
//
// Runs one workload for a fixed host-time budget and prints what a user of
// the simulator waits for (end-to-end, untraced) or where that time goes
// (per layer, traced).  perfbench/run.py builds this binary and is the
// command to run; README.md in this directory documents the workloads,
// the metric -> layer -> workload map and the baseline figures.
//
//   wlbench --workload=NAME --seed=N --seconds=S --trace=0|1
//           [--smoke] [--expect-digest=HEX]
//
// Every layer is measured from outside: the traced run re-drives
// Experiment::run()'s steps through the library's public functions, in the
// same order, with a steady_clock span around each call, and its physics
// must equal the untraced run's bitwise.  Nothing inside src/ is traced.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// The exit code is 0 only when every check passed.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/gradient.h"
#include "analysis/measure.h"
#include "analysis/observe.h"
#include "analysis/parallel_runner.h"
#include "analysis/round_trace.h"
#include "analysis/skew.h"
#include "core/fastpath.h"
#include "core/params.h"
#include "core/welch_lynch.h"
#include "engine/pdes.h"
#include "net/partition.h"
#include "net/topology.h"
#include "proc/placement.h"
#include "sim/simulator.h"

namespace {

using namespace wlsync;
using analysis::RunResult;
using analysis::RunSpec;
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Runs `step` and adds its host seconds to `total`.  Every traced step is
/// timed even when the route skips its layer, so a bypassed layer reads the
/// cost of its skipped dispatch, never a constant 0.
template <typename Step>
void timed(double& total, Step&& step) {
  const auto start = SteadyClock::now();
  step();
  total += seconds_since(start);
}

// ------------------------------------------------------------ host facts ---

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Peak resident set of this process in MB (10^6 bytes), from VmHWM.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Resets VmHWM to the current resident set (Linux clear_refs "5"), so the
/// next peak_rss_mb() is the peak since this call.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

// ---------------------------------------------------------------- digest ---

/// FNV-1a over the exact bytes of every field analysis::results_identical
/// compares: the run's physics, not how it was computed.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(v));
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t get() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::uint64_t physics_digest(const RunResult& r) {
  Digest d;
  d.values(r.honest);
  d.value(r.gamma_bound);
  d.value(r.gamma_measured);
  d.value(r.adj_bound);
  d.value(r.max_abs_adj);
  d.values(r.begin_spread);
  d.values(r.skew_at_round);
  d.value(r.validity.holds);
  d.value(r.validity.max_upper_violation);
  d.value(r.validity.max_lower_violation);
  d.value(r.validity.measured_hi_slope);
  d.value(r.validity.measured_lo_slope);
  d.value(r.final_skew);
  d.value(r.diverged);
  d.value(r.messages);
  d.value(r.nic_dropped);
  d.value(r.starved_updates);
  d.value(r.nic.arrivals);
  d.value(r.nic.served);
  d.value(r.nic.dropped);
  d.value(r.nic.service_events);
  d.value(r.nic.worst_dropped);
  d.value(r.nic.peak_queue);
  d.value(r.nic.max_burst);
  d.value(r.tmin0);
  d.value(r.tmax0);
  d.value(r.t_end);
  d.value(r.completed_rounds);
  d.value(r.stabilized_round);
  d.value(r.stabilization_time);
  d.value(r.dynamics_applied);
  d.values(r.gradient.distances);
  d.values(r.gradient.max_skew);
  d.values(r.gradient.mean_skew);
  d.values(r.gradient.p99_skew);
  d.values(r.gradient.frontier);
  d.values(r.gradient.pair_count);
  d.value(r.gradient.slope);
  d.value(r.gradient.diameter);
  return d.get();
}

std::uint64_t fold_digests(const std::vector<std::uint64_t>& digests) {
  Digest d;
  d.values(digests);
  return d.get();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------- workloads ---

struct Workload {
  std::string name;
  std::vector<RunSpec> specs;  ///< one spec, or the sweep grid
  bool sweep = false;
  /// Check Theorem 4(a), 16 and 19 on every trial: the full mesh with
  /// n >= 3f + 1 and legal delays and drifts, i.e. the paper's hypotheses.
  bool paper_bounds = false;
};

core::Params paper_params(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                       int threads) {
  Workload w;
  w.name = name;
  RunSpec spec;
  spec.seed = seed;
  spec.engine = analysis::EngineMode::kAuto;
  if (name == "mesh_byzantine") {
    // The paper's model: full mesh, n = 3f + 1, every fault a two-faced
    // splitter in the trailing ids, bounded streaming observation.  n = 256
    // keeps a repetition near 1 s, so a run's medians are over about 20
    // repetitions (at n = 512, over 3).
    const std::int32_t n = smoke ? 16 : 256;
    spec.params = paper_params(n, (n - 1) / 3);
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = (n - 1) / 3;
    spec.rounds = smoke ? 4 : 12;
    spec.observe = true;
    spec.retain_history = false;
    w.paper_bounds = true;
    w.specs.push_back(spec);
  } else if (name == "expander_gradient") {
    // The sparse-graph gradient regime: fault-free k-regular expander with
    // post-hoc skew-vs-distance measurement; the round fast path engages.
    const std::int32_t n = smoke ? 64 : 4096;
    spec.params = paper_params(n, (n - 1) / 3);
    spec.topology.kind = net::TopologyKind::kKRegular;
    spec.topology.degree = smoke ? 4 : 16;
    spec.topology.seed = seed;
    spec.rounds = smoke ? 4 : 12;
    spec.measure_gradient = true;
    w.specs.push_back(spec);
  } else if (name == "cliques_pdes") {
    // Ring of cliques with randomly placed two-faced faults and staggered
    // broadcasts (Section 9.3): the fast path refuses, PDES runs on a
    // pinned worker count.
    const std::int32_t n = smoke ? 256 : 4096;
    spec.params = paper_params(n, (n - 1) / 3);
    spec.topology.kind = net::TopologyKind::kRingOfCliques;
    spec.topology.clique_size = smoke ? 16 : 64;
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = smoke ? 2 : 8;
    // Random positions, drawn once with the default seed (9) rather than
    // with each workload seed: where the faults sit against the PDES lane
    // cuts sets the epoch and stall counts, and a per-seed draw made the
    // work itself differ by half between seeds.  The workload seed still
    // drives delays, drifts, initial clocks and the partition.
    spec.placement_ids = proc::place_faults(net::build_topology(spec.topology, n),
                                            proc::PlacementKind::kRandom,
                                            spec.fault_count, 9);
    spec.stagger = 1e-4;
    spec.rounds = smoke ? 4 : 12;
    // Pinned, not auto-tuned: the tuner would pick 16 lanes on 4 cores and
    // read process-wide stall history.  Two lanes (the caller's `threads`)
    // leave the host's other cores to its neighbours; on one core kAuto
    // runs the event engine and the route line says so.
    spec.pdes_workers = threads;
    w.specs.push_back(spec);
  } else if (name == "paper_sweep") {
    // The paper-claim drivers' traffic: many small full-mesh trials at
    // n = 3f + 1 over every fault kind, two delay and two drift models.
    // Seeds vary fastest so every runner chunk gets the same mix of sizes.
    w.sweep = true;
    w.paper_bounds = true;
    const std::vector<std::int32_t> sizes =
        smoke ? std::vector<std::int32_t>{4, 7}
              : std::vector<std::int32_t>{4, 7, 16, 31, 64};
    const std::vector<analysis::FaultKind> faults = {
        analysis::FaultKind::kNone, analysis::FaultKind::kSilent,
        analysis::FaultKind::kSpam, analysis::FaultKind::kTwoFaced,
        analysis::FaultKind::kLiar};
    const analysis::DelayKind delays[] = {analysis::DelayKind::kUniform,
                                          analysis::DelayKind::kSplit};
    const analysis::DriftKind drifts[] = {analysis::DriftKind::kExtremal,
                                          analysis::DriftKind::kRandomWalk};
    const std::int32_t seeds = smoke ? 1 : 12;
    spec.rounds = smoke ? 6 : 20;
    // One worker per trial: PDES lanes inside pool threads would
    // oversubscribe the host (1 opts kAuto out of PDES).
    spec.pdes_workers = 1;
    for (std::int32_t s = 0; s < seeds; ++s) {
      for (std::int32_t n : sizes) {
        for (analysis::FaultKind fault : faults) {
          for (analysis::DelayKind delay : delays) {
            for (analysis::DriftKind drift : drifts) {
              RunSpec trial = spec;
              const std::int32_t f = (n - 1) / 3;
              trial.params = paper_params(n, f);
              trial.fault = fault;
              trial.fault_count = fault == analysis::FaultKind::kNone ? 0 : f;
              trial.delay = delay;
              trial.drift = drift;
              trial.seed = seed * 1000003ULL + static_cast<std::uint64_t>(
                                                   w.specs.size());
              w.specs.push_back(trial);
            }
          }
        }
      }
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

// --------------------------------------------------------- checks, route ---

/// How one trial was executed: the engine kAuto picked and why the others
/// declined.  Telemetry, not physics — but it must repeat exactly.
struct Route {
  bool fastpath = false;
  std::int32_t pdes_workers = 0;
  std::string fastpath_refusal;
  std::string pdes_refusal;
  std::int64_t exchanges = 0;  ///< fast-path exchanges
  std::int64_t epochs = 0;     ///< PDES epochs
  std::int64_t stalls = 0;     ///< PDES stalled lane-epochs

  [[nodiscard]] const char* engine() const {
    return fastpath ? "fastpath" : pdes_workers > 0 ? "pdes" : "event";
  }
  bool operator==(const Route&) const = default;
};

Route route_of(const RunResult& r) {
  return {r.fastpath_engaged, r.pdes_workers_used, r.fastpath_refusal,
          r.pdes_refusal,     r.fastpath_exchanges, r.pdes_epochs,
          r.pdes_stalls};
}

/// Empty when the trial passes the correctness gate, else why not.
std::string gate(const Workload& w, const RunSpec& spec, const RunResult& r) {
  if (r.diverged) return "diverged";
  if (r.completed_rounds < spec.rounds) {
    return "completed " + std::to_string(r.completed_rounds) + " of " +
           std::to_string(spec.rounds) + " rounds";
  }
  if (w.paper_bounds) {
    if (!(r.max_abs_adj <= r.adj_bound)) return "Theorem 4(a): |ADJ| > bound";
    if (!(r.gamma_measured <= r.gamma_bound)) return "Theorem 16: skew > gamma";
    if (!r.validity.holds) return "Theorem 19: validity envelope broken";
  }
  return {};
}

// ------------------------------------------------------------ the runs ---

struct Timing {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double end_s = 0.0;  ///< offset from the repetition's start
  std::thread::id worker;
};

struct Trial {
  RunResult result;
  Timing timing;
  std::string error;  ///< what the trial threw, if it did
};

/// One untraced trial: RunSpec -> built Experiment -> run() -> result,
/// Experiment destroyed, as analysis::run does it.
void run_trial(const RunSpec& spec, Trial& t) {
  const auto start = SteadyClock::now();
  {
    analysis::Experiment experiment(spec);
    t.timing.setup_s = seconds_since(start);
    t.result = experiment.run();
  }
  t.timing.wall_s = seconds_since(start);
}

/// Per-layer spans (seconds) and counters of one traced trial.
struct Spans {
  double wall = 0.0;        ///< the whole traced trial
  double construct = 0.0;   ///< Experiment construction (topology + build)
  double topology = 0.0;    ///< net::build_topology probe (outside `wall`)
  bool topology_in_build = false;
  double fastpath = 0.0;
  double partition = 0.0;
  double pdes = 0.0;
  double event = 0.0;
  double finalize = 0.0;
  double skew = 0.0;
  double gradient = 0.0;
  double validity = 0.0;
  std::uint64_t events = 0;         ///< all engines
  std::uint64_t serial_events = 0;  ///< dispatched inside `event`
  std::uint64_t queue_ops = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t messages = 0;
  std::uint64_t history_bytes = 0;
  std::int64_t exchanges = 0;
  std::int64_t epochs = 0;
  std::int64_t stalls = 0;
  std::int64_t lanes = 0;
  std::uint64_t samples = 0;
  std::uint64_t peak_history_bytes = 0;

  [[nodiscard]] double build() const {
    return topology_in_build ? construct - topology : construct;
  }
  [[nodiscard]] double covered() const {
    return construct + fastpath + partition + pdes + event + finalize + skew +
           gradient + validity;
  }
};

/// Experiment::run() re-driven step by step through public calls, with a
/// span around each step.  Follows the route the untraced run of the same
/// spec took (`route`), so it measures the program's own engine choice; the
/// caller checks that the physics come out bitwise identical.
RunResult run_traced(const RunSpec& spec, const Route& route, Spans& s) {
  const core::Params& p = spec.params;
  const core::Derived d = core::derive(p);

  // The topology Experiment construction materializes (sparse graphs and
  // positional placement; the full mesh stays implicit), timed on a probe
  // copy before the trial so the construction span can be split.
  auto mark = SteadyClock::now();
  s.topology_in_build = spec.topology.kind != net::TopologyKind::kFullMesh ||
                        spec.placement != proc::PlacementKind::kTrailing ||
                        !spec.placement_ids.empty();
  std::optional<net::Topology> probe;
  if (s.topology_in_build) probe = net::build_topology(spec.topology, p.n);
  s.topology = seconds_since(mark);
  probe.reset();

  RunResult result;
  const auto start = SteadyClock::now();
  {
    mark = SteadyClock::now();
    analysis::Experiment exp(spec);
    s.construct = seconds_since(mark);
    sim::Simulator& sim = exp.simulator();
    analysis::RoundTrace& trace = exp.trace();
    const std::vector<std::int32_t>& honest = exp.honest();

    result.honest = honest;
    result.gamma_bound = d.gamma;
    result.adj_bound = d.adj_bound;
    result.tmin0 = exp.tmin0();
    result.tmax0 = exp.tmax0();
    const double horizon = exp.horizon();

    // Detached on every exit path before the observer dies, as
    // Experiment::run does.
    std::unique_ptr<analysis::StreamingObserver> observer;
    struct Detach {
      sim::Simulator& sim;
      ~Detach() { sim.set_observer(nullptr); }
    } detach{sim};
    if (spec.observe) {
      observer = std::make_unique<analysis::StreamingObserver>(
          sim, exp.make_observe_spec());
      sim.set_observer(observer.get());
    }

    timed(s.fastpath, [&] {
      if (!route.fastpath) return;
      core::RoundFastPath fastpath(sim);
      fastpath.run(horizon);
      if (!fastpath.stats().engaged) {
        throw std::runtime_error("traced run: fast path did not engage");
      }
      s.exchanges = fastpath.stats().exchanges;
    });

    net::Partition part;
    timed(s.partition, [&] {
      if (route.pdes_workers <= 0) return;
      const std::int32_t workers =
          spec.pdes_workers >= 2 ? spec.pdes_workers : route.pdes_workers;
      part = net::partition_topology(exp.topology(), workers, spec.seed);
    });

    timed(s.pdes, [&] {
      if (route.pdes_workers <= 0) return;
      if (const char* blocked = engine::PdesEngine::ineligible_reason(sim, part)) {
        throw std::runtime_error(std::string("traced run: PDES refused: ") +
                                 blocked);
      }
      std::vector<analysis::RoundTrace> lane_traces(
          static_cast<std::size_t>(part.k));
      std::vector<sim::TraceSink*> lane_sinks;
      for (analysis::RoundTrace& lane_trace : lane_traces) {
        lane_sinks.push_back(&lane_trace);
      }
      engine::PdesOptions options;
      options.adaptive = spec.pdes_adaptive;
      engine::PdesEngine pdes(sim, part, lane_sinks, options);
      pdes.run_until(horizon);
      trace.absorb_all(lane_traces);
      s.epochs = pdes.stats().epochs;
      s.stalls = pdes.stats().stalls;
      s.lanes = pdes.stats().shards;
    });

    const std::uint64_t events_before = sim.events_processed();
    timed(s.event, [&] { sim.run_until(horizon); });
    s.serial_events = sim.events_processed() - events_before;

    result.t_end = sim.current_time();
    result.messages = sim.messages_sent();
    result.dynamics_applied = sim.dynamics_applied();
    result.nic_dropped = sim.nic_dropped();
    result.nic = analysis::summarize_nic(sim);
    for (std::int32_t id = 0; id < sim.process_count(); ++id) {
      if (const auto* wl =
              dynamic_cast<const core::WelchLynchProcess*>(&sim.process(id))) {
        result.starved_updates += wl->starved_updates();
      }
    }

    analysis::StreamingSummary streamed;
    timed(s.finalize, [&] {
      if (observer) streamed = observer->finalize(result.t_end);
    });

    const std::int32_t last_round = trace.last_complete_round(honest);
    result.completed_rounds = last_round + 1;
    for (std::int32_t r = 0; r <= last_round; ++r) {
      const auto times = trace.begin_times(r, honest);
      if (times.empty()) break;
      result.begin_spread.push_back(trace.begin_spread(r, honest));
      const double at = *std::max_element(times.begin(), times.end());
      timed(s.skew, [&] {
        result.skew_at_round.push_back(
            observer ? streamed.skew_at_round.at(static_cast<std::size_t>(r))
                     : analysis::skew_at(sim, honest, at));
      });
    }
    result.max_abs_adj = trace.max_abs_adjustment(honest, 0);

    const double thresh = spec.stabilize_threshold > 0.0
                              ? spec.stabilize_threshold
                              : 2.0 * d.gamma;
    std::int32_t stab = -1;
    for (auto r = static_cast<std::int32_t>(result.skew_at_round.size()) - 1;
         r >= 0 && result.skew_at_round[static_cast<std::size_t>(r)] <= thresh;
         --r) {
      stab = r;
    }
    if (stab >= 0) {
      result.stabilized_round = stab;
      const auto times = trace.begin_times(stab, honest);
      if (!times.empty()) {
        result.stabilization_time =
            *std::max_element(times.begin(), times.end()) - exp.tmax0();
      }
    }

    // The observer streamed these measurements during the run; otherwise
    // they scan the retained history now.  Either way each is one span.
    double t_steady = exp.tmax0() + d.window;
    if (last_round >= 0) {
      const auto mid = trace.begin_times(last_round / 2, honest);
      if (!mid.empty()) t_steady = *std::max_element(mid.begin(), mid.end());
    }
    timed(s.gradient, [&] {
      if (!spec.measure_gradient) return;
      result.gradient = observer ? streamed.gradient
                                 : analysis::summarize_gradient(analysis::gradient_series(
                                       sim, honest, exp.topology(), t_steady,
                                       result.t_end, p.P / 25.0));
      result.gamma_measured = result.gradient.far_skew();
    });
    timed(s.skew, [&] {
      if (!spec.measure_gradient) {
        result.gamma_measured =
            observer ? streamed.skew.max_skew
                     : analysis::skew_series(sim, honest, t_steady, result.t_end,
                                             p.P / 25.0)
                           .max_skew;
      }
      result.final_skew = observer ? streamed.final_skew
                                   : analysis::skew_at(sim, honest, result.t_end);
    });
    timed(s.validity, [&] {
      result.validity = observer ? streamed.validity
                                 : analysis::check_validity(
                                       sim, honest, p, exp.tmin0(), exp.tmax0(),
                                       exp.tmax0() + d.window, result.t_end,
                                       p.P / 10.0);
    });
    if (observer) {
      s.samples = streamed.stats.samples;
      s.peak_history_bytes = streamed.stats.peak_history_bytes;
    }
    result.diverged = !(result.gamma_measured < std::max(100.0 * d.gamma, 1.0)) ||
                      result.completed_rounds < spec.rounds / 2;

    s.events = sim.events_processed();
    s.queue_ops = sim.queue_ops();
    s.peak_pending = sim.peak_pending();
    s.messages = sim.messages_sent();
    s.history_bytes = sim.history_bytes();
  }
  s.wall = seconds_since(start);
  return result;
}

// -------------------------------------------------------------- summaries ---

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one repetition of the workload's unit of work.  The trials'
/// RunResults live only while the repetition is checked, so peak RSS is
/// one repetition's footprint, not the whole run's.
struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< summed over trials
  std::vector<Timing> timings;
  std::vector<std::uint64_t> digests;
  std::vector<Route> routes;
  std::vector<std::string> failures;  ///< per trial; empty = passed

  /// Drops the per-trial check records once they are counted.
  void forget_checks() {
    digests = {};
    routes = {};
    failures = {};
  }
};

class Bench {
 public:
  Bench(Workload w, int threads, std::optional<std::uint64_t> expect)
      : w_(std::move(w)), runner_(threads), expect_(expect) {}

  /// Untraced repetition: the whole workload, timed as the user waits.
  Rep run_untraced() {
    Rep rep;
    const std::size_t count = w_.specs.size();
    std::vector<Trial> trials(count);
    const auto start = SteadyClock::now();
    const auto run_one = [&](std::size_t i) {
      Trial& t = trials[i];
      try {
        run_trial(w_.specs[i], t);
      } catch (const std::exception& e) {
        t.error = std::string("threw: ") + e.what();
      }
      t.timing.end_s = seconds_since(start);
      t.timing.worker = std::this_thread::get_id();
    };
    if (w_.sweep) {
      runner_.run_indexed(count, run_one);
    } else {
      run_one(0);
    }
    rep.wall_s = seconds_since(start);
    for (std::size_t i = 0; i < count; ++i) {
      const Trial& t = trials[i];
      rep.setup_s += t.timing.setup_s;
      rep.timings.push_back(t.timing);
      rep.digests.push_back(physics_digest(t.result));
      rep.routes.push_back(route_of(t.result));
      rep.failures.push_back(t.error.empty() ? gate(w_, w_.specs[i], t.result)
                                             : t.error);
    }
    check_repeat(rep);
    return rep;
  }

  /// Traced repetition: every trial re-driven with per-layer spans, checked
  /// bitwise against the untraced physics.  `routes` and `digests` come
  /// from an untraced repetition.
  Rep run_traced_rep(const Rep& reference, std::vector<Spans>& spans) {
    Rep rep;
    const std::size_t count = w_.specs.size();
    std::vector<Trial> trials(count);
    spans.assign(count, Spans{});
    const auto run_one = [&](std::size_t i) {
      try {
        trials[i].result = run_traced(w_.specs[i], reference.routes[i], spans[i]);
      } catch (const std::exception& e) {
        trials[i].error = std::string("threw: ") + e.what();
      }
    };
    const auto start = SteadyClock::now();
    if (w_.sweep) {
      runner_.run_indexed(count, run_one);
    } else {
      run_one(0);
    }
    rep.wall_s = seconds_since(start);
    for (std::size_t i = 0; i < count; ++i) {
      const RunResult& r = trials[i].result;
      const Route& want = reference.routes[i];
      std::string why = trials[i].error;
      if (why.empty()) why = gate(w_, w_.specs[i], r);
      if (why.empty() && physics_digest(r) != reference.digests[i]) {
        why = "traced physics differ from the untraced run";
      }
      if (why.empty() && (spans[i].exchanges != want.exchanges ||
                          spans[i].epochs != want.epochs ||
                          spans[i].stalls != want.stalls)) {
        why = "traced engines ran different exchanges, epochs or stalls";
      }
      rep.digests.push_back(physics_digest(r));
      rep.failures.push_back(why);
    }
    return rep;
  }

  [[nodiscard]] const Workload& workload() const noexcept { return w_; }
  [[nodiscard]] int threads() const noexcept { return runner_.threads(); }
  [[nodiscard]] std::uint64_t digest() const noexcept { return first_digest_; }

 private:
  /// Every repetition must reproduce the first one's physics and route,
  /// and the expected digest: the golden one when this seed has one, else
  /// the first repetition's.
  void check_repeat(Rep& rep) {
    const std::uint64_t folded = fold_digests(rep.digests);
    if (!have_first_) {
      have_first_ = true;
      first_digest_ = folded;
      first_ = rep.digests;
      first_routes_ = rep.routes;
      expected_ = expect_.value_or(folded);
    }
    for (std::size_t i = 0; i < rep.failures.size(); ++i) {
      std::string& why = rep.failures[i];
      if (!why.empty()) continue;
      if (rep.digests[i] != first_[i]) {
        why = "physics changed between repetitions";
      } else if (!(rep.routes[i] == first_routes_[i])) {
        why = "engine route changed between repetitions";
      } else if (folded != expected_) {
        why = "digest " + hex(folded) + " != expected " + hex(expected_);
      }
    }
  }

  Workload w_;
  analysis::ParallelRunner runner_;
  std::optional<std::uint64_t> expect_;
  bool have_first_ = false;
  std::uint64_t first_digest_ = 0;
  std::uint64_t expected_ = 0;
  std::vector<std::uint64_t> first_;
  std::vector<Route> first_routes_;
};

/// Worker utilisation of one repetition: the ParallelRunner pool on the
/// sweep, the calling thread (threads = 1) on a single-run workload.
struct RunnerStats {
  double busy_frac = 0.0;
  double tail_s = 0.0;  ///< first worker idle -> repetition returned
};

RunnerStats runner_stats(const Rep& rep, int threads) {
  RunnerStats out;
  double busy = 0.0;
  std::map<std::thread::id, double> last_end;
  for (const Timing& t : rep.timings) {
    busy += t.wall_s;
    double& end = last_end[t.worker];
    end = std::max(end, t.end_s);
  }
  out.busy_frac = busy / (static_cast<double>(threads) * rep.wall_s);
  double first_idle = rep.wall_s;
  for (const auto& [worker, end] : last_end) {
    (void)worker;
    first_idle = std::min(first_idle, end);
  }
  out.tail_s = rep.wall_s - first_idle;
  return out;
}

// ------------------------------------------------------------------- main ---

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  std::optional<std::uint64_t> expect_digest;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text, int base) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, base);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || used != text.size() || text[0] == '-') {
    throw std::invalid_argument(flag + ": not a non-negative integer: " + text);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke") {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      value = argv[++i];
    }
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, value, 10);
      o.have_seed = true;
    } else if (arg == "--seconds") {
      std::size_t used = 0;
      o.seconds = std::stod(value, &used);
      if (used != value.size() || !(o.seconds > 0.0) || o.seconds > 600.0) {
        throw std::invalid_argument("--seconds: expected (0, 600]: " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace: expected 0 or 1: " + value);
      }
      o.trace = value == "1" ? 1 : 0;
    } else if (arg == "--expect-digest") {
      o.expect_digest = parse_u64(arg, value, 16);
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  if (o.workload.empty() || !o.have_seed || o.seconds <= 0.0 || o.trace < 0) {
    throw std::invalid_argument(
        "usage: wlbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--smoke] [--expect-digest HEX]");
  }
  return o;
}

void print_route(const Workload& w, const Rep& rep) {
  std::map<std::string, int> engines;
  std::map<std::string, int> fastpath_refusals;
  std::map<std::string, int> pdes_refusals;
  for (const Route& r : rep.routes) {
    ++engines[r.engine()];
    ++fastpath_refusals[r.fastpath_refusal.empty() ? "-" : r.fastpath_refusal];
    ++pdes_refusals[r.pdes_refusal.empty() ? "-" : r.pdes_refusal];
  }
  const auto join = [](const std::map<std::string, int>& m) {
    std::string out;
    for (const auto& [key, count] : m) {
      if (!out.empty()) out += "; ";
      out += "\"" + key + "\" x" + std::to_string(count);
    }
    return out;
  };
  std::printf("route engine: %s\n", join(engines).c_str());
  std::printf("route fastpath_refusal: %s\n", join(fastpath_refusals).c_str());
  std::printf("route pdes_refusal: %s\n", join(pdes_refusals).c_str());
  std::printf("route scheduler: %s  pdes_workers: %d  pdes_workers_used: %d\n",
              engine::scheduler_name(w.specs[0].scheduler), w.specs[0].pdes_workers,
              rep.routes[0].pdes_workers);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const Options& o) {
  const int cores = nproc();
  const unsigned hw = std::thread::hardware_concurrency();
  // Two threads at most, on the sweep's pool and the PDES lanes alike: on a
  // shared host every thread more than that measured the neighbours' load
  // as much as the program (the sweep's per-trial median spread 0.2-0.3
  // between runs on 4 threads).
  const int threads = std::max(1, std::min(2, cores));
  Bench bench(make_workload(o.workload, o.seed, o.smoke, threads), threads,
              o.expect_digest);
  const Workload& w = bench.workload();
  std::printf("wlbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d trials=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace, o.smoke ? 1 : 0, w.specs.size());
  std::printf("host nproc=%d hardware_concurrency=%u runner_threads=%d\n",
              cores, hw, w.sweep ? bench.threads() : 1);

  const int min_reps = o.smoke ? 1 : 3;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, int> failure_reasons;
  const auto tally = [&](const Rep& rep) {
    for (const std::string& why : rep.failures) {
      ++attempted;
      if (!why.empty()) {
        ++failed;
        ++failure_reasons[why];
      }
    }
  };

  std::vector<Metric> metrics;
  const auto start = SteadyClock::now();
  // The first repetition warms the allocator and page tables; it is
  // checked like every other but kept out of the timings.  It is also the
  // reference the traced repetitions follow and are compared against.
  const Rep reference = bench.run_untraced();
  tally(reference);
  std::vector<Rep> untraced;
  double last = 0.0;
  if (o.trace == 0) {
    // A single-run repetition sets up once and can take seconds, so each
    // one is followed by construction-only builds for a tenth of its time,
    // as many as fit, and its setup sample is the mean over its own build
    // and those: a single build's cost here is bimodal, in host phases of
    // up to a second.  A sweep repetition's sample is its summed setups.
    // setup_s is the median of the samples, like every other metric.
    // Peak memory is sampled per repetition too (VmHWM reset before each),
    // so it is the workload's own peak, not the process lifetime's.
    std::vector<double> setup;
    std::vector<double> rss;
    std::int64_t builds = 0;
    while (static_cast<int>(untraced.size()) < min_reps ||
           seconds_since(start) + last <= o.seconds) {
      reset_peak_rss();
      const auto rep_start = SteadyClock::now();
      untraced.push_back(bench.run_untraced());
      rss.push_back(peak_rss_mb());
      tally(untraced.back());
      untraced.back().forget_checks();
      const double rep_s = seconds_since(rep_start);
      double build_total = untraced.back().setup_s;
      std::int64_t rep_builds = 1;
      while (!w.sweep && seconds_since(rep_start) < 1.1 * rep_s) {
        const auto build_start = SteadyClock::now();
        const analysis::Experiment experiment(w.specs[0]);
        build_total += seconds_since(build_start);
        ++rep_builds;
      }
      setup.push_back(build_total / static_cast<double>(rep_builds));
      builds += w.sweep ? static_cast<std::int64_t>(w.specs.size()) : rep_builds;
      last = seconds_since(rep_start);
    }
    std::vector<double> wall;
    std::vector<double> trial;
    for (const Rep& rep : untraced) {
      wall.push_back(rep.wall_s);
      for (const Timing& t : rep.timings) trial.push_back(t.wall_s);
    }
    metrics = {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", median(rss), "MB"},
        {"trial_s.p50", percentile(trial, 0.50), "s"},
        {"trial_s.p90", percentile(trial, 0.90), "s"},
    };
    std::printf("samples reps=%zu (+1 warm-up) trials=%zu builds=%lld\nrep wall_s:",
                wall.size(), trial.size(), static_cast<long long>(builds));
    for (std::size_t i = 0; i < std::min<std::size_t>(wall.size(), 20); ++i) {
      std::printf(" %.4f", wall[i]);
    }
    std::printf(wall.size() > 20 ? " ...\n" : "\n");
  } else {
    std::vector<Rep> traced;
    std::vector<std::vector<Spans>> spans;
    while (static_cast<int>(traced.size()) < 2 ||
           seconds_since(start) + last <= o.seconds) {
      const auto pair_start = SteadyClock::now();
      // Alternate which side runs first so drift in host speed cancels.
      const bool traced_first = traced.size() % 2 == 1;
      std::vector<Spans> rep_spans;
      if (traced_first) {
        traced.push_back(bench.run_traced_rep(reference, rep_spans));
        untraced.push_back(bench.run_untraced());
      } else {
        untraced.push_back(bench.run_untraced());
        traced.push_back(bench.run_traced_rep(reference, rep_spans));
      }
      tally(untraced.back());
      tally(traced.back());
      untraced.back().forget_checks();
      traced.back().forget_checks();
      spans.push_back(std::move(rep_spans));
      last = seconds_since(pair_start);
    }
    // Per repetition: each layer's seconds summed over the trials (for the
    // sweep these are thread-seconds), then the median over repetitions.
    std::map<std::string, std::vector<double>> per_rep;
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    std::vector<double> busy;
    std::vector<double> tail;
    for (const Rep& rep : untraced) {
      untraced_wall.push_back(rep.wall_s);
      const RunnerStats rs = runner_stats(rep, w.sweep ? bench.threads() : 1);
      busy.push_back(rs.busy_frac);
      tail.push_back(rs.tail_s);
    }
    for (std::size_t k = 0; k < traced.size(); ++k) {
      traced_wall.push_back(traced[k].wall_s);
      Spans sum;  // spans and counts summed over the trials, peaks maxed
      double uncovered = 0.0;
      double build = 0.0;
      std::int64_t lane_epochs = 0;
      for (const Spans& s : spans[k]) {
        sum.topology += s.topology;
        build += s.build();
        sum.fastpath += s.fastpath;
        sum.partition += s.partition;
        sum.pdes += s.pdes;
        sum.event += s.event;
        sum.finalize += s.finalize;
        sum.skew += s.skew;
        sum.gradient += s.gradient;
        sum.validity += s.validity;
        sum.events += s.events;
        sum.serial_events += s.serial_events;
        sum.queue_ops += s.queue_ops;
        sum.peak_pending = std::max(sum.peak_pending, s.peak_pending);
        sum.messages += s.messages;
        sum.history_bytes = std::max(sum.history_bytes, s.history_bytes);
        sum.exchanges += s.exchanges;
        sum.epochs += s.epochs;
        sum.stalls += s.stalls;
        lane_epochs += s.epochs * s.lanes;
        sum.samples += s.samples;
        sum.peak_history_bytes = std::max(sum.peak_history_bytes, s.peak_history_bytes);
        uncovered += s.wall - s.covered();
      }
      auto& m = per_rep;
      m["net.topology_s"].push_back(sum.topology);
      m["analysis.build_s"].push_back(build);
      m["sim.event_s"].push_back(sum.event);
      m["sim.events"].push_back(static_cast<double>(sum.events));
      m["sim.queue_ops"].push_back(static_cast<double>(sum.queue_ops));
      m["sim.peak_pending"].push_back(static_cast<double>(sum.peak_pending));
      m["sim.messages"].push_back(static_cast<double>(sum.messages));
      m["sim.events_per_s"].push_back(
          sum.event > 0.0 ? static_cast<double>(sum.serial_events) / sum.event
                          : 0.0);
      m["sim.history_mb"].push_back(static_cast<double>(sum.history_bytes) / 1e6);
      m["core.fastpath_s"].push_back(sum.fastpath);
      m["core.fastpath.exchanges"].push_back(static_cast<double>(sum.exchanges));
      m["net.partition_s"].push_back(sum.partition);
      m["engine.pdes_s"].push_back(sum.pdes);
      m["engine.pdes.epochs"].push_back(static_cast<double>(sum.epochs));
      m["engine.pdes.stalls"].push_back(static_cast<double>(sum.stalls));
      m["engine.pdes.stall_rate"].push_back(
          lane_epochs > 0 ? static_cast<double>(sum.stalls) /
                                static_cast<double>(lane_epochs)
                          : 0.0);
      m["analysis.gradient_s"].push_back(sum.gradient);
      m["analysis.skew_s"].push_back(sum.skew);
      m["analysis.validity_s"].push_back(sum.validity);
      m["analysis.observe.finalize_s"].push_back(sum.finalize);
      m["analysis.observe.samples"].push_back(static_cast<double>(sum.samples));
      m["analysis.observe.peak_history_mb"].push_back(
          static_cast<double>(sum.peak_history_bytes) / 1e6);
      m["trace.uncovered_s"].push_back(uncovered);
    }
    const auto add = [&](const std::string& name, const std::string& unit) {
      metrics.push_back({name, median(per_rep.at(name)), unit});
    };
    add("net.topology_s", "s");
    add("analysis.build_s", "s");
    add("sim.event_s", "s");
    add("sim.events", "count");
    add("sim.queue_ops", "count");
    add("sim.peak_pending", "count");
    add("sim.messages", "count");
    add("sim.events_per_s", "1/s");
    add("sim.history_mb", "MB");
    add("core.fastpath_s", "s");
    add("core.fastpath.exchanges", "count");
    add("net.partition_s", "s");
    add("engine.pdes_s", "s");
    add("engine.pdes.epochs", "count");
    add("engine.pdes.stalls", "count");
    add("engine.pdes.stall_rate", "ratio");
    add("analysis.gradient_s", "s");
    add("analysis.skew_s", "s");
    add("analysis.validity_s", "s");
    add("analysis.observe.finalize_s", "s");
    add("analysis.observe.samples", "count");
    add("analysis.observe.peak_history_mb", "MB");
    metrics.push_back({"analysis.runner.busy_frac", median(busy), "ratio"});
    metrics.push_back({"analysis.runner.tail_s", median(tail), "s"});
    add("trace.uncovered_s", "s");
    const double traced_med = median(traced_wall);
    const double untraced_med = median(untraced_wall);
    metrics.push_back({"trace.wall_s", traced_med, "s"});
    metrics.push_back({"trace.overhead_frac", traced_med / untraced_med - 1.0, "ratio"});
    std::printf("samples untraced_reps=%zu traced_reps=%zu untraced_wall_s=%.6f\n",
                untraced.size(), traced.size(), untraced_med);
  }

  print_route(w, reference);
  std::printf("digest %s%s\n", hex(bench.digest()).c_str(),
              o.expect_digest ? (" expected " + hex(*o.expect_digest)).c_str()
                              : " (no golden digest for this seed)");
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;
  std::printf("failed_frac %.6g (%lld of %lld trials)\n", failed_frac,
              static_cast<long long>(failed), static_cast<long long>(attempted));
  for (const auto& [why, count] : failure_reasons) {
    std::printf("FAILED x%d: %s\n", count, why.c_str());
  }

  const bool correct = failed == 0 && attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread.  With glibc's default of an arena
  // per thread, which arena a PDES lane's pools landed in differed from
  // process to process, and cliques_pdes peaked at 121 MB in some runs of
  // one input and 168 MB in others.
  mallopt(M_ARENA_MAX, 1);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlbench: %s\n", e.what());
    return 2;
  }
}
