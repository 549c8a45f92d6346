// Bit-identity pin for the conservative PDES engine (engine/pdes.h): every
// spec run with EngineMode::kPdes must produce results_identical output —
// bitwise-equal skews, CORR-derived series, message counts, per-round
// traces — to the pure serial event engine, for EVERY worker count.  The
// partition only decides which lane executes an event and which messages
// ride channels; per-sender RNG order, seq allocation, and delivery times
// are preserved exactly, so the sharded execution is a reordering of the
// serial one that no measured quantity can detect.  Swept here across
// topologies, delay models (each with a different lookahead floor), fault
// mixes with adversaries placed ON the cut joints, NIC ingress, and
// worker counts 1 / 2 / 8.  The staggered cases pin the phase-ordered lane
// map: identical physics and traces at 2 / 3 / 4 workers, lanes that differ
// from the shards, fewer stalls, and the shard map kept when every process
// broadcasts at the round base.  The last part pins the dispatcher: kAuto
// prefers the fast path, falls back to PDES with an explicit worker count
// (pdes_workers >= 2) or the auto-tuner's pick (pdes_workers <= 0, the
// default), and kPdes refuses ineligible specs loudly.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "analysis/parallel_runner.h"
#include "engine/pdes.h"
#include "net/partition.h"

namespace wlsync::analysis {
namespace {

RunResult run_engine(RunSpec spec, EngineMode engine,
                     std::int32_t workers = 0) {
  spec.engine = engine;
  spec.pdes_workers = workers;
  return run_experiment(spec);
}

/// The central pin: for workers in {1, 2, 8} the PDES engine runs, makes
/// epoch progress, and the measured physics are bitwise those of the
/// serial event engine.
void expect_pdes_identical(const RunSpec& spec, const char* what) {
  const RunResult event = run_engine(spec, EngineMode::kEvent);
  EXPECT_EQ(event.pdes_epochs, 0) << what;
  for (const std::int32_t workers : {1, 2, 8}) {
    const RunResult pdes = run_engine(spec, EngineMode::kPdes, workers);
    EXPECT_GE(pdes.pdes_epochs, 1) << what << ", workers " << workers;
    EXPECT_TRUE(results_identical(event, pdes))
        << what << ", workers " << workers;
  }
}

RunSpec base_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec;
  spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 11;
  return spec;
}

RunSpec cliques_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec = base_spec(n, f);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  return spec;
}

RunSpec expander_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec = base_spec(n, f);
  spec.topology.kind = net::TopologyKind::kKRegular;
  spec.topology.degree = 8;
  return spec;
}

// ------------------------------------------------------- identity pins ---

TEST(PdesPin, Topologies) {
  expect_pdes_identical(base_spec(16, 5), "WL, full mesh");
  expect_pdes_identical(cliques_spec(24, 7), "WL on ring of cliques");
  expect_pdes_identical(expander_spec(24, 7), "WL on k-regular expander");
}

TEST(PdesPin, DelayModels) {
  // Each model contributes a different conservative lookahead floor
  // (delta - eps for the stochastic ones, the exact value for the extremal
  // ones, the per-recipient minimum for kSplit); the executions must be
  // bit-identical under all of them.
  for (const DelayKind delay : {DelayKind::kUniform, DelayKind::kFast,
                                DelayKind::kSlow, DelayKind::kSplit,
                                DelayKind::kPerLink, DelayKind::kExpTrunc}) {
    RunSpec spec = cliques_spec(24, 7);
    spec.delay = delay;
    expect_pdes_identical(spec, "delay model sweep");
  }
}

TEST(PdesPin, FaultMixes) {
  // Faulty senders ignore the topology (a two-faced adversary's streams
  // reach every victim), so the lookahead drops to the global delay floor
  // — still positive, still conservative.
  RunSpec faulty = cliques_spec(24, 7);
  faulty.fault = FaultKind::kTwoFaced;
  faulty.fault_count = 2;
  expect_pdes_identical(faulty, "two-faced faults");

  RunSpec mixed = expander_spec(24, 7);
  mixed.fault_mix = {{FaultKind::kSilent, 1},
                     {FaultKind::kSpam, 1},
                     {FaultKind::kLiar, 1}};
  expect_pdes_identical(mixed, "heterogeneous fault mix");
}

TEST(PdesPin, AdversaryOnTheCutJoints) {
  // Articulation/bridge placement puts the adversary exactly where the
  // partitioner cuts (the inter-clique joints), so its per-neighbor faces
  // cross shard boundaries every round — the worst case for channel
  // ordering.
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.placement = proc::PlacementKind::kArticulation;
  expect_pdes_identical(spec, "adversary on the cut joints");
}

TEST(PdesPin, NicIngress) {
  // Store-and-forward NIC arrivals ride the channels as kNicArrive events;
  // per-port service queues are lane-local state and never cross a cut.
  RunSpec nic = cliques_spec(24, 7);
  nic.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/50e-6};
  expect_pdes_identical(nic, "NIC ingress model");

  RunSpec nic_faulty = nic;
  nic_faulty.fault = FaultKind::kSpam;
  nic_faulty.fault_count = 2;
  expect_pdes_identical(nic_faulty, "NIC ingress + spam overflow");
}

TEST(PdesPin, DriftAndVariants) {
  RunSpec drift = expander_spec(24, 7);
  drift.drift = DriftKind::kRandomWalk;
  expect_pdes_identical(drift, "random-walk drift");

  RunSpec amortized = cliques_spec(24, 7);
  amortized.amortize = 1.5;
  amortized.averaging = core::Averaging::kReducedMean;
  expect_pdes_identical(amortized, "amortized reduced-mean");

  RunSpec unbatched = cliques_spec(24, 7);
  unbatched.batch_fanout = false;
  expect_pdes_identical(unbatched, "per-recipient fan-out");
}

TEST(PdesPin, MeasurementKnobs) {
  // Gradient measurement reads retained clock histories after the run;
  // per-lane RoundTraces fold back into the experiment trace, so the
  // per-round spread/skew series match bitwise too.
  RunSpec gradient = expander_spec(24, 7);
  gradient.measure_gradient = true;
  expect_pdes_identical(gradient, "gradient measurement");
}

TEST(PdesPin, DeterministicUnderParallelRunner) {
  // PDES trials inside the trial-parallel runner: worker threads nest, and
  // every (spec, workers) cell stays bit-identical whatever the pool size.
  RunSpec base = cliques_spec(24, 7);
  base.engine = EngineMode::kPdes;
  base.pdes_workers = 4;
  const std::vector<RunSpec> specs = seed_sweep(base, 700, 4);
  const std::vector<RunResult> serial = ParallelRunner(1).run(specs);
  const std::vector<RunResult> sharded = ParallelRunner(4).run(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(results_identical(serial[i], sharded[i])) << "trial " << i;
    EXPECT_GE(serial[i].pdes_epochs, 1) << "trial " << i;
  }
}

// ------------------------------------------------ staggered lane map ---

/// The Section 9.3 stagger on a sparse Byzantine network: n = 512 ring of
/// cliques, sigma = 1e-4 (a 51 ms phase span against the 9 ms global delay
/// floor), four two-faced adversaries at random positions (which scopes
/// their faces to their neighbors).  Id-contiguous shards are active in
/// different stretches of the round here, so the engine deals
/// phase-ordered regions to lanes instead (engine/pdes.h).
RunSpec staggered_spec(std::int32_t clique, double stagger = 1e-4) {
  RunSpec spec = base_spec(512, 170);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = clique;
  spec.stagger = stagger;
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 4;
  spec.placement = proc::PlacementKind::kRandom;
  return spec;
}

/// The lane map PdesEngine derives for `spec` at `workers`, from the same
/// partition Experiment::run hands it.
std::optional<net::Partition> lanes_for(const RunSpec& spec,
                                        std::int32_t workers,
                                        net::Partition* shards) {
  Experiment exp(spec);
  *shards = net::partition_topology(exp.topology(), workers, spec.seed);
  return engine::PdesEngine::phase_lanes(exp.simulator(), *shards);
}

TEST(PdesStagger, PhaseLanesReplayTheSerialExecution) {
  for (const std::int32_t clique : {16, 32}) {
    RunSpec spec = staggered_spec(clique);
    spec.engine = EngineMode::kEvent;
    Experiment serial(spec);
    const RunResult reference = serial.run();
    for (const std::int32_t workers : {2, 3, 4}) {
      spec.engine = EngineMode::kPdes;
      spec.pdes_workers = workers;
      Experiment sharded(spec);
      const RunResult pdes = sharded.run();
      EXPECT_EQ(pdes.pdes_workers_used, workers);
      EXPECT_TRUE(results_identical(reference, pdes))
          << "clique " << clique << ", workers " << workers;
      EXPECT_TRUE(serial.trace().same_events(sharded.trace()))
          << "clique " << clique << ", workers " << workers;
      EXPECT_GT(pdes.pdes_cross_messages, 0);
      EXPECT_LE(pdes.pdes_inline_drained, pdes.pdes_cross_messages);
      EXPECT_GT(pdes.pdes_window_sum, 0.0);
    }
  }
}

TEST(PdesStagger, LanesInterleaveAndStallsFall) {
  // Stalled lane-epochs of the id-contiguous shard map (lane = shard_of)
  // on these specs, indexed [clique 16 | 32][workers - 2].
  constexpr std::int64_t kShardMapStalls[2][3] = {{9, 47, 71}, {17, 50, 98}};
  for (const std::int32_t clique : {16, 32}) {
    for (const std::int32_t workers : {2, 3, 4}) {
      const RunSpec spec = staggered_spec(clique);
      net::Partition shards;
      const std::optional<net::Partition> lanes =
          lanes_for(spec, workers, &shards);
      ASSERT_TRUE(lanes.has_value()) << "clique " << clique;
      EXPECT_EQ(lanes->k, workers);
      EXPECT_NE(lanes->shard_of, shards.shard_of);
      for (const std::int32_t size : lanes->shard_sizes) EXPECT_GT(size, 0);

      const RunResult pdes = run_engine(spec, EngineMode::kPdes, workers);
      const std::int64_t before =
          kShardMapStalls[clique == 16 ? 0 : 1][workers - 2];
      EXPECT_LT(pdes.pdes_stalls, before)
          << "clique " << clique << ", workers " << workers;
      // Below the tuner's demotion ceiling, per lane-epoch.
      EXPECT_LE(static_cast<double>(pdes.pdes_stalls),
                0.25 * static_cast<double>(pdes.pdes_epochs * workers));
    }
  }
}

TEST(PdesStagger, UnstaggeredSpecsKeepTheShardMap) {
  // All phases equal: lane = shard_of, and the epoch/stall counts are the
  // shard map's (17 windows, none idle).
  for (const std::int32_t clique : {16, 32}) {
    const RunSpec spec = staggered_spec(clique, /*stagger=*/0.0);
    for (const std::int32_t workers : {2, 3, 4}) {
      net::Partition shards;
      EXPECT_FALSE(lanes_for(spec, workers, &shards).has_value());
      const RunResult pdes = run_engine(spec, EngineMode::kPdes, workers);
      EXPECT_EQ(pdes.pdes_epochs, 17) << "clique " << clique;
      EXPECT_EQ(pdes.pdes_stalls, 0) << "clique " << clique;
    }
  }
}

// --------------------------------------------------- dispatch & telemetry ---

TEST(PdesDispatch, AutoPrefersTheFastPath) {
  // A fault-free full-mesh WL spec is fast-path eligible; kAuto must pick
  // the fast path even when the spec also opted into PDES.
  RunSpec spec = base_spec(13, 4);
  const RunResult autod = run_engine(spec, EngineMode::kAuto, /*workers=*/8);
  EXPECT_TRUE(autod.fastpath_engaged);
  EXPECT_EQ(autod.pdes_epochs, 0);
  EXPECT_TRUE(results_identical(run_engine(spec, EngineMode::kEvent), autod));
}

TEST(PdesDispatch, AutoPrefersRegionFastPathOverPdes) {
  // Faults on a sparse topology are fast-path eligible since ISSUE 8 (the
  // fault-isolating region mode); kAuto must pick the fast path ahead of
  // PDES even when the spec also opted into workers.
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  const RunResult autod = run_engine(spec, EngineMode::kAuto, /*workers=*/4);
  EXPECT_TRUE(autod.fastpath_engaged);
  EXPECT_EQ(autod.pdes_epochs, 0);
  EXPECT_TRUE(results_identical(run_engine(spec, EngineMode::kEvent), autod));
}

TEST(PdesDispatch, AutoFallsBackToPdes) {
  // Legacy ingest blocks the fast path (region mode included); with
  // pdes_workers >= 2 kAuto shards, and the refusal reason is recorded
  // instead of evaporating (the ISSUE 8 silent-fallback fix).
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.ingest = proc::IngestMode::kLegacy;
  const RunResult autod = run_engine(spec, EngineMode::kAuto, /*workers=*/4);
  EXPECT_FALSE(autod.fastpath_engaged);
  EXPECT_EQ(autod.fastpath_refusal, "legacy arrival ingestion");
  EXPECT_GE(autod.pdes_epochs, 1);
  EXPECT_TRUE(results_identical(run_engine(spec, EngineMode::kEvent), autod));
}

TEST(PdesDispatch, AutoTuneDeclinesAndSaysWhy) {
  // pdes_workers = 0 (the default) consults the auto-tuner when the fast
  // path cannot engage.  At n = 24 every candidate shard count leaves
  // lanes far below the 64-process floor, so the run stays serial — and
  // pdes_refusal records the auto-tune verdict instead of evaporating.
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.ingest = proc::IngestMode::kLegacy;
  const RunResult autod = run_engine(spec, EngineMode::kAuto);
  EXPECT_FALSE(autod.fastpath_engaged);
  EXPECT_EQ(autod.fastpath_refusal, "legacy arrival ingestion");
  EXPECT_EQ(autod.pdes_epochs, 0);
  EXPECT_EQ(autod.pdes_workers_used, 0);
  EXPECT_TRUE(autod.pdes_refusal.rfind("auto-tune declined:", 0) == 0)
      << autod.pdes_refusal;

  // pdes_workers = 1 opts kAuto out of the PDES path entirely: serial was
  // requested by name, so there is nothing to refuse.
  const RunResult serial = run_engine(spec, EngineMode::kAuto, /*workers=*/1);
  EXPECT_EQ(serial.pdes_epochs, 0);
  EXPECT_EQ(serial.pdes_refusal, "");
}

TEST(PdesDispatch, AutoTuneEngagesWhereLanesAreThickEnough) {
  // 512 processes in a ring of 6-cliques: candidate k = 8 keeps exactly 64
  // per lane and the cut is a few dozen bridge edges — the auto-tuner's
  // easiest yes.  Identical physics to the serial reference, workers_used
  // reported.
  engine::PdesTuner::instance().reset();
  RunSpec spec = cliques_spec(512, 64);
  spec.ingest = proc::IngestMode::kLegacy;  // keep the fast path out
  const RunResult serial = run_engine(spec, EngineMode::kEvent);
  const RunResult autod = run_engine(spec, EngineMode::kAuto);
  EXPECT_FALSE(autod.fastpath_engaged);
  EXPECT_EQ(autod.pdes_refusal, "") << autod.pdes_refusal;
  EXPECT_GE(autod.pdes_epochs, 1);
  EXPECT_EQ(autod.pdes_workers_used, 8);
  EXPECT_TRUE(results_identical(serial, autod));
}

TEST(PdesDispatch, StallTelemetryDemotesAWorkerCount) {
  // A recorded stall rate above the demotion ceiling steers the next
  // auto-tuned run at that (n, k) to the next candidate down.
  engine::PdesTuner::instance().reset();
  engine::PdesTuner::instance().record(512, 8, 0.9);
  RunSpec spec = cliques_spec(512, 64);
  spec.ingest = proc::IngestMode::kLegacy;
  const RunResult demoted = run_engine(spec, EngineMode::kAuto);
  EXPECT_EQ(demoted.pdes_refusal, "") << demoted.pdes_refusal;
  EXPECT_EQ(demoted.pdes_workers_used, 4);
  EXPECT_EQ(engine::PdesTuner::instance().stall_rate(512, 8), 0.9);
  engine::PdesTuner::instance().reset();
  EXPECT_LT(engine::PdesTuner::instance().stall_rate(512, 8), 0.0);
}

TEST(PdesDispatch, ForcedPdesRefusesIneligibleSpecs) {
  // Default worker count = auto-tune, which declines at n = 24 (lanes
  // thinner than the floor) — and kPdes turns that refusal into a throw.
  EXPECT_THROW((void)run_engine(cliques_spec(24, 7), EngineMode::kPdes),
               std::invalid_argument);

  // Streaming observation is a single-threaded API (one observer, one
  // monotone drain cursor) — the sharded engine must refuse it.
  RunSpec observed = cliques_spec(24, 7);
  observed.observe = true;
  EXPECT_THROW((void)run_engine(observed, EngineMode::kPdes, /*workers=*/4),
               std::invalid_argument);
}

TEST(PdesDispatch, RefusesAPartitionWithoutCutLists) {
  // The lane floors fold from shard_cuts and boundary; a bare shard_of
  // assignment is refused until net::build_cuts completes it.
  Experiment exp(cliques_spec(24, 7));
  net::Partition part;
  part.k = 2;
  for (std::int32_t id = 0; id < 24; ++id) part.shard_of.push_back(id / 12);
  EXPECT_NE(engine::PdesEngine::ineligible_reason(exp.simulator(), part),
            nullptr);
  net::build_cuts(exp.topology(), part);
  EXPECT_EQ(engine::PdesEngine::ineligible_reason(exp.simulator(), part),
            nullptr);
}

TEST(PdesTelemetry, EpochsTrackTheLookaheadWindow) {
  // Single shard: no cut edges, infinite lookahead, the whole horizon is
  // one conservative window.
  const RunResult one = run_engine(cliques_spec(24, 7), EngineMode::kPdes,
                                   /*workers=*/1);
  EXPECT_GE(one.pdes_epochs, 1);
  EXPECT_LE(one.pdes_epochs, 2);

  // Sharded: the epoch count scales with horizon / lookahead — many
  // windows, each strictly meaningful progress (stalls bounded by epochs).
  const RunResult eight = run_engine(cliques_spec(24, 7), EngineMode::kPdes,
                                     /*workers=*/8);
  EXPECT_GT(eight.pdes_epochs, one.pdes_epochs);
  EXPECT_GE(eight.pdes_stalls, 0);
  EXPECT_LE(eight.pdes_stalls, eight.pdes_epochs);
}

}  // namespace
}  // namespace wlsync::analysis
