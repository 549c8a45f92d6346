// Adversary framework: honest processes cannot use Byzantine powers; each
// adversary behaves per its contract; a two-faced adversary's batched
// multicast executes exactly like sending to each victim in turn.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "analysis/round_trace.h"
#include "clock/drift.h"
#include "proc/adversaries.h"
#include "proc/placement.h"
#include "sim/simulator.h"

namespace wlsync::proc {
namespace {

std::unique_ptr<clk::PhysicalClock> perfect_clock() {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), 0.0,
                                              1e-4);
}

/// An honest process that (incorrectly) tries to read real time.
class Cheater : public Process {
 public:
  void on_start(Context& ctx) override {
    (void)AdversaryContext::from(ctx).real_time();
  }
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}
};

TEST(AdversaryPowers, HonestProcessCannotUseThem) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Cheater>(), perfect_clock(), 0.0,
                  /*faulty=*/false, 0.0);
  EXPECT_THROW(sim.run_until(1.0), std::logic_error);
}

TEST(AdversaryPowers, FaultyProcessCanUseThem) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Cheater>(), perfect_clock(), 0.0,
                  /*faulty=*/true, 0.0);
  EXPECT_NO_THROW(sim.run_until(1.0));
}

/// Counts received messages.
class Counter : public Process {
 public:
  void on_start(Context&) override {}
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override { ++count; }
  int count = 0;
};

TEST(SpamAdversary, FloodsRecipients) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  SpamAdversary::Config spam;
  spam.period = 0.01;
  spam.burst = 5;
  sim.add_process(std::make_unique<SpamAdversary>(spam), perfect_clock(), 0.0,
                  true, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(1.0);
  EXPECT_GT(sim.messages_sent(), 100u);
}

TEST(SilentAdversary, SendsNothing) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<SilentAdversary>(), perfect_clock(), 0.0,
                  true, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(1.0);
  EXPECT_EQ(sim.messages_sent(), 0u);
}

/// Broadcasts one message on start and on every timer.
class Beacon : public Process {
 public:
  void on_start(Context& ctx) override {
    ctx.broadcast(/*tag=*/1, /*value=*/100.0, 0);
  }
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}
};

TEST(TwoFacedAdversary, PredictsNextRoundAndSendsTwoFaces) {
  sim::SimConfig config;
  config.delta = 0.01;
  config.eps = 0.001;
  sim::Simulator sim(config, nullptr);
  TwoFacedAdversary::Config two_faced;
  two_faced.pivot = 1;       // id 0 gets the early face
  two_faced.honest_end = 3;  // ids 1, 2 get the late face
  two_faced.tag = 1;
  two_faced.P = 0.5;
  two_faced.delta = config.delta;
  two_faced.beta = 0.1;  // wide span so the two faces are clearly separated
  // id 0, 1: counters; id 2: beacon (honest trigger); id 3: adversary.
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false, -1.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false, -1.0);
  sim.add_process(std::make_unique<Beacon>(), perfect_clock(), 0.0, false, 0.0);
  sim.add_process(std::make_unique<TwoFacedAdversary>(two_faced),
                  perfect_clock(), 0.0, true, 0.0);

  // Beacon's broadcast reaches the adversary at ~0.01; it schedules the
  // attack for the *predicted next round* at ~0.5: early face sent at
  // ~0.5 + 0.1*0.1, late at ~0.5 + 0.9*0.1.
  auto& early = dynamic_cast<Counter&>(sim.process(0));
  auto& late = dynamic_cast<Counter&>(sim.process(1));
  sim.run_until(0.05);
  EXPECT_EQ(early.count, 1);  // beacon only, attack still pending
  EXPECT_EQ(late.count, 1);
  sim.run_until(0.55);
  EXPECT_EQ(early.count, 2);  // early face landed
  EXPECT_EQ(late.count, 1);   // late face still pending
  sim.run_until(0.75);
  EXPECT_EQ(late.count, 2);   // late face landed
  EXPECT_EQ(early.count, 2);  // and only the chosen group got each face
}

// --------------------------------------------------------- sparse graphs ---
//
// The suite above exercises adversaries on the full mesh only.  These cases
// run the same fault kinds through the experiment harness on sparse
// exchange graphs, where honest processes clamp their clipping budget to
// the local neighbor view (f_local = (deg - 1) / 3): the two-faced attack
// must stay survivable even when every adversary sits at a structurally
// critical position and lies per-neighbor.

analysis::RunSpec sparse_fault_spec(net::TopologyKind kind) {
  analysis::RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;  // clique size 6 -> f_local = (6 - 1) / 3 = 1
  spec.rounds = 10;
  spec.seed = 808;
  spec.topology.kind = kind;
  spec.topology.clique_size = 6;
  spec.topology.degree = 6;
  return spec;
}

TEST(SparseFaults, TwoFacedAtJointsOfRingOfCliques) {
  analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kRingOfCliques);
  spec.placement = PlacementKind::kArticulation;  // joints via degree fallback
  const analysis::RunResult result = analysis::run_experiment(spec);
  EXPECT_FALSE(result.diverged);
  EXPECT_GE(result.completed_rounds, spec.rounds);
  EXPECT_LT(result.gamma_measured, 10.0 * result.gamma_bound);
}

TEST(SparseFaults, TwoFacedOnExpanderEveryPlacement) {
  for (const PlacementKind placement :
       {PlacementKind::kTrailing, PlacementKind::kRandom,
        PlacementKind::kMaxDegree, PlacementKind::kAntipodal}) {
    analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kKRegular);
    spec.placement = placement;
    const analysis::RunResult result = analysis::run_experiment(spec);
    EXPECT_FALSE(result.diverged) << placement_name(placement);
    EXPECT_GE(result.completed_rounds, spec.rounds) << placement_name(placement);
    EXPECT_LT(result.gamma_measured, 10.0 * result.gamma_bound)
        << placement_name(placement);
  }
}

TEST(SparseFaults, SilentAndSpamRespectLocalQuorums) {
  for (const analysis::FaultKind fault :
       {analysis::FaultKind::kSilent, analysis::FaultKind::kSpam}) {
    analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kRingOfCliques);
    spec.fault = fault;
    spec.placement = PlacementKind::kRandom;
    const analysis::RunResult result = analysis::run_experiment(spec);
    EXPECT_FALSE(result.diverged) << static_cast<int>(fault);
    EXPECT_GE(result.completed_rounds, spec.rounds);
  }
}

TEST(CrashAdversary, StopsAtCrashTime) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);

  /// Inner process that broadcasts on every timer tick.
  class Ticker : public Process {
   public:
    void on_start(Context& ctx) override {
      ctx.set_timer(ctx.local_time() + 0.1, 1);
    }
    void on_timer(Context& ctx, std::int32_t) override {
      ctx.broadcast(0, 0.0, 0);
      ctx.set_timer(ctx.local_time() + 0.1, 1);
    }
    void on_message(Context&, const sim::Message&) override {}
  };

  sim.add_process(
      std::make_unique<CrashAdversary>(std::make_unique<Ticker>(), 0.55),
      perfect_clock(), 0.0, true, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(2.0);
  auto& counter = dynamic_cast<Counter&>(sim.process(1));
  // Ticks at 0.1..0.5 broadcast (5 messages to each of 2 recipients); the
  // 0.6 tick is past the crash.
  EXPECT_EQ(counter.count, 5);
  EXPECT_TRUE(
      dynamic_cast<CrashAdversary&>(sim.process(0)).crashed());
}


// --------------------------------------- multicast vs per-recipient sends ---

/// Forwards every call to the simulator's context except multicast, which
/// keeps Context's default body: one send() per recipient, in list order.
class PerRecipientContext final : public AdversaryContext {
 public:
  explicit PerRecipientContext(Context& inner)
      : inner_(AdversaryContext::from(inner)) {}

  [[nodiscard]] std::int32_t id() const override { return inner_.id(); }
  [[nodiscard]] std::int32_t process_count() const override {
    return inner_.process_count();
  }
  [[nodiscard]] std::span<const std::int32_t> neighbors() const override {
    return inner_.neighbors();
  }
  [[nodiscard]] double physical_time() const override {
    return inner_.physical_time();
  }
  [[nodiscard]] double local_time() const override { return inner_.local_time(); }
  [[nodiscard]] double corr() const override { return inner_.corr(); }
  void add_corr(double adj) override { inner_.add_corr(adj); }
  void add_corr_amortized(double adj, double duration) override {
    inner_.add_corr_amortized(adj, duration);
  }
  void broadcast(std::int32_t tag, double value, std::int32_t aux) override {
    inner_.broadcast(tag, value, aux);
  }
  void send(std::int32_t to, std::int32_t tag, double value,
            std::int32_t aux) override {
    inner_.send(to, tag, value, aux);
  }
  void set_timer(double logical_time, std::int32_t tag) override {
    inner_.set_timer(logical_time, tag);
  }
  void set_timer_physical(double physical_time, std::int32_t tag) override {
    inner_.set_timer_physical(physical_time, tag);
  }
  void annotate(const Annotation& annotation) override {
    inner_.annotate(annotation);
  }
  [[nodiscard]] double real_time() const override { return inner_.real_time(); }
  void set_timer_real(double real_time, std::int32_t tag) override {
    inner_.set_timer_real(real_time, tag);
  }

 private:
  AdversaryContext& inner_;
};

/// The splitter with every face group sent one victim at a time.
class PerRecipientTwoFaced final : public Process {
 public:
  explicit PerRecipientTwoFaced(TwoFacedAdversary::Config config)
      : inner_(std::move(config)) {}

  void on_start(Context& ctx) override {
    PerRecipientContext looped(ctx);
    inner_.on_start(looped);
  }
  void on_timer(Context& ctx, std::int32_t tag) override {
    PerRecipientContext looped(ctx);
    inner_.on_timer(looped, tag);
  }
  void on_message(Context& ctx, const sim::Message& m) override {
    PerRecipientContext looped(ctx);
    inner_.on_message(looped, m);
  }

 private:
  TwoFacedAdversary inner_;
};

/// Every on_send callback, in order.
class SendLog final : public sim::TraceSink {
 public:
  struct Send {
    std::int32_t from;
    std::int32_t to;
    double value;
    double at;
    double deliver_at;
    bool operator==(const Send&) const = default;
  };
  void on_send(std::int32_t from, std::int32_t to, const sim::Message& msg,
               double send_time, double deliver_time) override {
    sends.push_back({from, to, msg.value, send_time, deliver_time});
  }
  std::vector<Send> sends;
};

enum class Faces { kPivot, kScoped };

/// Re-registers every two-faced adversary of `experiment` as the batched
/// splitter or the per-victim one, with the experiment's own config.  In
/// kScoped mode the id ranges become explicit target lists: the early face
/// to every other honest id in descending order, the late face to the rest.
void install_splitters(analysis::Experiment& experiment, Faces faces,
                       bool per_recipient) {
  sim::Simulator& sim = experiment.simulator();
  std::vector<std::int32_t> early;
  std::vector<std::int32_t> late;
  const std::vector<std::int32_t>& honest = experiment.honest();
  for (std::size_t i = 0; i < honest.size(); ++i) {
    (i % 2 == 0 ? early : late).push_back(honest[i]);
  }
  std::reverse(early.begin(), early.end());
  for (std::int32_t id = 0; id < sim.process_count(); ++id) {
    const auto* adversary = dynamic_cast<TwoFacedAdversary*>(&sim.process(id));
    if (adversary == nullptr) continue;
    TwoFacedAdversary::Config config = adversary->config();
    if (faces == Faces::kScoped) {
      config.early_targets = early;
      config.late_targets = late;
    }
    if (per_recipient) {
      (void)sim.replace_process(
          id, std::make_unique<PerRecipientTwoFaced>(std::move(config)));
    } else {
      (void)sim.replace_process(
          id, std::make_unique<TwoFacedAdversary>(std::move(config)));
    }
  }
}

/// Runs `spec` with batched and with per-victim splitters; the executions
/// must be indistinguishable.  With `log_sends` an on_send sink rides both
/// runs (the serial engine only: extra sinks keep PDES off).
void check_multicast_matches_sends(const analysis::RunSpec& spec, Faces faces,
                                   bool log_sends) {
  analysis::Experiment batched(spec);
  analysis::Experiment looped(spec);
  install_splitters(batched, faces, /*per_recipient=*/false);
  install_splitters(looped, faces, /*per_recipient=*/true);
  SendLog batched_sends;
  SendLog looped_sends;
  if (log_sends) {
    batched.simulator().add_trace_sink(&batched_sends);
    looped.simulator().add_trace_sink(&looped_sends);
  }
  const analysis::RunResult a = batched.run();
  const analysis::RunResult b = looped.run();
  EXPECT_TRUE(analysis::results_identical(a, b));
  EXPECT_TRUE(batched.trace().same_events(looped.trace()));
  EXPECT_GT(batched.trace().begins().size(), 0u);
  EXPECT_EQ(batched.simulator().messages_sent(),
            looped.simulator().messages_sent());
  EXPECT_EQ(batched.simulator().events_processed(),
            looped.simulator().events_processed());
  EXPECT_EQ(a.pdes_workers_used, b.pdes_workers_used);
  EXPECT_EQ(a.pdes_epochs, b.pdes_epochs);
  // The face groups really were batched: fewer entries pending at peak.
  // Serial engine only: a PDES lane enqueues each cross-lane recipient as
  // its own entry, and when it drains its channels depends on thread timing.
  if (a.pdes_workers_used == 0) {
    EXPECT_LT(batched.simulator().peak_pending(),
              looped.simulator().peak_pending());
  }
  if (log_sends) {
    EXPECT_FALSE(batched_sends.sends.empty());
    EXPECT_TRUE(batched_sends.sends == looped_sends.sends);
  }
}

/// n = 199, f = 66: each face group holds 66 or 67 victims, past the
/// length where the delivery sort switches to its radix passes.
analysis::RunSpec splitter_spec() {
  analysis::RunSpec spec;
  spec.params = core::make_params(199, 66, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 66;
  spec.rounds = 4;
  spec.seed = 515;
  spec.engine = analysis::EngineMode::kEvent;
  return spec;
}

TEST(MulticastDeterminism, MatchesPerVictimSendsAcrossDelayModels) {
  // kFast/kSlow put a whole face group's deliveries at one instant: the
  // equal-time ties the delivery sort must keep in seq order.
  for (const Faces faces : {Faces::kPivot, Faces::kScoped}) {
    for (const analysis::DelayKind delay :
         {analysis::DelayKind::kUniform, analysis::DelayKind::kSplit,
          analysis::DelayKind::kFast, analysis::DelayKind::kSlow}) {
      analysis::RunSpec spec = splitter_spec();
      spec.delay = delay;
      SCOPED_TRACE(static_cast<int>(delay));
      check_multicast_matches_sends(spec, faces, /*log_sends=*/true);
    }
  }
}

TEST(MulticastDeterminism, MatchesUnderNicIngressBothDropPolicies) {
  for (const Faces faces : {Faces::kPivot, Faces::kScoped}) {
    for (const sim::NicDropPolicy drop :
         {sim::NicDropPolicy::kDropOldest, sim::NicDropPolicy::kDropNewest}) {
      analysis::RunSpec spec = splitter_spec();
      spec.delay = analysis::DelayKind::kSlow;  // bursts overflow the NIC
      spec.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/5e-4, drop};
      check_multicast_matches_sends(spec, faces, /*log_sends=*/true);
    }
  }
}

TEST(MulticastDeterminism, MatchesUnderPdesAcrossTheCut) {
  // Every face group names victims in every shard, so each multicast
  // splits into in-lane deliveries and cross-lane RemoteEvents.
  for (const Faces faces : {Faces::kPivot, Faces::kScoped}) {
    for (const std::int32_t workers : {2, 4}) {
      analysis::RunSpec spec = splitter_spec();
      spec.engine = analysis::EngineMode::kPdes;
      spec.pdes_workers = workers;
      analysis::Experiment probe(spec);
      const analysis::RunResult r = probe.run();
      ASSERT_EQ(r.pdes_workers_used, workers) << r.pdes_refusal;
      check_multicast_matches_sends(spec, faces, /*log_sends=*/false);
    }
  }
}

}  // namespace
}  // namespace wlsync::proc
