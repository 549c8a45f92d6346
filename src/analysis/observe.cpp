#include "analysis/observe.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wlsync::analysis {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

StreamingObserver::StreamingObserver(sim::Simulator& sim, ObserveSpec spec)
    : sim_(sim), spec_(std::move(spec)), derived_(core::derive(spec_.params)) {
  if (spec_.ids.empty()) {
    throw std::invalid_argument("StreamingObserver: no ids to measure");
  }
  if (spec_.skew_dt <= 0.0 || spec_.validity_dt <= 0.0) {
    throw std::invalid_argument("StreamingObserver: sample steps must be > 0");
  }
  if (spec_.gradient && spec_.topology == nullptr) {
    throw std::invalid_argument(
        "StreamingObserver: gradient observation needs a topology");
  }
  stats_.enabled = true;
  stats_.bounded = spec_.truncate;

  const std::size_t m = spec_.ids.size();
  grid_clock_.reserve(m);
  grid_corr_.reserve(m);
  round_clock_.reserve(m);
  round_corr_.reserve(m);
  for (const std::int32_t id : spec_.ids) {
    grid_clock_.emplace_back(sim_.clock(id));
    grid_corr_.emplace_back(sim_.corr_log(id));
    round_clock_.emplace_back(sim_.clock(id));
    round_corr_.emplace_back(sim_.corr_log(id));
  }
  locals_.assign(m, 0.0);

  measured_.assign(static_cast<std::size_t>(sim_.process_count()), 0);
  for (const std::int32_t id : spec_.ids) {
    measured_[static_cast<std::size_t>(id)] = 1;
  }
  round_skew_.assign(static_cast<std::size_t>(spec_.max_rounds) + 8, kNaN);

  // Sample storage is bounded by the horizon: the skew window opens no
  // earlier than tmin0 and every drained instant is <= t_end <= horizon.
  // Reserving against that bound is what keeps the drain allocation-free
  // (gated by bench_micro --smoke).
  const double span = std::max(spec_.horizon - spec_.tmin0, 0.0);
  gradient_capacity_ = static_cast<std::size_t>(span / spec_.skew_dt) + 8;
  skew_times_.reserve(gradient_capacity_);
  skew_values_.reserve(gradient_capacity_);

  skew_hist_.assign(kSkewHistBuckets, 0);
  hist_bucket_width_ = std::max(spec_.skew_hist_max, 1e-12) /
                       static_cast<double>(kSkewHistBuckets);

  if (spec_.gradient) {
    axis_ = build_gradient_axis(*spec_.topology, spec_.ids);
    gradient_rows_.assign(axis_.distances.size() * gradient_capacity_, 0.0);
  }

  // An explicit window-open instant bypasses the anchor-round trigger (the
  // on_round_begin anchor block is guarded on skew_open_).
  if (spec_.skew_t0 >= 0.0) {
    skew_open_ = true;
    t_steady_ = spec_.skew_t0;
    skew_next_ = spec_.skew_t0;
    stats_.t_steady = spec_.skew_t0;
  }

  // Validity folds start exactly where check_validity starts them.
  validity_next_ = spec_.validity_t0;
  max_upper_ = -std::numeric_limits<double>::infinity();
  max_lower_ = -std::numeric_limits<double>::infinity();
  hi_slope_ = -std::numeric_limits<double>::infinity();
  lo_slope_ = std::numeric_limits<double>::infinity();
}

void StreamingObserver::sample_locals(double t) {
  // The same expression as Simulator::local_time, cursor-evaluated — the
  // exact doubles sample_local_times produces for this row/instant.
  for (std::size_t r = 0; r < locals_.size(); ++r) {
    locals_[r] = grid_clock_[r].now(t) + grid_corr_[r].displayed_at(t);
  }
  ++stats_.samples;
}

void StreamingObserver::apply_skew_sample(double t) {
  // Column fold in id order — identical to skew_series' per-column spread.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const double local : locals_) {
    lo = std::min(lo, local);
    hi = std::max(hi, local);
  }
  const double skew = hi - lo;
  const std::size_t k = skew_times_.size();
  skew_times_.push_back(t);
  skew_values_.push_back(skew);
  skew_max_ = std::max(skew_max_, skew);
  skew_sum_ += skew;
  // Clamp in double space BEFORE the integer cast: diverged runs produce
  // skew samples (~1e300) whose quotient exceeds the size_t range, and an
  // out-of-range float-to-integer conversion is UB.
  const double raw_bucket = std::max(skew, 0.0) / hist_bucket_width_;
  const std::size_t bucket =
      raw_bucket >= static_cast<double>(kSkewHistBuckets - 1)
          ? kSkewHistBuckets - 1
          : static_cast<std::size_t>(raw_bucket);
  ++skew_hist_[bucket];

  if (spec_.gradient && !axis_.distances.empty()) {
    if (k >= gradient_capacity_) {
      throw std::logic_error(
          "StreamingObserver: sample count exceeded the horizon-derived "
          "capacity (ObserveSpec::horizon too small)");
    }
    // Fold |L_i - L_j| into the pair's distance bucket with max (order-
    // insensitive, so this is bit-identical to the gradient_series matrix).
    // Pairs come in pair_slot order, the layout of the bucket table the
    // constructor built, so the scan walks it front to back.
    const std::size_t m = locals_.size();
    const std::uint16_t* bucket = axis_.pair_bucket.data();
    for (std::size_t i = 0; i + 1 < m; ++i) {
      const double local_i = locals_[i];
      for (std::size_t j = i + 1; j < m; ++j, ++bucket) {
        double& cell = gradient_rows_[static_cast<std::size_t>(*bucket) *
                                          gradient_capacity_ +
                                      k];
        const double pair_skew = std::abs(local_i - locals_[j]);
        if (pair_skew > cell) cell = pair_skew;
      }
    }
  }
}

void StreamingObserver::apply_validity_sample(double t) {
  // check_validity's inner loop, verbatim (same fold order: this instant,
  // then ids in order).
  const double upper = derived_.alpha2 * (t - spec_.tmin0) + derived_.alpha3;
  const double lower = derived_.alpha1 * (t - spec_.tmax0) - derived_.alpha3;
  for (const double local : locals_) {
    const double elapsed = local - spec_.params.T0;
    max_upper_ = std::max(max_upper_, elapsed - upper);
    max_lower_ = std::max(max_lower_, lower - elapsed);
    if (t - spec_.tmin0 > 0.0) {
      hi_slope_ = std::max(hi_slope_, elapsed / (t - spec_.tmin0));
    }
    if (t - spec_.tmax0 > 0.0) {
      lo_slope_ = std::min(lo_slope_, elapsed / (t - spec_.tmax0));
    }
  }
}

void StreamingObserver::drain(double limit, bool closed) {
  // Merged monotone drain of the two grid streams; `closed` admits
  // validity instants equal to the limit (the closed-grid endpoint at
  // finalize).  Every CORR entry and clock segment governing an instant
  // strictly before the current simulated time is final, which is what
  // makes draining during the run exact.
  for (;;) {
    const double t = std::min(skew_next_, validity_next_);
    const bool take_skew = skew_next_ == t && t < limit;
    const bool take_validity =
        validity_next_ == t && (closed ? t <= limit : t < limit);
    if (!take_skew && !take_validity) break;
    sample_locals(t);
    if (take_skew) {
      apply_skew_sample(t);
      skew_next_ += spec_.skew_dt;  // the grids' t += dt accumulation walk
    }
    if (take_validity) {
      apply_validity_sample(t);
      validity_next_ += spec_.validity_dt;
    }
  }
}

double StreamingObserver::on_advance(double now) {
  drain(now, /*closed=*/false);
  return next_interest();
}

void StreamingObserver::on_adjustment(std::int32_t /*pid*/, double /*t*/,
                                      double /*old_target*/,
                                      double /*new_target*/) {
  ++stats_.adjustments;
}

void StreamingObserver::on_nic_drop(std::int32_t /*pid*/, double /*t*/) {
  ++stats_.nic_drops;
}

void StreamingObserver::eval_round_skew(std::int32_t round, double t) {
  if (round < 0) return;
  const auto r = static_cast<std::size_t>(round);
  if (r >= round_skew_.size()) round_skew_.resize(r + 1, kNaN);
  // Round instants arrive in execution order; the clamp only engages in
  // the degenerate interleaving where a round-r begin lands after a later
  // round already flushed (diverged runs), keeping the walkers monotone.
  const double q = std::max(t, last_round_query_);
  last_round_query_ = q;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < round_clock_.size(); ++i) {
    const double local = round_clock_[i].now(q) + round_corr_[i].displayed_at(q);
    lo = std::min(lo, local);
    hi = std::max(hi, local);
  }
  round_skew_[r] = hi - lo;
}

void StreamingObserver::note_history() {
  stats_.peak_history_bytes =
      std::max(stats_.peak_history_bytes, sim_.history_bytes());
}

void StreamingObserver::flush_round_and_truncate(double now) {
  if (pending_round_ >= 0) {
    eval_round_skew(pending_round_, pending_instant_);
    pending_round_ = -1;
  }
  note_history();
  if (spec_.truncate) {
    // Every future query targets >= now: the grid streams have drained
    // everything strictly before the current event time, round instants
    // are at or after it, and finalize queries t_end.  The defensive min
    // guards hand-driven simulations that attach mid-run.
    const double frontier = std::min(now, next_interest());
    stats_.truncated_entries += sim_.truncate_history_before(frontier);
    ++stats_.truncations;
  }
}

void StreamingObserver::on_round_begin(std::int32_t pid, std::int32_t round,
                                       double t) {
  if (pid < 0 || static_cast<std::size_t>(pid) >= measured_.size() ||
      measured_[static_cast<std::size_t>(pid)] == 0) {
    return;
  }
  ++stats_.round_marks;

  // Steady-state anchor: the window opens at the LAST measured begin of
  // the anchor round — the same instant the post-hoc pipeline anchors its
  // gamma window at.
  if (!skew_open_ && round == spec_.anchor_round) {
    if (++anchor_seen_ == static_cast<std::int32_t>(spec_.ids.size())) {
      skew_open_ = true;
      t_steady_ = t;
      skew_next_ = t;
      stats_.t_steady = t;
    }
  }

  // Round-boundary skew stream: accumulate begins of the current round and
  // evaluate at its last begin when the next round opens (annotations
  // arrive in time order, so the last begin chronologically IS the max
  // begin instant the post-hoc loop evaluates at).
  if (round == pending_round_) {
    pending_instant_ = t;
  } else if (round > pending_round_) {
    flush_round_and_truncate(t);
    pending_round_ = round;
    pending_instant_ = t;
  } else {
    // Begin for an earlier round number — a regime change restarted the
    // numbering (the startup handoff resumes maintenance at its own round
    // index) or a straggler landed after its round flushed.  The pending
    // round must be evaluated first: its instant precedes this one, and
    // the round walkers only move forward.  Then re-evaluate the earlier
    // round at the new (chronologically later, hence larger) instant —
    // the post-hoc loop evaluates at the max begin over ALL begins that
    // carry the round number, whichever regime produced them.
    if (pending_round_ >= 0) {
      eval_round_skew(pending_round_, pending_instant_);
      pending_round_ = -1;
    }
    eval_round_skew(round, t);
  }
}

StreamingSummary StreamingObserver::finalize(double t_end) {
  if (finalized_) {
    throw std::logic_error("StreamingObserver::finalize called twice");
  }
  finalized_ = true;

  if (pending_round_ >= 0) {
    eval_round_skew(pending_round_, pending_instant_);
    pending_round_ = -1;
  }
  if (!skew_open_) {
    // The anchor round never completed (diverged / truncated run): the
    // window collapses to the endpoint sample at t_end.
    skew_open_ = true;
    t_steady_ = t_end;
    skew_next_ = t_end;
    stats_.t_steady = t_end;
  }
  // Remaining grid instants: skew's half-open grid stops strictly before
  // t_end, validity's closed grid includes it.
  drain(t_end, /*closed=*/true);
  // The unconditional endpoint sample of sample_times_with_endpoint.
  sample_locals(t_end);
  apply_skew_sample(t_end);

  StreamingSummary summary;
  summary.final_skew = skew_values_.back();
  summary.skew.max_skew = skew_max_;
  stats_.skew_mean = skew_sum_ / static_cast<double>(skew_values_.size());
  const std::size_t cols = skew_times_.size();

  summary.validity.max_upper_violation = max_upper_;
  summary.validity.max_lower_violation = max_lower_;
  summary.validity.holds = max_upper_ <= 0.0 && max_lower_ <= 0.0;
  summary.validity.measured_hi_slope = hi_slope_;
  summary.validity.measured_lo_slope = lo_slope_;

  if (spec_.gradient) {
    // Summarize the capacity-strided accumulation matrix in place (no
    // repacking — the long-window runs this mode targets should not spike
    // memory after spending the run keeping history bounded).  The local
    // series carries the strided matrix and no times axis; the summary
    // helpers read only the axis vectors, cols and stride.
    GradientSeries series;
    series.distances = std::move(axis_.distances);
    series.pair_count = std::move(axis_.pair_count);
    series.diameter = axis_.diameter;
    series.skew_by_sample = std::move(gradient_rows_);
    finish_gradient_window_summaries(series, cols, gradient_capacity_);
    summary.gradient = summarize_gradient(series);
  }
  // The observer is finalized-once: hand the per-sample series over
  // instead of copying it.
  summary.skew.times = std::move(skew_times_);
  summary.skew.skews = std::move(skew_values_);

  // Trim trailing never-observed rounds.
  std::size_t last = round_skew_.size();
  while (last > 0 && std::isnan(round_skew_[last - 1])) --last;
  summary.skew_at_round.assign(round_skew_.begin(),
                               round_skew_.begin() + static_cast<std::ptrdiff_t>(last));

  note_history();
  stats_.final_history_bytes = sim_.history_bytes();
  // Histogram p99: the upper edge of the first bucket whose cumulative
  // count reaches 99% of the skew samples (cols counts the grid plus the
  // endpoint sample pushed above).
  const auto total = static_cast<std::uint64_t>(cols);
  if (total > 0) {
    const auto threshold = static_cast<std::uint64_t>(
        std::ceil(0.99 * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < skew_hist_.size(); ++b) {
      seen += skew_hist_[b];
      if (seen >= threshold) {
        stats_.skew_p99 = hist_bucket_width_ * static_cast<double>(b + 1);
        break;
      }
    }
  }
  summary.stats = stats_;
  return summary;
}

}  // namespace wlsync::analysis
