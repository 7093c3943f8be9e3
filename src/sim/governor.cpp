#include "sim/governor.hpp"

#include <algorithm>

namespace sdem {

namespace {

constexpr double kEwmaWeight = 0.25;  ///< weight of the newest gap in EWMAs
constexpr std::size_t kWindow = 8;    ///< recent-gap ring for the TEO check

}  // namespace

IdleGovernor::IdleGovernor() : ring_(kWindow, 0.0) {}

double IdleGovernor::unimodal_predict() const {
  double pred = ewma_;
  if (ring_size_ >= 2) {
    // TEO-style intercept correction: when a majority of the recent window
    // came in below the EWMA's prediction, the average is being dragged up
    // by stale long gaps — the recent median is the better estimate.
    std::size_t shorter = 0;
    for (std::size_t i = 0; i < ring_size_; ++i) {
      if (ring_[i] < pred) ++shorter;
    }
    if (2 * shorter > ring_size_) {
      scratch_.assign(ring_.begin(),
                      ring_.begin() + static_cast<std::ptrdiff_t>(ring_size_));
      const std::size_t mid = ring_size_ / 2;
      std::nth_element(scratch_.begin(),
                       scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                       scratch_.end());
      const double median = scratch_[mid];
      if (median < pred) pred = median;
    }
  }
  return pred;
}

double IdleGovernor::predict() const {
  if (count_ == 0) return 0.0;
  // Bimodal path: both gap classes observed — predict the class first,
  // then that class's running average. After a long gap, a first-order
  // Markov term decides whether longs arrive in runs (quiet schedule) or
  // singly (burst separators). After a short gap, the run-length detector
  // flags the end of a burst: once as many short gaps have passed as a
  // burst typically holds, the next gap is due to be long.
  if (n_short_ > 0 && n_long_ > 0) {
    bool long_next;
    if (last_class_ == 1) {
      long_next = p_long_after_long_ >= 0.5;
    } else {
      long_next = run_seen_ && run_ + 0.5 >= run_len_ewma_;
    }
    return long_next ? ewma_long_ : ewma_short_;
  }
  if (n_long_ > 0 && n_short_ == 0) return ewma_long_;
  return unimodal_predict();
}

int IdleGovernor::choose_state(const SleepLadder& ladder) {
  if (!ladder.empty()) {
    // Remember the split point for observe(): a gap is "long" when the
    // deepest state would have broken even on it.
    tau_ = ladder.state(ladder.depth() - 1).xi;
  }
  // Cold start: with no history, enter the deepest state — hardware boots
  // in self-refresh and stays there until the first access. The downside
  // is bounded (one abort pair if the first gap is tiny); staying awake
  // instead can burn alpha_m across an arbitrarily long leading gap.
  if (count_ == 0) return ladder.depth() - 1;
  return ladder.deepest_fit(predict());
}

void IdleGovernor::observe(double gap, bool aborted) {
  if (gap < 0.0) gap = 0.0;
  if (count_ == 0) {
    ewma_ = gap;
  } else {
    ewma_ = (1.0 - kEwmaWeight) * ewma_ + kEwmaWeight * gap;
  }
  if (aborted && gap < ewma_) {
    // Mispredict correction: an aborted entry means the commitment was
    // badly over-long; snap the averages down so the very next decision
    // already reflects the short gap.
    ewma_ = gap;
    if (n_short_ > 0 && gap < ewma_short_) ewma_short_ = gap;
    clamps_ += 1.0;
  }
  ring_[ring_next_] = gap;
  ring_next_ = (ring_next_ + 1) % ring_.size();
  if (ring_size_ < ring_.size()) ++ring_size_;
  ++count_;

  // Class statistics, the long-after-long Markov term, and the burst-run
  // detector.
  if (tau_ > 0.0) {
    const bool is_long = gap >= tau_;
    if (last_class_ == 1) {
      const double hit = is_long ? 1.0 : 0.0;
      p_long_after_long_ = (1.0 - kEwmaWeight) * p_long_after_long_ +
                           kEwmaWeight * hit;
    } else if (last_class_ == -1 && is_long) {
      // Seed optimistically: a trace that opens long often stays long.
      p_long_after_long_ = 1.0;
    }
    if (is_long) {
      ewma_long_ = n_long_ == 0 ? gap
                                : (1.0 - kEwmaWeight) * ewma_long_ +
                                      kEwmaWeight * gap;
      ++n_long_;
      if (run_ > 0.0) {
        run_len_ewma_ = !run_seen_
                            ? run_
                            : (1.0 - kEwmaWeight) * run_len_ewma_ +
                                  kEwmaWeight * run_;
        run_seen_ = true;
      }
      run_ = 0.0;
    } else {
      ewma_short_ = n_short_ == 0 ? gap
                                  : (1.0 - kEwmaWeight) * ewma_short_ +
                                        kEwmaWeight * gap;
      ++n_short_;
      run_ += 1.0;
    }
    last_class_ = is_long ? 1 : 0;
  }
}

}  // namespace sdem
