#include "model/sleep_ladder.hpp"

#include <utility>

namespace sdem {

SleepLadder SleepLadder::single(double alpha_m, double xi_m) {
  SleepLadder out;
  SleepState s;
  s.name = "sleep";
  s.power = 0.0;
  s.pair_energy = alpha_m * xi_m;
  s.latency = 0.0;
  s.xi = xi_m;  // stored verbatim: pair_energy / alpha_m can differ by 1 ulp
  out.add_state_exact(std::move(s));
  return out;
}

SleepLadder SleepLadder::geometric(double alpha_m, double xi_m, int depth,
                                   double latency_scale) {
  SleepLadder out;
  if (depth <= 0) return out;
  for (int k = 1; k <= depth; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(depth);
    SleepState s;
    s.name = "L";
    s.name += std::to_string(k);
    s.power = alpha_m * (1.0 - frac);
    s.xi = xi_m * frac * frac;
    s.pair_energy = (alpha_m - s.power) * s.xi;
    s.latency = latency_scale * s.xi;
    out.add_state_exact(std::move(s));
  }
  // Pin the deepest rung to the exact paper state so a depth sweep's last
  // point is the single-state model verbatim.
  SleepState& deepest = out.states_.back();
  deepest.power = 0.0;
  deepest.xi = xi_m;
  deepest.pair_energy = alpha_m * xi_m;
  deepest.latency = latency_scale * xi_m;
  return out;
}

void SleepLadder::add_state(std::string name, double power, double pair_energy,
                            double latency, double alpha_m) {
  SleepState s;
  s.name = std::move(name);
  s.power = power;
  s.pair_energy = pair_energy;
  s.latency = latency;
  const double saved = alpha_m - power;
  s.xi = saved > 0.0 ? pair_energy / saved : 0.0;
  add_state_exact(std::move(s));
}

void SleepLadder::add_state_exact(SleepState s) {
  states_.push_back(std::move(s));
}

SleepLadder SleepLadder::prefix(int d) const {
  SleepLadder out;
  const int n = d < depth() ? d : depth();
  for (int k = 0; k < n; ++k) out.add_state_exact(states_[k]);
  return out;
}

std::string SleepLadder::validate(double alpha_m) const {
  for (std::size_t k = 0; k < states_.size(); ++k) {
    const SleepState& s = states_[k];
    const std::string at = "state " + std::to_string(k) +
                           (s.name.empty() ? "" : " (" + s.name + ")");
    if (!(s.power >= 0.0)) return at + ": power must be >= 0";
    if (!(s.power < alpha_m))
      return at + ": power must be < active power alpha_m";
    if (!(s.pair_energy > 0.0)) return at + ": pair_energy must be > 0";
    if (!(s.latency >= 0.0)) return at + ": latency must be >= 0";
    if (!(s.xi > 0.0)) return at + ": xi must be > 0";
    if (k > 0) {
      const SleepState& prev = states_[k - 1];
      if (!(s.power < prev.power))
        return at + ": power must strictly decrease with depth";
      if (!(s.xi > prev.xi))
        return at + ": xi must strictly increase with depth";
      if (!(s.latency >= prev.latency))
        return at + ": latency must be non-decreasing with depth";
    }
  }
  return "";
}

int SleepLadder::deepest_fit(double gap) const {
  for (int k = depth() - 1; k >= 0; --k) {
    const SleepState& s = states_[static_cast<std::size_t>(k)];
    if ((s.xi <= 0.0 || gap >= s.xi) && gap >= s.latency) return k;
  }
  return -1;
}

int SleepLadder::oracle_state(double gap) const {
  int best = -1;
  double best_cost = 0.0;
  for (int k = 0; k < depth(); ++k) {
    const SleepState& s = states_[static_cast<std::size_t>(k)];
    if (!(s.xi <= 0.0 || gap >= s.xi)) continue;
    if (gap < s.latency) continue;
    const double cost = s.power * gap + s.pair_energy;
    if (best < 0 || cost <= best_cost) {  // ties prefer the deeper state
      best = k;
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace sdem
