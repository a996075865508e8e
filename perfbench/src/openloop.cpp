#include "openloop.hpp"

#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::vector<std::uint64_t> poisson_schedule(double rate_per_s,
                                            double duration_s,
                                            std::uint64_t seed) {
  if (!(rate_per_s > 0) || !(duration_s > 0))
    throw std::invalid_argument("poisson_schedule: rate and duration > 0");
  ringshare::util::Xoshiro256 rng(seed);
  const double end_ns = duration_s * 1e9;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.2) + 8);
  double t = 0;
  for (;;) {
    // Inverse-CDF exponential gap from a 53-bit uniform in (0, 1].
    const double u =
        (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    offsets.push_back(static_cast<std::uint64_t>(t));
  }
  return offsets;
}

double Replay::lag_quantile_ms(double q) const {
  std::vector<double> lags(due_ns.size());
  for (std::size_t k = 0; k < lags.size(); ++k) lags[k] = ns_to_ms(lag_ns(k));
  return quantile(std::move(lags), q);
}

Replay replay_open_loop(const std::vector<std::uint64_t>& offsets_ns,
                        const std::function<void(std::size_t)>& send) {
  Replay replay;
  replay.due_ns.resize(offsets_ns.size());
  replay.sent_ns.resize(offsets_ns.size());
  const std::uint64_t start = now_ns();
  for (std::size_t k = 0; k < offsets_ns.size(); ++k) {
    const std::uint64_t due = start + offsets_ns[k];
    replay.due_ns[k] = due;
    // Spin rather than sleep: on a shared host a sleeping thread can wake
    // milliseconds late, and that lateness would be charged to the request.
    while (now_ns() < due) {
    }
    replay.sent_ns[k] = now_ns();
    send(k);
  }
  return replay;
}

}  // namespace perfbench
