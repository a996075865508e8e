// openloop.hpp — the open-loop arrival generator.
//
// Independent clients send on their own schedule whether or not earlier
// requests have been answered, so the schedule is fixed before the replay:
// Poisson arrivals (exponential gaps) drawn from the workload seed. The
// replay waits (spinning) until each arrival is due and sends it; it never
// waits for a response. Latency is timed from the arrival's DUE time, not from when the
// send actually happened, so a stall that delays later sends is charged to
// those requests (no coordinated omission). How late each send ran behind
// its due time is recorded and reported, as a check on the generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Arrival offsets in nanoseconds from the replay start: a Poisson process
/// of `rate_per_s` arrivals per second over [0, duration_s). The same
/// (rate, duration, seed) always yields the same schedule.
[[nodiscard]] std::vector<std::uint64_t> poisson_schedule(double rate_per_s,
                                                          double duration_s,
                                                          std::uint64_t seed);

/// Timing of one replay, in absolute steady-clock nanoseconds.
struct Replay {
  std::vector<std::uint64_t> due_ns;   ///< when each send was scheduled
  std::vector<std::uint64_t> sent_ns;  ///< when each send actually began

  /// How far send k started behind its due time.
  [[nodiscard]] std::uint64_t lag_ns(std::size_t k) const {
    return sent_ns[k] > due_ns[k] ? sent_ns[k] - due_ns[k] : 0;
  }
  /// Latency of request k answered at `done_ns`, timed from its due time.
  [[nodiscard]] std::uint64_t latency_ns(std::size_t k,
                                         std::uint64_t done_ns) const {
    return done_ns > due_ns[k] ? done_ns - due_ns[k] : 0;
  }
  /// q-quantile of the generator lag, ms.
  [[nodiscard]] double lag_quantile_ms(double q) const;
};

/// Replay `offsets_ns` from now: spin until arrival k is due, then call
/// `send(k)`. Sends run on the calling thread in schedule order.
Replay replay_open_loop(const std::vector<std::uint64_t>& offsets_ns,
                        const std::function<void(std::size_t)>& send);

}  // namespace perfbench
