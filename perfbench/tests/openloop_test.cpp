// openloop_test — the open-loop generator's own test.
//
// Checks that the Poisson schedule is reproducible from the seed and has
// the stated rate, that latency is timed from the scheduled send time (so
// a stalled generator charges its stall to the requests it delayed), and
// that generator lateness is reported. Run: ctest in the build tree, or
// the openloop_test binary directly; exits non-zero on any failure.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "openloop.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

void schedule_is_reproducible() {
  const auto a = perfbench::poisson_schedule(500, 4, 42);
  const auto b = perfbench::poisson_schedule(500, 4, 42);
  const auto c = perfbench::poisson_schedule(500, 4, 43);
  check(a == b, "same seed gives the same schedule");
  check(a != c, "another seed gives another schedule");
  bool sorted = true, in_range = true;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (k && a[k] < a[k - 1]) sorted = false;
    if (a[k] >= 4'000'000'000ULL) in_range = false;
  }
  check(sorted, "arrivals are in time order");
  check(in_range, "arrivals fall inside the duration");
  // 2000 expected arrivals; a Poisson count is within 5 sigma (~224).
  check(a.size() > 1776 && a.size() < 2224, "arrival count matches the rate");
}

void latency_starts_at_the_scheduled_time() {
  // Ten arrivals 1 ms apart; each send stalls 5 ms, so the generator falls
  // further behind with every send.
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t k = 0; k < 10; ++k) offsets.push_back(k * 1'000'000);
  std::vector<std::uint64_t> done(offsets.size());
  const perfbench::Replay replay = perfbench::replay_open_loop(
      offsets, [&](std::size_t k) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        done[k] = perfbench::now_ns();
      });
  check(replay.due_ns.size() == offsets.size(), "one due time per arrival");
  for (std::size_t k = 0; k < offsets.size(); ++k)
    check(replay.due_ns[k] - replay.due_ns[0] == offsets[k],
          "due times follow the schedule, not the sends");
  // Request 9 was due at 9 ms but could not start before ~45 ms: its
  // latency must include that wait, not just its own 5 ms send.
  const std::uint64_t last = offsets.size() - 1;
  check(replay.latency_ns(last, done[last]) >= 40'000'000ULL,
        "latency includes the wait behind earlier stalled sends");
  check(replay.latency_ns(last, done[last]) ==
            done[last] - replay.due_ns[last],
        "latency is measured from the due time");
  check(replay.lag_ns(last) >= 35'000'000ULL, "lateness of a late send shows");
  check(replay.lag_quantile_ms(0.99) >= 35.0, "lag quantile reports lateness");
}

void punctual_generator_reports_little_lag() {
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t k = 0; k < 20; ++k) offsets.push_back(k * 2'000'000);
  const perfbench::Replay replay =
      perfbench::replay_open_loop(offsets, [](std::size_t) {});
  check(replay.lag_quantile_ms(0.5) < 1.0,
        "an idle generator sends close to schedule");
  for (std::size_t k = 0; k < offsets.size(); ++k)
    check(replay.sent_ns[k] >= replay.due_ns[k], "no send before it is due");
}

}  // namespace

int main() {
  schedule_is_reproducible();
  latency_starts_at_the_scheduled_time();
  punctual_generator_reports_little_lag();
  if (failures) {
    std::fprintf(stderr, "openloop_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("openloop_test: all checks passed\n");
  return 0;
}
