// bench.hpp — shared vocabulary of the benchmark of record.
//
// Every workload is a function from Options to an Outcome: it generates its
// inputs from the seed, drives the library only through public functions,
// checks every answer outside the timed region, and fills three metric
// lists. `end_to_end` holds the gated metrics every workload reports under
// the same names (see README.md for what each means per workload);
// `detail` holds the workload's own named metrics; `layers` is filled only
// by a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "game/deviation.hpp"
#include "trace.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

[[nodiscard]] inline double ns_to_ms(std::uint64_t ns) noexcept {
  return static_cast<double>(ns) * 1e-6;
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double median(std::vector<double> values);

/// A random rotation, reflected half the time, of the n positions of a
/// ring: entry i is the old position that moves to position i.
[[nodiscard]] std::vector<std::size_t> dihedral_order(
    std::size_t n, ringshare::util::Xoshiro256& rng);

/// The host's speed, sampled by a probe run between timed operations.
///
/// A shared host's speed moves by up to 1.7x within tens of seconds with
/// the load of its other tenants, and every wall time moves with it. The
/// probe is a fixed kernel of about a millisecond that uses none of the
/// library: xorshift, 128-bit division, an ordered map, small heap vectors
/// and a sort, like the library's exact arithmetic on small graphs (a probe
/// that allocated nothing followed the host's speed less closely). A timing
/// is reported at a nominal host speed: its wall time times kNominalProbeMs
/// over the median of the kWindow probes run nearest to it. A change to the
/// library moves such a figure as it moves the wall time; a change in the
/// host's speed moves the probe too, and about half of it cancels.
class HostSpeed {
 public:
  /// The probe's time on the nominal host.
  static constexpr double kNominalProbeMs = 1.0;
  static constexpr std::size_t kWindow = 32;

  /// Run the probe once.
  void probe();
  /// Probe after an operation that took `op_ms`: about once per 20 ms of
  /// it, at least once and at most kWindow / 2 times, so that a long
  /// operation's nearest probes are its own.
  void probe_after(double op_ms);
  /// Stamp an operation with this when it ends, before the next probe.
  [[nodiscard]] std::size_t stamp() const noexcept { return probes_.size(); }
  /// `wall_ms` measured at `stamp`, rescaled to the nominal host speed.
  [[nodiscard]] double nominal_ms(double wall_ms, std::size_t stamp) const;
  /// Median probe time over the run, ms.
  [[nodiscard]] double probe_p50_ms() const { return median(probes_); }

 private:
  std::vector<double> probes_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for check files and the trace; run.py creates it.
  std::string scratch = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure messages, for the record.
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> detail;
  std::vector<Metric> layers;
  /// Run configuration recorded with the result (pool size, shards, ...).
  std::vector<std::pair<std::string, std::string>> config;

  /// Count one failed operation and keep its message.
  void fail(std::string message);
  void add_config(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
};

/// Fill the five gated end-to-end metrics in their fixed order.
void set_end_to_end(Outcome& out, double setup_s, double throughput_per_s,
                    double op_p50_ms, double op_tail_ms);

/// Clear the library's process-wide caches, so a timed run starts cold the
/// way a user's first sweep does.
void cold_caches();

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Exact answer fields compared for bit-identity: ratio|t_star|utility|
/// honest_utility as exact rational strings.
[[nodiscard]] std::string answer_signature(
    const ringshare::game::DeviationOptimum& optimum);

/// Bound check for one BD answer: Sybil ratios are at most 2 (Theorem 8),
/// misreport ratios equal 1 (Theorem 10), collusion ratios are
/// non-negative. Returns an empty string when the answer holds, else a
/// description.
[[nodiscard]] std::string check_ratio_bound(
    ringshare::game::DeviationKind kind, const ringshare::num::Rational& ratio);

/// Names of the gated end-to-end metrics, in output order.
[[nodiscard]] const std::vector<Metric>& end_to_end_template();

/// Every per-layer metric a traced run reports, zero-valued, in output
/// order. A workload that never reaches a layer leaves its metrics at 0.
[[nodiscard]] const std::vector<Metric>& per_layer_template();

/// Set one per-layer metric of a traced run (the name must be in
/// per_layer_template()).
void set_layer(Outcome& out, const std::string& name, double value);

/// Per-layer counts from a delta of util::PerfCounters.
void set_counter_layers(Outcome& out, const ringshare::util::PerfSnapshot& d);

/// Self time per module plus the wall time the trace covers; returns the
/// self times' sum as a fraction of that wall time. The rest is time the
/// benchmark spent outside every span.
double set_self_time_layers(Outcome& out, const Tracer& tracer);

/// How far below the traced wall time the per-layer self times may sum: a
/// traced run fails when more than this share of it is outside every span.
inline constexpr double kSelfSumTolerance = 0.01;

/// Host fingerprint recorded with every result: CPU model, nproc, compiler,
/// build type and the library's configured pool size.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
host_fingerprint();

Outcome run_sweep_n6(const Options& options, Tracer& tracer);
Outcome run_ladder(const Options& options, Tracer& tracer);
Outcome run_serve_open(const Options& options, Tracer& tracer);
Outcome run_delta_stream(const Options& options, Tracer& tracer);

}  // namespace perfbench
