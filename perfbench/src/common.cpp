#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "bd/memo.hpp"
#include "bench.hpp"
#include "game/piece_solver.hpp"
#include "util/threadpool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {
/// Size of the speed probe: about a millisecond on a 2.0 GHz Xeon.
constexpr int kProbeRounds = 2;
constexpr int kProbeItems = 1500;
}  // namespace

using ringshare::game::DeviationKind;
using ringshare::num::Rational;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::vector<std::size_t> dihedral_order(std::size_t n,
                                        ringshare::util::Xoshiro256& rng) {
  const auto shift = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  const bool reflect = rng.uniform_int(0, 1) == 1;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i)
    order[i] = reflect ? (shift + n - i) % n : (shift + i) % n;
  return order;
}

void HostSpeed::probe() {
  static volatile std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ULL, acc = 0;
  for (int round = 0; round < kProbeRounds; ++round) {
    std::vector<std::unique_ptr<std::vector<std::uint64_t>>> items;
    std::map<std::uint64_t, std::uint64_t> buckets;
    for (int i = 0; i < kProbeItems; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const unsigned __int128 wide =
          static_cast<unsigned __int128>(x) * (x | 1);
      acc += static_cast<std::uint64_t>(wide / ((x >> 3) | 1));
      buckets[x & 1023] += acc;
      items.push_back(
          std::make_unique<std::vector<std::uint64_t>>(1 + (x & 7), x));
    }
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return (*a)[0] < (*b)[0]; });
    acc += buckets.size() + (*items.front())[0];
  }
  sink = sink + acc;
  probes_.push_back(ns_to_ms(now_ns() - t0));
}

void HostSpeed::probe_after(double op_ms) {
  const auto times = std::clamp<std::size_t>(
      static_cast<std::size_t>(op_ms / 20), 1, kWindow / 2);
  for (std::size_t k = 0; k < times; ++k) probe();
}

double HostSpeed::nominal_ms(double wall_ms, std::size_t stamp) const {
  if (probes_.empty()) return wall_ms;
  // The kWindow probes nearest the stamp, shifted inward at either end.
  const std::size_t hi =
      std::min(probes_.size(), std::max(stamp + kWindow / 2, kWindow));
  const std::size_t lo = hi > kWindow ? hi - kWindow : 0;
  const std::vector<double> near(probes_.begin() + static_cast<long>(lo),
                                 probes_.begin() + static_cast<long>(hi));
  return wall_ms * kNominalProbeMs / median(near);
}

void Outcome::fail(std::string message) {
  ++failed;
  if (failures.size() < 20) failures.push_back(std::move(message));
}

const std::vector<Metric>& end_to_end_template() {
  static const std::vector<Metric> metrics = {
      {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MB"},
      {"throughput_per_s", 0, "1/s"},
      {"op_p50_ms", 0, "ms"},
      {"op_tail_ms", 0, "ms"},
  };
  return metrics;
}

void set_end_to_end(Outcome& out, double setup_s, double throughput_per_s,
                    double op_p50_ms, double op_tail_ms) {
  out.end_to_end = end_to_end_template();
  out.end_to_end[0].value = setup_s;
  out.end_to_end[2].value = throughput_per_s;
  out.end_to_end[3].value = op_p50_ms;
  out.end_to_end[4].value = op_tail_ms;
}

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

constexpr LayerSpec kLayerSpecs[] = {
    // Self time per module over the traced run; with the time outside every
    // span they sum to trace.wall_ms.
    {"client.self_ms", "ms"},
    {"numeric.self_ms", "ms"},
    {"graph.self_ms", "ms"},
    {"flow.self_ms", "ms"},
    {"bd.self_ms", "ms"},
    {"game.self_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"exp.self_ms", "ms"},
    {"util.self_ms", "ms"},
    {"trace.wall_ms", "ms"},
    {"trace.self_sum_frac", "frac"},
    // Counter deltas over the counted pass (pool size 1), with their bases.
    {"trace.ops", "count"},
    {"bd.dinkelbach_iterations", "count"},
    {"bd.ring_kernel_evals", "count"},
    {"game.signature_probes", "count"},
    {"game.piece_solver_pieces", "count"},
    {"bd.bottleneck_cache_hit_ratio", "frac"},
    {"bd.bottleneck_cache_lookups", "count"},
    {"bd.peel_cache_hits", "count"},
    {"numeric.bigint_fast_ratio", "frac"},
    {"numeric.bigint_ops", "count"},
    {"numeric.filter_hit_ratio", "frac"},
    {"numeric.filter_tests", "count"},
    {"numeric.rational_gcds", "count"},
    {"util.pool_tasks_local", "count"},
    {"util.pool_tasks_stolen", "count"},
    {"exp.singleflight_hits", "count"},
    {"flow.network_builds", "count"},
    {"bd.delta_patched_stages", "count"},
    // Engine entry points, serving and streaming statistics.
    {"engine.canonicalize_us", "us"},
    {"engine.translate_us", "us"},
    {"engine.solve_canonical_ms", "ms"},
    {"engine.submit_us", "us"},
    {"engine.serve_requests", "count"},
    {"engine.serve_solves", "count"},
    {"engine.serve_cache_hit_ratio", "frac"},
    {"engine.serve_dedup_ratio", "frac"},
    {"engine.serve_invalidations", "count"},
    {"client.gen_lag_p99_ms", "ms"},
    {"engine.stream_updates", "count"},
    {"engine.stream_hits", "count"},
    {"engine.stream_fallbacks", "count"},
    {"engine.stream_spliced_stages", "count"},
    {"engine.stream_resolved_stages", "count"},
    {"engine.stream_patched_stages", "count"},
};

/// Per-rung metrics of the ladder, suffixed ".n<size>".
constexpr LayerSpec kRungSpecs[] = {
    {"engine.solve_canonical_ms", "ms"},
    {"game.partition_ms", "ms"},
    {"game.partition_share", "frac"},
    {"game.partition_pieces", "count"},
    {"game.signature_probe_us", "us"},
    {"game.signature_probes", "count"},
    {"bd.decompose_ms", "ms"},
    {"bd.dinkelbach_iterations", "count"},
    {"bd.dinkelbach_per_probe", "count"},
    {"bd.ring_kernel_evals", "count"},
};

constexpr int kRungSizes[] = {25, 50, 100, 200};

}  // namespace

const std::vector<Metric>& per_layer_template() {
  static const std::vector<Metric> metrics = [] {
    std::vector<Metric> out;
    for (const LayerSpec& s : kLayerSpecs) out.push_back({s.name, 0, s.unit});
    for (const int n : kRungSizes)
      for (const LayerSpec& s : kRungSpecs)
        out.push_back(
            {std::string(s.name) + ".n" + std::to_string(n), 0, s.unit});
    return out;
  }();
  return metrics;
}

void set_layer(Outcome& out, const std::string& name, double value) {
  if (out.layers.empty()) out.layers = per_layer_template();
  for (Metric& metric : out.layers) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  throw std::logic_error("set_layer: unknown per-layer metric " + name);
}

namespace {
double ratio_or_zero(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0;
}
}  // namespace

void set_counter_layers(Outcome& out, const ringshare::util::PerfSnapshot& d) {
  const std::uint64_t lookups = d.bottleneck_cache_hits + d.bottleneck_cache_misses;
  const std::uint64_t bigint_ops = d.bigint_fast_ops + d.bigint_slow_ops;
  const std::uint64_t filter_tests = d.filter_hits + d.filter_fallbacks;
  set_layer(out, "bd.dinkelbach_iterations", d.dinkelbach_iterations);
  set_layer(out, "bd.ring_kernel_evals", d.ring_kernel_evals);
  set_layer(out, "game.signature_probes", d.sig_oracle_hits);
  set_layer(out, "game.piece_solver_pieces", d.piece_solver_pieces);
  set_layer(out, "bd.bottleneck_cache_hit_ratio",
            ratio_or_zero(d.bottleneck_cache_hits, lookups));
  set_layer(out, "bd.bottleneck_cache_lookups", lookups);
  set_layer(out, "bd.peel_cache_hits", d.peel_cache_hits);
  set_layer(out, "numeric.bigint_fast_ratio",
            ratio_or_zero(d.bigint_fast_ops, bigint_ops));
  set_layer(out, "numeric.bigint_ops", bigint_ops);
  set_layer(out, "numeric.filter_hit_ratio",
            ratio_or_zero(d.filter_hits, filter_tests));
  set_layer(out, "numeric.filter_tests", filter_tests);
  set_layer(out, "numeric.rational_gcds", d.rational_gcds);
  set_layer(out, "util.pool_tasks_local", d.pool_tasks_local);
  set_layer(out, "util.pool_tasks_stolen", d.pool_tasks_stolen);
  set_layer(out, "exp.singleflight_hits", d.driver_singleflight_hits);
  set_layer(out, "flow.network_builds", d.flow_network_builds);
  set_layer(out, "bd.delta_patched_stages", d.delta_patched_stages);
}

double set_self_time_layers(Outcome& out, const Tracer& tracer) {
  double sum = 0;
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    set_layer(out, layer + ".self_ms", ms);
    sum += ms;
  }
  const double wall = tracer.wall_ms();
  const double frac = wall > 0 ? sum / wall : 0;
  set_layer(out, "trace.wall_ms", wall);
  set_layer(out, "trace.self_sum_frac", frac);
  return frac;
}

void cold_caches() {
  ringshare::bd::BottleneckCache::instance().clear();
  ringshare::bd::DecompositionCache::instance().clear();
  ringshare::game::PartitionMemo::instance().clear();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string answer_signature(const ringshare::game::DeviationOptimum& optimum) {
  return optimum.ratio.to_string() + '|' + optimum.t_star.to_string() + '|' +
         optimum.utility.to_string() + '|' +
         optimum.honest_utility.to_string();
}

std::string check_ratio_bound(DeviationKind kind, const Rational& ratio) {
  switch (kind) {
    case DeviationKind::kMisreport:
      if (ratio != Rational(1))
        return "misreport ratio " + ratio.to_string() + " != 1 (Theorem 10)";
      break;
    case DeviationKind::kSybil:
      if (Rational(2) < ratio)
        return "sybil ratio " + ratio.to_string() + " > 2 (Theorem 8)";
      break;
    case DeviationKind::kCollusion:
      // No theorem bounds a merge: ratios below 1 occur, and so do ratios
      // slightly above 2 on random n = 6 rings. Only sanity is checked.
      if (ratio.is_negative())
        return "collusion ratio " + ratio.to_string() + " < 0";
      break;
  }
  return {};
}

std::vector<std::pair<std::string, std::string>> host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return {
      {"cpu_model", cpu},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"pool_size",
       std::to_string(ringshare::util::configured_thread_count())},
  };
}

}  // namespace perfbench
