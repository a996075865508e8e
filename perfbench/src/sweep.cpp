// sweep_n6 — batch deviation sweeps over small random rings.
//
// One operation is one in-memory exp::run_sweep_driver call over 10 random
// n = 6 rings with all three deviation kinds (180 tasks: the ROADMAP's
// sweep unit), on the shared pool. Calls repeat on fresh seeded rings until
// the time is up, each from cleared caches, as a user's sweep starts: the
// library's caches then stay the size of one call, and so do the process's
// memory and its share of the host's caches. Small rings make the fixed
// cost per task visible: canonicalization, family build, candidate
// evaluation, numerics and pool scheduling; the peel matters little.
#include <array>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "engine/deviation_engine.hpp"
#include "engine/wire.hpp"
#include "exp/families.hpp"
#include "exp/sweep_driver.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

namespace {

using ringshare::game::DeviationKind;
using ringshare::graph::Graph;
namespace exp = ringshare::exp;
namespace engine = ringshare::engine;
namespace game = ringshare::game;

constexpr std::size_t kRingsPerCall = 10;
constexpr std::size_t kRingSize = 6;
constexpr std::int64_t kMaxWeight = 10;
constexpr int kSetupReps = 11;
/// Speed probes after each set-up.
constexpr int kSetupProbes = 3;
/// Calls re-run with a JSONL checkpoint after the timed loop, and the
/// number of their tasks compared against a direct engine solve.
constexpr std::size_t kCheckedCalls = 3;
constexpr std::size_t kSampledTasksPerCall = 12;
/// Fixed pass sizes of the traced run, so its counts repeat exactly.
constexpr std::size_t kTracedCalls = 24;
constexpr std::size_t kTracedEngineCalls = 4;
/// A run makes at most this many calls (fewer if time runs out); set-up
/// generates all of their inputs.
constexpr std::size_t kMaxCalls = 150;
/// Tail percentile of the call latency (15 of 150 calls lie beyond it).
constexpr double kTailQuantile = 0.9;

const std::vector<DeviationKind> kKinds = {
    DeviationKind::kSybil, DeviationKind::kMisreport, DeviationKind::kCollusion};

std::vector<Graph> call_rings(std::uint64_t seed, std::size_t call) {
  return exp::random_rings(kRingsPerCall, kRingSize,
                           seed * 0x9E3779B97F4A7C15ULL + call, kMaxWeight);
}

exp::SweepDriverOptions sweep_options() {
  exp::SweepDriverOptions options;
  options.kinds = kKinds;
  options.resume = false;
  return options;
}

/// Per-kind maxima of one call, as exact strings.
using KindMaxima = std::array<std::string, game::kDeviationKindCount>;

/// Bounds on a call's per-kind maxima: every Sybil ratio ≤ 2 (Theorem 8);
/// the misreport maximum is 1, and since the truthful report is always a
/// candidate, every misreport ratio is then exactly 1 (Theorem 10). The
/// sampled answers get the full per-answer check in check_call_answers.
KindMaxima check_report(const exp::SweepDriverReport& report,
                        std::size_t call, Outcome& out) {
  KindMaxima maxima;
  const std::size_t per_kind = kRingsPerCall * kRingSize;
  for (const DeviationKind kind : kKinds) {
    const exp::KindAggregate& agg = report.by_kind[static_cast<int>(kind)];
    const std::string where =
        "sweep call " + std::to_string(call) + " " + game::to_string(kind);
    if (agg.tasks != per_kind || !agg.any) {
      out.fail(where + ": expected " + std::to_string(per_kind) + " tasks");
      continue;
    }
    const std::string bound = check_ratio_bound(kind, agg.max_ratio);
    if (!bound.empty()) out.fail(where + ": " + bound);
    maxima[static_cast<int>(kind)] = agg.max_ratio.to_string();
  }
  return maxima;
}

/// Re-run a timed call with a JSONL checkpoint, check every answer's bound,
/// its per-kind maxima against the timed call's, and a seeded sample of
/// answers bit-for-bit against a direct DeviationEngine::solve.
void check_call_answers(const Options& options, std::size_t call,
                        const std::vector<Graph>& rings,
                        const KindMaxima& timed, Outcome& out) {
  const std::string path = options.scratch + "/sweep_check.jsonl";
  std::remove(path.c_str());
  exp::SweepDriverOptions sweep = sweep_options();
  sweep.output_path = path;
  const exp::SweepDriverReport report = exp::run_sweep_driver(rings, sweep);
  Outcome scratch;
  if (check_report(report, call, scratch) != timed)
    out.fail("sweep call " + std::to_string(call) +
             ": per-kind maxima differ between the timed and checked run");

  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  if (lines.size() != report.tasks_total) {
    out.fail("sweep call " + std::to_string(call) + ": checkpoint has " +
             std::to_string(lines.size()) + " lines");
    return;
  }
  ringshare::util::Xoshiro256 rng(options.seed ^ (0xC0FFEEULL + call));
  const engine::DeviationEngine direct;
  for (std::size_t k = 0; k < kSampledTasksPerCall; ++k) {
    const std::string& line = lines[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(lines.size()) - 1))];
    const auto key = engine::json_string_field(line, "task");
    const auto parts = key ? engine::parse_task_key(*key) : std::nullopt;
    const auto ratio = engine::json_string_field(line, "ratio");
    const auto t_star = engine::json_string_field(line, "t_star");
    const auto utility = engine::json_string_field(line, "utility");
    const auto honest = engine::json_string_field(line, "honest_utility");
    if (!parts || !ratio || !t_star || !utility || !honest) {
      out.fail("sweep checkpoint line malformed: " + line);
      continue;
    }
    const std::string swept =
        *ratio + '|' + *t_star + '|' + *utility + '|' + *honest;
    const std::string solved = answer_signature(
        direct.solve(rings[parts->instance], parts->task));
    if (swept != solved)
      out.fail("sweep task " + *key + ": swept " + swept + " != direct " +
               solved);
  }
}

Outcome traced_sweep(const Options& options, Tracer& tracer) {
  Outcome out;
  const exp::SweepDriverOptions sweep = sweep_options();

  // Pass 1: the sweep itself, each call from cleared caches like the timed
  // run, counters taken over exactly kTracedCalls.
  const CounterDelta delta = tracer.call("util", "PerfCounters::snapshot",
                                         [] { return CounterDelta(); });
  for (std::size_t call = 0; call < kTracedCalls; ++call) {
    tracer.call("util", "cold_caches", cold_caches);
    const std::vector<Graph> rings = tracer.call(
        "exp", "random_rings", [&] { return call_rings(options.seed, call); });
    const exp::SweepDriverReport report = tracer.call(
        "exp", "run_sweep_driver",
        [&] { return exp::run_sweep_driver(rings, sweep); });
    out.attempted += report.tasks_total;
    tracer.call("client", "check_report",
                [&] { return check_report(report, call, out); });
  }
  const ringshare::util::PerfSnapshot counts = tracer.call(
      "util", "PerfCounters::snapshot", [&] { return delta.take(); });
  set_counter_layers(out, counts);
  set_layer(out, "trace.ops", static_cast<double>(out.attempted));

  // Pass 2 (cold again): the engine's solve split into its public steps.
  tracer.call("util", "cold_caches", cold_caches);
  const engine::DeviationEngine eng;
  for (std::size_t call = 0; call < kTracedEngineCalls; ++call) {
    const std::vector<Graph> rings = tracer.call(
        "exp", "random_rings", [&] { return call_rings(options.seed, call); });
    for (const Graph& ring : rings) {
      for (const DeviationKind kind : kKinds) {
        const std::vector<game::DeviationTask> tasks = tracer.call(
            "game", "deviation_tasks",
            [&] { return game::deviation_tasks(ring, kind); });
        for (const game::DeviationTask& task : tasks) {
          const engine::CanonicalTask canon =
              tracer.call("engine", "canonicalize_task",
                          [&] { return engine::canonicalize_task(ring, task); });
          const game::DeviationOptimum canonical = tracer.call(
              "engine", "solve_canonical",
              [&] { return eng.solve_canonical(canon); });
          const game::DeviationOptimum optimum =
              tracer.call("engine", "translate_optimum", [&] {
                return engine::translate_optimum(ring, task, canon, canonical);
              });
          ++out.attempted;
          const std::string bound = tracer.call("client", "check_ratio_bound",
              [&] { return check_ratio_bound(kind, optimum.ratio); });
          if (!bound.empty()) out.fail(bound);
        }
      }
    }
  }
  const auto [canon_ms, canon_calls] = tracer.self_ms_of("canonicalize_task");
  const auto [translate_ms, translate_calls] =
      tracer.self_ms_of("translate_optimum");
  const auto [solve_ms, solve_calls] = tracer.self_ms_of("solve_canonical");
  set_layer(out, "engine.canonicalize_us", 1e3 * canon_ms / canon_calls);
  set_layer(out, "engine.translate_us", 1e3 * translate_ms / translate_calls);
  set_layer(out, "engine.solve_canonical_ms", solve_ms / solve_calls);
  out.add_config("traced_calls", std::to_string(kTracedCalls));
  return out;
}

}  // namespace

Outcome run_sweep_n6(const Options& options, Tracer& tracer) {
  if (options.trace) return traced_sweep(options, tracer);
  Outcome out;
  const exp::SweepDriverOptions sweep = sweep_options();

  // Set-up: cold caches, the shared pool, every call's input rings, and a
  // warm-up call (the process's first call starts the pool and the
  // library's lazy state; timing only the input generation, a few
  // milliseconds of allocation, would not be steady). The warm-up rings are
  // the same for every seed and no timed call uses them.
  std::vector<std::vector<Graph>> inputs;
  HostSpeed speed;
  std::vector<std::pair<double, std::size_t>> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inputs.clear();
    const std::uint64_t t0 = now_ns();
    cold_caches();
    (void)ringshare::util::global_pool();
    for (std::size_t call = 0; call < kMaxCalls; ++call)
      inputs.push_back(call_rings(options.seed, call));
    (void)exp::run_sweep_driver(call_rings(0, kMaxCalls), sweep);
    setup_ms.emplace_back(ns_to_ms(now_ns() - t0), speed.stamp());
    for (int k = 0; k < kSetupProbes; ++k) speed.probe();
  }

  std::vector<std::pair<double, std::size_t>> call_ms;
  std::vector<KindMaxima> maxima;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::size_t call = 0;
       call < kMaxCalls && (call == 0 || now_ns() < deadline); ++call) {
    cold_caches();
    const std::uint64_t t0 = now_ns();
    const exp::SweepDriverReport report =
        exp::run_sweep_driver(inputs[call], sweep);
    call_ms.emplace_back(ns_to_ms(now_ns() - t0), speed.stamp());
    speed.probe_after(call_ms.back().first);
    out.attempted += report.tasks_total;
    maxima.push_back(check_report(report, call, out));
  }

  ringshare::util::Xoshiro256 rng(options.seed ^ 0x5EEDULL);
  for (std::size_t k = 0; k < kCheckedCalls; ++k) {
    const std::size_t call = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(maxima.size()) - 1));
    check_call_answers(options, call, inputs[call], maxima[call], out);
  }

  // Call times at nominal host speed; the wall-clock figures are kept in
  // the record beside them.
  std::vector<double> nominal, wall, setup_s;
  double busy_ms = 0, wall_busy_ms = 0;
  for (const auto& [ms, stamp] : call_ms) {
    nominal.push_back(speed.nominal_ms(ms, stamp));
    wall.push_back(ms);
    busy_ms += nominal.back();
    wall_busy_ms += ms;
  }
  for (const auto& [ms, stamp] : setup_ms)
    setup_s.push_back(speed.nominal_ms(ms, stamp) * 1e-3);
  const double tasks_per_s = 1e3 * static_cast<double>(out.attempted) / busy_ms;
  set_end_to_end(out, median(setup_s), tasks_per_s, quantile(nominal, 0.5),
                 quantile(nominal, kTailQuantile));
  out.detail = {
      {"sweep_tasks_per_s", tasks_per_s, "1/s"},
      {"sweep_calls", static_cast<double>(call_ms.size()), "count"},
      {"sweep_tasks_per_call",
       static_cast<double>(kRingsPerCall * kRingSize * kKinds.size()), "count"},
      {"sweep_call_p50_ms", quantile(nominal, 0.5), "ms"},
      {"sweep_call_p90_ms", quantile(nominal, kTailQuantile), "ms"},
      {"sweep_tasks_per_wall_s",
       1e3 * static_cast<double>(out.attempted) / wall_busy_ms, "1/s"},
      {"sweep_call_p50_wall_ms", quantile(wall, 0.5), "ms"},
      {"host_probe_p50_ms", speed.probe_p50_ms(), "ms"},
  };
  out.add_config("ring_size", std::to_string(kRingSize));
  out.add_config("rings_per_call", std::to_string(kRingsPerCall));
  out.add_config("op", "one run_sweep_driver call (180 tasks), timed at "
                       "nominal host speed");
  out.add_config("tail_quantile", "0.9");
  return out;
}

}  // namespace perfbench
