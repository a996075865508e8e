// ladder — Sybil tasks on random rings of size n ∈ {25, 50, 100, 200}.
//
// The rings and split vertices form a fixed corpus, generated from a
// constant, with more of the cheap small rings per rung. Each pass solves
// every corpus task once, one after another through
// engine::DeviationEngine::solve and from cleared caches, each under a fresh
// rotation or reflection drawn from the seed and the pass. Passes repeat
// until the time is up. A task's figure is the median of its passes, and
// the per-rung p50 and p75 are taken over those figures. Here the peel (the
// bd ring kernel's Dinkelbach loop inside game partition probes) does nearly
// all the work, and how a task's cost grows with n is measured as the
// log-log slope of the per-rung p50.
//
// Why the corpus is fixed: one task's cost varies ~30x between rings and
// vertices of one size, and a run affords only a few dozen tasks at n = 200,
// so fresh rings per seed moved the gated figures by more than their bound
// from one seed to the next. The seed still changes every input the library
// sees; it cannot change the work, which the engine's dihedral
// canonicalization makes the same for every relabeling.
#include <cmath>

#include "bench.hpp"
#include "engine/deviation_engine.hpp"
#include "exp/families.hpp"
#include "game/breakpoints.hpp"
#include "game/sybil_ring.hpp"
#include "graph/builders.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ringshare::game::DeviationKind;
using ringshare::graph::Graph;
using ringshare::graph::Vertex;
namespace engine = ringshare::engine;
namespace exp = ringshare::exp;
namespace game = ringshare::game;

constexpr std::size_t kRungs[] = {25, 50, 100, 200};
constexpr std::size_t kRungCount = std::size(kRungs);
constexpr std::int64_t kMaxWeight = 10;
/// Corpus tasks per rung, each on its own ring.
constexpr std::size_t kCorpusPerRung[] = {16, 8, 4, 4};
constexpr std::uint64_t kCorpusSeed = 20200518;
/// Seed of the warm-up tasks, which no timed pass uses.
constexpr std::uint64_t kWarmUpSeed = 7;
constexpr int kSetupReps = 11;
/// Speed probes after each set-up.
constexpr int kSetupProbes = 3;
/// Tasks per rung in the traced run (fixed, so counts repeat exactly).
constexpr std::size_t kTracedTasks = 3;
constexpr double kTailQuantile = 0.75;

/// One Sybil task: a random ring and the vertex that splits.
struct Task {
  Graph ring;
  Vertex vertex;
};

/// `count` tasks per rung, from `seed`.
std::vector<std::vector<Task>> build_tasks(std::uint64_t seed,
                                           const std::size_t* count) {
  std::vector<std::vector<Task>> rungs(kRungCount);
  for (std::size_t r = 0; r < kRungCount; ++r) {
    const std::size_t n = kRungs[r];
    for (std::size_t j = 0; j < count[r]; ++j) {
      const std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + j * 1009 + n;
      ringshare::util::Xoshiro256 rng(s ^ 0xA5A5ULL);
      rungs[r].push_back(
          {exp::random_rings(1, n, s, kMaxWeight).front(),
           static_cast<Vertex>(
               rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))});
    }
  }
  return rungs;
}

/// `task` under a rotation or reflection drawn from `rng`.
Task relabel(const Task& task, ringshare::util::Xoshiro256& rng) {
  const std::vector<std::size_t> order =
      dihedral_order(task.ring.vertex_count(), rng);
  std::vector<ringshare::num::Rational> weights;
  Vertex vertex = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    weights.push_back(task.ring.weight(static_cast<Vertex>(order[i])));
    if (order[i] == task.vertex) vertex = static_cast<Vertex>(i);
  }
  return {ringshare::graph::make_ring(std::move(weights)), vertex};
}

game::DeviationTask sybil(Vertex v) {
  game::DeviationTask task;
  task.kind = DeviationKind::kSybil;
  task.vertex = v;
  return task;
}

/// Least-squares slope of log(p50) against log(n).
double log_log_slope(const std::vector<double>& p50) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double m = static_cast<double>(p50.size());
  for (std::size_t r = 0; r < p50.size(); ++r) {
    const double x = std::log(static_cast<double>(kRungs[r]));
    const double y = std::log(p50[r]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (m * sxy - sx * sy) / (m * sxx - sx * sx);
}

/// Geometric mean over the rungs, each weighted by its n: the costly rungs
/// count most, so a 2x change at n = 200 alone moves it by 2^(8/15) ≈ 1.45x.
double rung_weighted_mean(const std::vector<double>& per_rung) {
  double log_sum = 0, weights = 0;
  for (std::size_t r = 0; r < per_rung.size(); ++r) {
    const double w = static_cast<double>(kRungs[r]);
    log_sum += w * std::log(per_rung[r]);
    weights += w;
  }
  return std::exp(log_sum / weights);
}

std::string rung_suffix(std::size_t r) {
  return ".n" + std::to_string(kRungs[r]);
}

Outcome traced_ladder(const Options& options, Tracer& tracer) {
  Outcome out;
  // The first kTracedTasks corpus tasks of each rung, relabeled by the seed.
  const std::vector<std::vector<Task>> tasks =
      tracer.call("client", "build_tasks", [&] {
        const std::vector<std::vector<Task>> corpus =
            build_tasks(kCorpusSeed, kCorpusPerRung);
        ringshare::util::Xoshiro256 rng(options.seed);
        std::vector<std::vector<Task>> first(kRungCount);
        for (std::size_t r = 0; r < kRungCount; ++r)
          for (std::size_t k = 0; k < kTracedTasks; ++k)
            first[r].push_back(relabel(corpus[r][k], rng));
        return first;
      });
  const engine::DeviationEngine eng;

  // Probe pass A: cold honest-ring decompositions, caches cleared each time.
  for (std::size_t r = 0; r < kRungCount; ++r) {
    double total_ms = 0;
    for (std::size_t k = 0; k < kTracedTasks; ++k) {
      tracer.call("util", "cold_caches", cold_caches);
      const std::uint64_t t0 = now_ns();
      tracer.call("bd", "Decomposition",
                  [&] { return ringshare::bd::Decomposition(tasks[r][k].ring); });
      total_ms += ns_to_ms(now_ns() - t0);
    }
    set_layer(out, "bd.decompose_ms" + rung_suffix(r), total_ms / kTracedTasks);
  }

  // Probe pass B, from cold caches like each timed pass: family build,
  // structure partition, one signature probe.
  std::vector<double> partition_ms(kRungCount);
  for (std::size_t r = 0; r < kRungCount; ++r) {
    double probe_us = 0, pieces = 0;
    for (std::size_t k = 0; k < kTracedTasks; ++k) {
      tracer.call("util", "cold_caches", cold_caches);
      const Task& first = tasks[r][k];
      const game::ParametrizedGraph family = tracer.call(
          "game", "sybil_family",
          [&] { return game::sybil_family(first.ring, first.vertex); });
      const std::uint64_t t0 = now_ns();
      const game::StructurePartition partition =
          tracer.call("game", "find_structure_partition",
                      [&] { return game::find_structure_partition(family); });
      partition_ms[r] += ns_to_ms(now_ns() - t0);
      pieces += static_cast<double>(partition.piece_count());
      const ringshare::num::Rational mid =
          tracer.call("game", "piece_midpoint", [&] {
            return partition.piece_midpoint(partition.piece_count() / 2);
          });
      const std::uint64_t t1 = now_ns();
      tracer.call("game", "ParametrizedGraph::signature",
                  [&] { return family.signature(mid); });
      probe_us += ns_to_ms(now_ns() - t1) * 1e3;
    }
    partition_ms[r] /= kTracedTasks;
    set_layer(out, "game.partition_ms" + rung_suffix(r), partition_ms[r]);
    set_layer(out, "game.partition_pieces" + rung_suffix(r),
              pieces / kTracedTasks);
    set_layer(out, "game.signature_probe_us" + rung_suffix(r),
              probe_us / kTracedTasks);
  }

  // Solve pass, cold per task like the timed run: the engine's solve split
  // into its public steps, with counter deltas per rung.
  ringshare::util::PerfSnapshot all{};
  bool first = true;
  for (std::size_t r = 0; r < kRungCount; ++r) {
    const CounterDelta delta = tracer.call("util", "PerfCounters::snapshot",
                                           [] { return CounterDelta(); });
    double solve_ms = 0;
    for (std::size_t k = 0; k < kTracedTasks; ++k) {
      tracer.call("util", "cold_caches", cold_caches);
      const Graph& ring = tasks[r][k].ring;
      const game::DeviationTask task = sybil(tasks[r][k].vertex);
      const engine::CanonicalTask canon = tracer.call(
          "engine", "canonicalize_task",
          [&] { return engine::canonicalize_task(ring, task); });
      const std::uint64_t t0 = now_ns();
      const game::DeviationOptimum canonical = tracer.call(
          "engine", "solve_canonical", [&] { return eng.solve_canonical(canon); });
      solve_ms += ns_to_ms(now_ns() - t0);
      const game::DeviationOptimum optimum =
          tracer.call("engine", "translate_optimum", [&] {
            return engine::translate_optimum(ring, task, canon, canonical);
          });
      ++out.attempted;
      const std::string bound = tracer.call("client", "check_ratio_bound", [&] {
        return check_ratio_bound(DeviationKind::kSybil, optimum.ratio);
      });
      if (!bound.empty()) out.fail("n=" + std::to_string(kRungs[r]) + ": " + bound);
    }
    const ringshare::util::PerfSnapshot d = tracer.call(
        "util", "PerfCounters::snapshot", [&] { return delta.take(); });
    solve_ms /= kTracedTasks;
    const double tasks = kTracedTasks;
    set_layer(out, "engine.solve_canonical_ms" + rung_suffix(r), solve_ms);
    set_layer(out, "game.partition_share" + rung_suffix(r),
              solve_ms > 0 ? partition_ms[r] / solve_ms : 0);
    set_layer(out, "game.signature_probes" + rung_suffix(r),
              static_cast<double>(d.sig_oracle_hits) / tasks);
    set_layer(out, "bd.dinkelbach_iterations" + rung_suffix(r),
              static_cast<double>(d.dinkelbach_iterations) / tasks);
    set_layer(out, "bd.dinkelbach_per_probe" + rung_suffix(r),
              d.sig_oracle_hits ? static_cast<double>(d.dinkelbach_iterations) /
                                      static_cast<double>(d.sig_oracle_hits)
                                : 0);
    set_layer(out, "bd.ring_kernel_evals" + rung_suffix(r),
              static_cast<double>(d.ring_kernel_evals) / tasks);
    if (first) {
      all = d;
      first = false;
    } else {
#define PERFBENCH_ADD(name) all.name += d.name;
      RINGSHARE_PERF_COUNTER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    }
  }
  set_counter_layers(out, all);
  set_layer(out, "trace.ops", static_cast<double>(kTracedTasks * kRungCount));
  const auto [canon_ms, canon_calls] = tracer.self_ms_of("canonicalize_task");
  const auto [translate_ms, translate_calls] =
      tracer.self_ms_of("translate_optimum");
  const auto [solve_ms, solve_calls] = tracer.self_ms_of("solve_canonical");
  set_layer(out, "engine.canonicalize_us", 1e3 * canon_ms / canon_calls);
  set_layer(out, "engine.translate_us", 1e3 * translate_ms / translate_calls);
  set_layer(out, "engine.solve_canonical_ms", solve_ms / solve_calls);
  out.add_config("traced_tasks_per_rung", std::to_string(kTracedTasks));
  return out;
}

}  // namespace

Outcome run_ladder(const Options& options, Tracer& tracer) {
  if (options.trace) return traced_ladder(options, tracer);
  Outcome out;
  const engine::DeviationEngine eng;
  HostSpeed speed;

  // Set-up: the corpus, and a warm-up on n = 25 tasks no timed pass uses,
  // the same for every seed (timing only the ring generation, a few
  // milliseconds of allocation, would not be steady).
  constexpr std::size_t kWarmUpPerRung[] = {8, 0, 0, 0};
  std::vector<std::vector<Task>> corpus;
  std::vector<std::pair<double, std::size_t>> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    corpus = build_tasks(kCorpusSeed, kCorpusPerRung);
    const std::vector<std::vector<Task>> warm_up =
        build_tasks(kWarmUpSeed, kWarmUpPerRung);
    for (const Task& t : warm_up.front()) {
      cold_caches();
      (void)eng.solve(t.ring, sybil(t.vertex));
    }
    setup_ms.emplace_back(ns_to_ms(now_ns() - t0), speed.stamp());
    for (int k = 0; k < kSetupProbes; ++k) speed.probe();
  }

  // task_ms[r][j]: corpus task j of rung r, one (wall ms, stamp) per pass.
  std::vector<std::vector<std::vector<std::pair<double, std::size_t>>>> task_ms(
      kRungCount);
  std::vector<std::vector<std::string>> answers(kRungCount);
  for (std::size_t r = 0; r < kRungCount; ++r) {
    task_ms[r].resize(corpus[r].size());
    answers[r].resize(corpus[r].size());
  }
  std::size_t passes = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (; passes == 0 || now_ns() < deadline; ++passes) {
    ringshare::util::Xoshiro256 rng(options.seed * 0x9E3779B97F4A7C15ULL +
                                    passes);
    for (std::size_t r = 0; r < kRungCount; ++r) {
      for (std::size_t j = 0; j < corpus[r].size(); ++j) {
        const Task t = relabel(corpus[r][j], rng);
        cold_caches();
        const std::uint64_t t0 = now_ns();
        const game::DeviationOptimum optimum = eng.solve(t.ring, sybil(t.vertex));
        task_ms[r][j].emplace_back(ns_to_ms(now_ns() - t0), speed.stamp());
        speed.probe_after(task_ms[r][j].back().first);
        ++out.attempted;
        const std::string bound =
            check_ratio_bound(DeviationKind::kSybil, optimum.ratio);
        if (!bound.empty())
          out.fail("n=" + std::to_string(kRungs[r]) + ": " + bound);
        // Every relabeling of a task must give its first pass's ratio and
        // utilities. The split t* may differ: a reflection maps t to w_v - t,
        // and ties go to the smallest t.
        const std::string signature = optimum.ratio.to_string() + '|' +
                                      optimum.utility.to_string() + '|' +
                                      optimum.honest_utility.to_string();
        if (answers[r][j].empty()) {
          answers[r][j] = signature;
        } else if (signature != answers[r][j]) {
          out.fail("ladder n=" + std::to_string(kRungs[r]) + " task " +
                   std::to_string(j) + " pass " + std::to_string(passes) +
                   ": " + signature + " != first pass " + answers[r][j]);
        }
      }
    }
  }

  // A task's figure is its median over the passes, at nominal host speed;
  // the wall-clock p50s are kept in the record beside them.
  std::vector<double> p50(kRungCount), tail(kRungCount), rate(kRungCount),
      wall_p50(kRungCount);
  for (std::size_t r = 0; r < kRungCount; ++r) {
    std::vector<double> per_task, per_task_wall;
    double total_ms = 0;
    for (const auto& times : task_ms[r]) {
      std::vector<double> nominal, wall;
      for (const auto& [ms, stamp] : times) {
        nominal.push_back(speed.nominal_ms(ms, stamp));
        wall.push_back(ms);
      }
      per_task.push_back(median(nominal));
      per_task_wall.push_back(median(wall));
      total_ms += per_task.back();
    }
    p50[r] = median(per_task);
    tail[r] = quantile(per_task, kTailQuantile);
    rate[r] = 1e3 * static_cast<double>(per_task.size()) / total_ms;
    wall_p50[r] = median(per_task_wall);
  }
  std::vector<double> setup_s;
  for (const auto& [ms, stamp] : setup_ms)
    setup_s.push_back(speed.nominal_ms(ms, stamp) * 1e-3);
  const double exponent = log_log_slope(p50);
  set_end_to_end(out, median(setup_s), rung_weighted_mean(rate),
                 rung_weighted_mean(p50), rung_weighted_mean(tail));
  for (std::size_t r = 0; r < kRungCount; ++r)
    out.detail.push_back({"ladder_n" + std::to_string(kRungs[r]) +
                              "_task_p50_ms",
                          p50[r], "ms"});
  out.detail.push_back({"ladder_exponent", exponent, "1"});
  for (std::size_t r = 0; r < kRungCount; ++r)
    out.detail.push_back({"ladder_n" + std::to_string(kRungs[r]) +
                              "_task_p50_wall_ms",
                          wall_p50[r], "ms"});
  out.detail.push_back({"host_probe_p50_ms", speed.probe_p50_ms(), "ms"});
  out.detail.push_back({"ladder_passes", static_cast<double>(passes), "count"});
  out.add_config("rungs", "25,50,100,200");
  out.add_config("corpus_per_rung", "16,8,4,4");
  out.add_config("op", "one cold Sybil task; a task's time is its median over "
                       "the passes at nominal host speed; gated figures are "
                       "geometric means over the four rungs, weighted by n");
  out.add_config("tail_quantile", "0.75");
  return out;
}

}  // namespace perfbench
