// serve_open — open-loop Poisson replay into engine::BatchServer.
//
// Requests arrive on a seeded Poisson schedule at one fixed offered rate,
// whatever the server's state (openloop.hpp). The mix:
//   * symmetric repeats: queries on rotated / reflected / scaled copies of
//     a few n = 6 orbits, which the shard caches and single-flight dedup
//     answer;
//   * fresh random n = 6..12 rings, registered just before their query,
//     which need a solve;
//   * a rare n = 50 Sybil task; responses leave in arrival order, so its
//     head-of-line blocking reaches the responses behind it;
//   * update_weight writes on the orbit copies (each perturbs one weight,
//     the next restores it), which drop cached entries beside the reads.
// Latency runs from each request's scheduled time to its response's
// emission. A request counts within the limit only when it was answered,
// correctly, within kLatencyLimitMs.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "engine/batch_server.hpp"
#include "engine/wire.hpp"
#include "exp/families.hpp"
#include "graph/builders.hpp"
#include "openloop.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ringshare::game::DeviationKind;
using ringshare::graph::Graph;
using ringshare::num::Rational;
namespace engine = ringshare::engine;
namespace game = ringshare::game;

/// Requests per second: low enough that the shards stay far from
/// saturation even when the host runs twice as slow, where queueing would
/// make latency swing between runs.
constexpr double kOfferedRate = 200;
constexpr double kLatencyLimitMs = 25;
constexpr std::size_t kShards = 2;
constexpr std::size_t kOrbitBases = 3;
constexpr std::size_t kOrbitCopies = 8;
constexpr std::int64_t kMaxWeight = 10;
constexpr double kUpdateShare = 0.02;
/// n = 50 tasks: rare, but ~40 a run. Each holds back every later response
/// while it solves, so with the requests queued behind them they make up
/// well over 1 % of the queries and the p99 falls among them: the gated
/// tail is the head-of-line blocking. Forty draws keep it from swinging
/// with the cost of one n = 50 ring.
constexpr double kBigShare = 0.01;
/// Fresh solves are the majority, so the p50 falls inside the solve
/// latencies rather than on the edge between them and cache hits.
constexpr double kFreshShare = 0.55;
constexpr std::size_t kBigRing = 50;
/// Share of symmetric repeats sent as two identical queries at once (two
/// clients asking the same question): the second coalesces onto the first.
constexpr double kTwinShare = 0.25;
constexpr std::size_t kSampledChecks = 48;
constexpr int kSetupReps = 15;

enum class Arrival { kRepeat, kFresh, kBig, kUpdate };

struct Request {
  Arrival arrival = Arrival::kRepeat;
  std::size_t instance = 0;
  std::optional<Graph> registers;  ///< fresh/big: registered before the query
  std::string key;                 ///< task key, or update key
  game::DeviationTask task;
  Rational weight;                 ///< update: the new weight
  /// Sampled queries: the instance as the server sees it at submit time,
  /// for the direct-solve comparison.
  std::optional<Graph> expected_ring;
};

struct Plan {
  std::vector<std::uint64_t> offsets_ns;
  std::vector<Graph> orbit;  ///< initial orbit copies, ids 0..
  std::vector<Request> requests;
};

Graph ring_of(const std::vector<Rational>& weights) {
  return ringshare::graph::make_ring(weights);
}

game::DeviationTask random_task(const Graph& ring, DeviationKind kind,
                                ringshare::util::Xoshiro256& rng) {
  const std::vector<game::DeviationTask> tasks = game::deviation_tasks(ring, kind);
  return tasks[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1))];
}

Plan build_plan(const Options& options) {
  Plan plan;
  const std::vector<std::uint64_t> arrivals =
      poisson_schedule(kOfferedRate, options.seconds, options.seed);
  ringshare::util::Xoshiro256 rng(options.seed * 0x9E3779B97F4A7C15ULL + 77);

  // Orbit copies: rotation, optional reflection, scale 1..3 of each base.
  std::vector<std::vector<Rational>> weights;
  for (std::size_t b = 0; b < kOrbitBases; ++b) {
    const Graph base = ringshare::exp::random_rings(1, 6, rng(), kMaxWeight).front();
    for (std::size_t c = 0; c < kOrbitCopies; ++c) {
      const std::size_t rot = static_cast<std::size_t>(rng.uniform_int(0, 5));
      const bool reflect = rng.uniform_int(0, 1) == 1;
      const Rational scale(rng.uniform_int(1, 3));
      std::vector<Rational> w(6);
      for (std::size_t j = 0; j < 6; ++j)
        w[j] = base.weight(static_cast<ringshare::graph::Vertex>(
                   reflect ? (rot + 6 - j) % 6 : (rot + j) % 6)) *
               scale;
      weights.push_back(std::move(w));
    }
  }
  for (const auto& w : weights) plan.orbit.push_back(ring_of(w));
  const std::vector<std::vector<Rational>> original = weights;
  // Per orbit copy: the vertex an update perturbed, or none.
  std::vector<std::optional<std::size_t>> perturbed(weights.size());

  const double sample_p =
      static_cast<double>(kSampledChecks) /
      static_cast<double>(std::max<std::size_t>(arrivals.size(), 1));
  auto uniform01 = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  const std::size_t orbit_count = weights.size();
  std::size_t next_id = orbit_count;
  plan.requests.reserve(arrivals.size() * 2);
  for (const std::uint64_t offset : arrivals) {
    plan.offsets_ns.push_back(offset);
    Request& req = plan.requests.emplace_back();
    const double u = uniform01();
    if (u < kUpdateShare) {
      req.arrival = Arrival::kUpdate;
      req.instance = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(orbit_count) - 1));
      std::optional<std::size_t>& slot = perturbed[req.instance];
      std::size_t v;
      if (slot) {
        v = *slot;
        req.weight = original[req.instance][v];
        slot.reset();
      } else {
        v = static_cast<std::size_t>(rng.uniform_int(0, 5));
        req.weight = original[req.instance][v] + Rational(rng.uniform_int(1, 4));
        slot = v;
      }
      weights[req.instance][v] = req.weight;
      req.key = engine::format_update_key(req.instance,
                                          static_cast<ringshare::graph::Vertex>(v));
      continue;
    }
    const DeviationKind kind =
        static_cast<DeviationKind>(rng.uniform_int(0, game::kDeviationKindCount - 1));
    Graph ring;
    if (u < kUpdateShare + kBigShare) {
      req.arrival = Arrival::kBig;
      req.instance = next_id++;
      ring = ringshare::exp::random_rings(1, kBigRing, rng(), kMaxWeight).front();
      req.task = random_task(ring, DeviationKind::kSybil, rng);
      req.registers = ring;
    } else if (u < kUpdateShare + kBigShare + kFreshShare) {
      req.arrival = Arrival::kFresh;
      req.instance = next_id++;
      const auto n = static_cast<std::size_t>(rng.uniform_int(6, 12));
      ring = ringshare::exp::random_rings(1, n, rng(), kMaxWeight).front();
      req.task = random_task(ring, kind, rng);
      req.registers = ring;
    } else {
      req.arrival = Arrival::kRepeat;
      req.instance = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(orbit_count) - 1));
      ring = ring_of(weights[req.instance]);
      req.task = random_task(ring, kind, rng);
    }
    req.key = engine::format_task_key(req.instance, req.task);
    const bool twin = req.arrival == Arrival::kRepeat && uniform01() < kTwinShare;
    if (uniform01() < sample_p) req.expected_ring = std::move(ring);
    if (twin) {
      Request copy = req;
      copy.expected_ring.reset();
      plan.offsets_ns.push_back(offset);
      plan.requests.push_back(std::move(copy));
    }
  }
  return plan;
}

/// Response capture: the sink runs under the server's sequencer lock, and
/// drain() orders every write before the reads that follow it.
struct Responses {
  std::vector<std::string> lines;
  std::vector<std::uint64_t> done_ns;

  void record(const std::string& line) {
    const std::uint64_t now = now_ns();
    const auto req = engine::json_uint_field(line, "req");
    if (!req || *req >= lines.size()) return;
    lines[*req] = line;
    done_ns[*req] = now;
  }
};

struct Served {
  Plan plan;
  Replay replay;
  Responses responses;
  engine::ServeStats stats;
  ringshare::util::PerfSnapshot counters;
  double setup_s = 0;
};

Served serve(const Options& options, Tracer& tracer) {
  Served run;
  std::unique_ptr<engine::BatchServer> server;
  std::vector<double> setup_s;
  engine::BatchServerConfig config;
  config.shards = kShards;
  // Set-up: the request plan, a fresh server, the orbit registrations.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tracer.call("engine", "~BatchServer", [&] { server.reset(); });
    const std::uint64_t t0 = now_ns();
    tracer.call("client", "build_plan", [&] {
      run.plan = build_plan(options);
      const std::size_t count = run.plan.requests.size();
      run.responses.lines.assign(count, std::string());
      run.responses.done_ns.assign(count, 0);
    });
    server = tracer.call("engine", "BatchServer", [&] {
      return std::make_unique<engine::BatchServer>(
          config, [&run](const std::string& line) { run.responses.record(line); });
    });
    for (std::size_t i = 0; i < run.plan.orbit.size(); ++i)
      tracer.call("engine", "register_instance",
                  [&] { server->register_instance(i, run.plan.orbit[i]); });
    setup_s.push_back(ns_to_ms(now_ns() - t0) * 1e-3);
  }
  run.setup_s = median(setup_s);

  tracer.call("util", "cold_caches", cold_caches);
  const CounterDelta delta = tracer.call("util", "PerfCounters::snapshot",
                                         [] { return CounterDelta(); });
  std::vector<Request>& requests = run.plan.requests;
  // The generator's own time, its sleeps included, is the client's.
  run.replay = tracer.call("client", "replay_open_loop", [&] {
    return replay_open_loop(run.plan.offsets_ns, [&](std::size_t k) {
      Request& req = requests[k];
      if (req.arrival == Arrival::kUpdate) {
        tracer.call(
            "engine", "update_weight",
            [&] { server->update_weight(k, req.key, req.weight); }, k);
        return;
      }
      if (req.registers)
        tracer.call(
            "engine", "register_instance",
            [&] {
              server->register_instance(req.instance,
                                        std::move(*req.registers));
            },
            k);
      tracer.call("engine", "submit", [&] { server->submit(k, req.key); }, k);
    });
  });
  tracer.call("engine", "drain", [&] { server->drain(); });
  run.stats = server->stats();
  run.counters = tracer.call("util", "PerfCounters::snapshot",
                             [&] { return delta.take(); });
  tracer.call("engine", "~BatchServer", [&] { server.reset(); });
  return run;
}

}  // namespace

Outcome run_serve_open(const Options& options, Tracer& tracer) {
  Outcome out;
  Served run = serve(options, tracer);
  const std::vector<Request>& requests = run.plan.requests;

  std::vector<double> query_ms, update_ms;
  std::size_t within = 0, queries = 0;
  const engine::DeviationEngine direct;
  {
    Tracer::Span checking(tracer, "client", "check_responses", 0);
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const Request& req = requests[k];
      const std::string& line = run.responses.lines[k];
      ++out.attempted;
      const std::string where = "serve req " + std::to_string(k) + " (" + req.key + ")";
      if (line.empty()) {
        out.fail(where + ": no response");
        if (req.arrival != Arrival::kUpdate) ++queries;
        continue;
      }
      const double latency = ns_to_ms(run.replay.latency_ns(k, run.responses.done_ns[k]));
      if (req.arrival == Arrival::kUpdate) {
        if (line.find("\"applied\": true") == std::string::npos)
          out.fail(where + ": update not applied: " + line);
        update_ms.push_back(latency);
        continue;
      }
      ++queries;
      query_ms.push_back(latency);
      const auto ratio = engine::json_string_field(line, "ratio");
      const auto t_star = engine::json_string_field(line, "t_star");
      const auto utility = engine::json_string_field(line, "utility");
      const auto honest = engine::json_string_field(line, "honest_utility");
      if (!ratio || !t_star || !utility || !honest) {
        out.fail(where + ": error response " + line);
        continue;
      }
      const std::string bound =
          check_ratio_bound(req.task.kind, Rational::from_string(*ratio));
      if (!bound.empty()) {
        out.fail(where + ": " + bound);
        continue;
      }
      if (req.expected_ring) {
        const std::string solved = tracer.call("engine", "DeviationEngine::solve", [&] {
          return answer_signature(direct.solve(*req.expected_ring, req.task));
        });
        const std::string served = *ratio + '|' + *t_star + '|' + *utility + '|' + *honest;
        if (served != solved) {
          out.fail(where + ": served " + served + " != direct " + solved);
          continue;
        }
      }
      if (latency <= kLatencyLimitMs) ++within;
    }
  }

  const double within_frac =
      queries ? static_cast<double>(within) / static_cast<double>(queries) : 0;
  const double goodput = static_cast<double>(within) / options.seconds;
  const double p50 = quantile(query_ms, 0.5), p99 = quantile(query_ms, 0.99);
  const double lag_p99 = run.replay.lag_quantile_ms(0.99);
  set_end_to_end(out, run.setup_s, goodput, p50, p99);
  out.detail = {
      {"serve_p50_ms", p50, "ms"},
      {"serve_p99_ms", p99, "ms"},
      {"serve_within_limit_frac", within_frac, "frac"},
      {"serve_goodput_per_s", goodput, "1/s"},
      {"serve_queries", static_cast<double>(queries), "count"},
      {"serve_updates", static_cast<double>(update_ms.size()), "count"},
      {"serve_update_p50_ms", quantile(update_ms, 0.5), "ms"},
      {"client_gen_lag_p99_ms", lag_p99, "ms"},
  };
  out.add_config("offered_rate_per_s", std::to_string(kOfferedRate));
  out.add_config("arrivals", "open-loop Poisson");
  out.add_config("latency_limit_ms", std::to_string(kLatencyLimitMs));
  out.add_config("shards", std::to_string(kShards));
  out.add_config("op", "one query, timed from its scheduled send");
  out.add_config("tail_quantile", "0.99");

  if (options.trace) {
    const engine::ServeStats& s = run.stats;
    const double requests_d = static_cast<double>(s.requests);
    set_counter_layers(out, run.counters);
    set_layer(out, "trace.ops", static_cast<double>(requests.size()));
    const auto [submit_ms, submits] = tracer.self_ms_of("submit");
    set_layer(out, "engine.submit_us", submits ? 1e3 * submit_ms / submits : 0);
    set_layer(out, "engine.serve_requests", requests_d);
    set_layer(out, "engine.serve_solves", static_cast<double>(s.solves));
    set_layer(out, "engine.serve_cache_hit_ratio",
              s.requests ? static_cast<double>(s.cache_hits) / requests_d : 0);
    set_layer(out, "engine.serve_dedup_ratio",
              s.requests ? static_cast<double>(s.dedup_hits) / requests_d : 0);
    set_layer(out, "engine.serve_invalidations", static_cast<double>(s.invalidations));
    set_layer(out, "client.gen_lag_p99_ms", lag_p99);
  }
  tracer.call("client", "release", [&] { Served discard = std::move(run); });
  return out;
}

}  // namespace perfbench
