// delta_stream — single-weight drift edits on 512-rings.
//
// kStreams random rings with integer weights in [1, 64] drift, each in its
// own engine::StreamSession; edits go to the streams in turn. An edit moves
// one random vertex's weight by at most kDriftStep, kept within kBand of
// its starting weight and at least 1, and is timed per
// StreamSession::update call. Update cost depends on the ring (one ring's
// p50 differs from another's by up to 40 %) and the p99 on which edits
// fall back to a full solve, so the rings and their edit streams are a
// fixed corpus, generated from a constant: the seed rotates or reflects
// each ring and its edits. Fresh rings or edits per seed moved the gated
// figures by more than their bound from one seed to the next. This is the
// only workload that reaches bd::DeltaSolver: it uses the bd peel
// incrementally rather than cold. Every kCheckEvery-th decomposition of a
// stream, and each stream's last, is compared with a cold
// bd::Decomposition of the same graph after the timed loop.
#include <algorithm>

#include "bd/decomposition.hpp"
#include "bench.hpp"
#include "engine/stream_session.hpp"
#include "graph/builders.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ringshare::graph::Graph;
using ringshare::graph::Vertex;
using ringshare::num::Rational;
namespace bd = ringshare::bd;
namespace engine = ringshare::engine;

constexpr std::size_t kRingSize = 512;
constexpr std::size_t kStreams = 4;
constexpr std::int64_t kMaxWeight = 64;
constexpr std::int64_t kDriftStep = 2;
constexpr std::int64_t kBand = 4;
constexpr std::uint64_t kCorpusSeed = 20200518;
constexpr std::size_t kCheckEvery = 100;
/// Edits in one replay, a quarter per stream.
constexpr std::size_t kEditsPerReplay = 2000;
constexpr int kSetupReps = 11;
/// Speed probes after each set-up.
constexpr int kSetupProbes = 3;
/// Edits in the traced run (fixed, so counts repeat exactly).
constexpr std::size_t kTracedEdits = 1500;

/// Corpus ring `stream` and its corpus edit stream, both relabeled by the
/// seed: the seed changes every vertex the library sees, not the work.
class Drift {
 public:
  Drift(std::uint64_t seed, std::size_t stream)
      : rng_(kCorpusSeed * 0x9E3779B97F4A7C15ULL + stream),
        position_(kRingSize),
        start_(kRingSize) {
    std::vector<std::int64_t> ring(kRingSize);
    for (std::int64_t& w : ring) w = rng_.uniform_int(1, kMaxWeight);
    ringshare::util::Xoshiro256 relabel(seed * 0x9E3779B97F4A7C15ULL + 512 +
                                        stream);
    const std::vector<std::size_t> order = dihedral_order(kRingSize, relabel);
    for (std::size_t i = 0; i < kRingSize; ++i) {
      start_[i] = ring[order[i]];
      position_[order[i]] = i;
    }
    weights_ = start_;
  }

  [[nodiscard]] Graph initial() const {
    std::vector<Rational> w;
    for (const std::int64_t x : weights_) w.emplace_back(x);
    return ringshare::graph::make_ring(std::move(w));
  }

  std::pair<Vertex, Rational> next() {
    const std::size_t v = position_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kRingSize) - 1))];
    weights_[v] = std::clamp<std::int64_t>(
        weights_[v] + rng_.uniform_int(-kDriftStep, kDriftStep),
        std::max<std::int64_t>(1, start_[v] - kBand), start_[v] + kBand);
    return {static_cast<Vertex>(v), Rational(weights_[v])};
  }

 private:
  /// Draws the corpus ring, then its edits in corpus positions.
  ringshare::util::Xoshiro256 rng_;
  /// position_[u]: where corpus vertex u sits after the relabeling.
  std::vector<std::size_t> position_;
  std::vector<std::int64_t> start_;
  std::vector<std::int64_t> weights_;
};

struct Snapshot {
  std::size_t stream;
  std::size_t edit;
  Graph graph;
  std::vector<bd::BottleneckPair> pairs;
};

bool same_pairs(const std::vector<bd::BottleneckPair>& a,
                const std::vector<bd::BottleneckPair>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].b != b[i].b || a[i].c != b[i].c || a[i].alpha != b[i].alpha)
      return false;
  return true;
}

}  // namespace

Outcome run_delta_stream(const Options& options, Tracer& tracer) {
  Outcome out;

  // The rings and their sessions (one full solve each), from cold.
  std::vector<engine::StreamSession> sessions;
  auto open_sessions = [&] {
    tracer.call("engine", "~StreamSession", [&] { sessions.clear(); });
    tracer.call("util", "cold_caches", cold_caches);
    for (std::size_t s = 0; s < kStreams; ++s) {
      const Graph ring = tracer.call(
          "graph", "make_ring", [&] { return Drift(options.seed, s).initial(); });
      sessions.push_back(tracer.call(
          "engine", "StreamSession", [&] { return engine::StreamSession(ring); }));
    }
  };
  // Speed probes run between timed operations, never in a traced run.
  HostSpeed speed;
  auto probe = [&](int times) {
    if (!options.trace)
      for (int k = 0; k < times; ++k) speed.probe();
  };
  std::vector<std::pair<double, std::size_t>> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    open_sessions();
    setup_ms.emplace_back(ns_to_ms(now_ns() - t0), speed.stamp());
    probe(kSetupProbes);
  }

  // The edits, drawn once: edit i goes to stream i % kStreams, and every
  // replay applies the same ones to sessions opened afresh.
  const std::size_t per_replay = options.trace ? kTracedEdits : kEditsPerReplay;
  std::vector<std::pair<Vertex, Rational>> edits;
  {
    std::vector<Drift> drifts;
    for (std::size_t s = 0; s < kStreams; ++s) drifts.emplace_back(options.seed, s);
    for (std::size_t i = 0; i < per_replay; ++i)
      edits.push_back(drifts[i % kStreams].next());
  }
  // edit_ms[i]: edit i, one (wall ms, stamp) per replay.
  std::vector<std::vector<std::pair<double, std::size_t>>> edit_ms(per_replay);
  std::vector<Snapshot> snapshots;
  const CounterDelta delta = tracer.call("util", "PerfCounters::snapshot",
                                         [] { return CounterDelta(); });
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  std::size_t replays = 0;
  for (; replays == 0 || (!options.trace && now_ns() < deadline); ++replays) {
    if (replays > 0) open_sessions();
    for (std::size_t i = 0; i < per_replay; ++i) {
      const std::size_t s = i % kStreams;
      engine::StreamSession& session = sessions[s];
      const std::uint64_t t0 = now_ns();
      tracer.call("engine", "StreamSession::update", [&] {
        return session.update(edits[i].first, edits[i].second);
      });
      edit_ms[i].emplace_back(ns_to_ms(now_ns() - t0), speed.stamp());
      if (s + 1 == kStreams) probe(1);
      ++out.attempted;
      if (replays == 0 && (i / kStreams + 1) % kCheckEvery == 0)
        tracer.call("client", "snapshot", [&] {
          snapshots.push_back(
              {s, i, session.graph(), session.decomposition().pairs()});
        });
    }
    // Outside timing: the first replay's last decompositions are checked
    // below; every later replay must end with the same ones.
    tracer.call("client", "check_replay", [&] {
      for (std::size_t s = 0; s < kStreams; ++s) {
        if (replays == 0) {
          snapshots.push_back({s, per_replay, sessions[s].graph(),
                               sessions[s].decomposition().pairs()});
        } else if (!same_pairs(sessions[s].decomposition().pairs(),
                               snapshots[snapshots.size() - kStreams + s].pairs)) {
          out.fail("delta stream " + std::to_string(s) + " replay " +
                   std::to_string(replays) +
                   ": last decomposition differs from the first replay's");
        }
      }
    });
  }
  const ringshare::util::PerfSnapshot counts = tracer.call(
      "util", "PerfCounters::snapshot", [&] { return delta.take(); });

  // Outside the timed loop: each snapshot against a cold Decomposition.
  {
    Tracer::Span checking(tracer, "client", "check_decompositions", 0);
    for (const Snapshot& snap : snapshots) {
      tracer.call("util", "cold_caches", cold_caches);
      const bd::Decomposition cold = tracer.call(
          "bd", "Decomposition", [&] { return bd::Decomposition(snap.graph); });
      if (!same_pairs(snap.pairs, cold.pairs()))
        out.fail("delta stream " + std::to_string(snap.stream) + " edit " +
                 std::to_string(snap.edit) +
                 ": decomposition differs from a cold Decomposition");
    }
  }

  // An edit's time is its median over the replays, at nominal host speed;
  // the wall-clock figures are kept in the record beside them.
  std::vector<double> per_edit, per_edit_wall;
  double busy_ms = 0;
  for (const auto& times : edit_ms) {
    std::vector<double> nominal, wall;
    for (const auto& [ms, stamp] : times) {
      nominal.push_back(speed.nominal_ms(ms, stamp));
      wall.push_back(ms);
    }
    per_edit.push_back(median(nominal));
    per_edit_wall.push_back(median(wall));
    busy_ms += per_edit.back();
  }
  std::vector<double> setup_s;
  for (const auto& [ms, stamp] : setup_ms)
    setup_s.push_back(speed.nominal_ms(ms, stamp) * 1e-3);
  const double p50 = quantile(per_edit, 0.5), p99 = quantile(per_edit, 0.99);
  set_end_to_end(out, median(setup_s),
                 1e3 * static_cast<double>(per_replay) / busy_ms, p50, p99);
  out.detail = {
      {"delta_update_p50_ms", p50, "ms"},
      {"delta_update_p99_ms", p99, "ms"},
      {"delta_update_p50_wall_ms", quantile(per_edit_wall, 0.5), "ms"},
      {"delta_update_p99_wall_ms", quantile(per_edit_wall, 0.99), "ms"},
      {"host_probe_p50_ms", speed.probe_p50_ms(), "ms"},
      {"delta_edits", static_cast<double>(per_replay), "count"},
      {"delta_replays", static_cast<double>(replays), "count"},
      {"delta_checked_decompositions", static_cast<double>(snapshots.size()),
       "count"},
  };
  out.add_config("ring_size", std::to_string(kRingSize));
  out.add_config("streams", std::to_string(kStreams));
  out.add_config("drift_step", std::to_string(kDriftStep));
  out.add_config("drift_band", std::to_string(kBand));
  out.add_config("op", "one StreamSession::update; an edit's time is its "
                       "median over the replays at nominal host speed");
  out.add_config("tail_quantile", "0.99");

  if (options.trace) {
    engine::StreamStats s;
    for (const engine::StreamSession& session : sessions) {
      const engine::StreamStats& one = session.stats();
      s.updates += one.updates;
      s.hits += one.hits;
      s.fallbacks += one.fallbacks;
      s.spliced_stages += one.spliced_stages;
      s.resolved_stages += one.resolved_stages;
      s.patched_stages += one.patched_stages;
    }
    set_counter_layers(out, counts);
    set_layer(out, "trace.ops", static_cast<double>(out.attempted));
    set_layer(out, "engine.stream_updates", static_cast<double>(s.updates));
    set_layer(out, "engine.stream_hits", static_cast<double>(s.hits));
    set_layer(out, "engine.stream_fallbacks", static_cast<double>(s.fallbacks));
    set_layer(out, "engine.stream_spliced_stages",
              static_cast<double>(s.spliced_stages));
    set_layer(out, "engine.stream_resolved_stages",
              static_cast<double>(s.resolved_stages));
    set_layer(out, "engine.stream_patched_stages",
              static_cast<double>(s.patched_stages));
  }
  tracer.call("engine", "~StreamSession", [&] {
    sessions.clear();
    snapshots.clear();
  });
  return out;
}

}  // namespace perfbench
