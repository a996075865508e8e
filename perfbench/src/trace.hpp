// trace.hpp — in-memory spans around the benchmark's own calls into each
// library module.
//
// A span names the module (layer) it enters and the public function it
// calls. Spans nest on the one thread that records them (the benchmark's
// main thread), so a span's self time is its duration minus the durations
// of its direct children. The root span covers the whole run and belongs to
// no layer: its self time is the time no span accounts for, so the layers'
// self times fall short of the traced wall time by exactly the time the
// benchmark spent outside every span. Library worker threads are never
// traced; their work shows inside the main-thread span that waited for it.
// Spans stay in memory and are written out as Chrome trace-event JSON when
// the run ends. A disabled tracer records nothing and costs one branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/perf_counters.hpp"

namespace perfbench {

/// Modules a span may enter: the library's modules plus `client`, the
/// benchmark's own time (input generation, waiting for the schedule,
/// bookkeeping).
inline constexpr const char* kLayers[] = {
    "client", "numeric", "graph", "flow", "bd",
    "game",   "engine",  "exp",   "util"};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span; ends when destroyed. `layer` and `name` must be string
  /// literals (they are stored by pointer). `request` is the id of the served
  /// request a span belongs to, so its spans can be found together.
  class Span {
   public:
    Span(Tracer& tracer, const char* layer, const char* name,
         std::uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Run `fn` inside a span and return its result.
  template <typename F>
  decltype(auto) call(const char* layer, const char* name, F&& fn,
                      std::uint64_t request = 0) {
    Span scope(*this, layer, name, request);
    return fn();
  }

  /// Close the root span. Idempotent.
  void finish();

  /// Duration of the root span, ms.
  [[nodiscard]] double wall_ms() const;
  /// Summed self time per layer, ms (every layer of kLayers present; the
  /// root span's self time is in none of them).
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Summed self time and span count of spans called `name`.
  [[nodiscard]] std::pair<double, std::size_t> self_ms_of(
      const std::string& name) const;
  /// Write Chrome trace-event JSON ("X" events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* layer;
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::ptrdiff_t parent;
    std::uint64_t request;
  };

  [[nodiscard]] std::vector<std::uint64_t> self_ns() const;

  bool enabled_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// Counter delta of the library's process-wide PerfCounters over a scope.
class CounterDelta {
 public:
  CounterDelta() : before_(ringshare::util::PerfCounters::snapshot()) {}
  [[nodiscard]] ringshare::util::PerfSnapshot take() const {
    return ringshare::util::PerfCounters::snapshot().minus(before_);
  }

 private:
  ringshare::util::PerfSnapshot before_;
};

}  // namespace perfbench
