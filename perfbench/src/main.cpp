// ringshare_bench — the benchmark of record.
//
//   ringshare_bench --workload <sweep_n6|ladder|serve_open|delta_stream>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--scratch <dir>] [--out <record.json>]
//
// Generates the workload's inputs from the seed, measures for about
// `seconds`, checks every answer outside the timed region, and prints:
//   * one line `{"record": {...}}` — the full result with the host
//     fingerprint, run configuration, the workload's own named metrics and
//     any failure messages (also written to --out when given);
//   * as the LAST line, `{"correct", "attempted", "failed", "metrics"}` —
//     the gated end-to-end metrics with --trace 0, the per-layer metrics
//     with --trace 1.
// Exits 1 when any check failed, 2 on a usage error.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "ringshare_bench: %s\nusage: ringshare_bench --workload "
               "<sweep_n6|ladder|serve_open|delta_stream> --seed N --seconds "
               "S --trace 0|1 [--scratch DIR] [--out FILE]\n",
               message);
  std::exit(2);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Full precision, as measured; non-finite values become 0.
std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  out << '}';
  return out.str();
}

std::string pairs_json(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < pairs.size(); ++i)
    out << (i ? ", " : "") << '"' << pairs[i].first << "\": \""
        << json_escape(pairs[i].second) << '"';
  out << '}';
  return out.str();
}

/// Pool size per workload, 1 when tracing so counter deltas repeat
/// exactly. The gated workloads run on one worker, since a second made a
/// ladder task slower, not faster. serve_open runs 2 shards on 2 workers
/// plus the generator thread.
const char* pool_size_for(const std::string& workload, bool trace) {
  if (trace || workload != "serve_open") return "1";
  return "2";
}

/// Keep every thread of the process on the CPU it started on, so that the
/// speed probe (HostSpeed), which runs on the main thread, measures the CPU
/// that did the timed work: a sweep call's tasks run on the pool's worker,
/// and a shared host's CPUs differ in speed from moment to moment.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string out_path;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && options.seconds > 0 &&
                     options.seconds <= 600;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--scratch") {
      options.scratch = value;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  using Runner = Outcome (*)(const Options&, Tracer&);
  Runner runner = nullptr;
  if (options.workload == "sweep_n6") runner = run_sweep_n6;
  if (options.workload == "ladder") runner = run_ladder;
  if (options.workload == "serve_open") runner = run_serve_open;
  if (options.workload == "delta_stream") runner = run_delta_stream;
  if (!runner) usage(("unknown workload " + options.workload).c_str());

  // Must land before the library first touches its shared pool.
  setenv("RINGSHARE_THREADS", pool_size_for(options.workload, options.trace),
         1);
  // Before any thread starts, so that every thread inherits it.
  if (!options.trace && options.workload != "serve_open") pin_to_current_cpu();

  Tracer tracer(options.trace);
  Outcome outcome;
  try {
    outcome = runner(options, tracer);
  } catch (const std::exception& error) {
    outcome.fail(std::string("exception: ") + error.what());
  }
  tracer.finish();
  if (options.trace) {
    const double self_sum = set_self_time_layers(outcome, tracer);
    if (self_sum < 1.0 - kSelfSumTolerance)
      outcome.fail("per-layer self times sum to " + std::to_string(self_sum) +
                   " of the traced wall time: the rest ran outside every span");
    const std::string trace_path = options.scratch + "/trace-" +
                                   options.workload + "-" +
                                   std::to_string(options.seed) + ".json";
    tracer.write_chrome_trace(trace_path);
    outcome.add_config("trace_file", trace_path);
  }
  if (outcome.end_to_end.empty()) outcome.end_to_end = end_to_end_template();
  outcome.end_to_end[1].value = peak_rss_mb();
  outcome.detail.push_back({"peak_rss_mb", outcome.end_to_end[1].value, "MB"});
  outcome.detail.insert(outcome.detail.begin(),
                        {"setup_s", outcome.end_to_end[0].value, "s"});
  if (outcome.attempted == 0) outcome.fail("no operation attempted");
  const bool correct = outcome.failed == 0;

  std::ostringstream failures;
  failures << '[';
  for (std::size_t i = 0; i < outcome.failures.size(); ++i)
    failures << (i ? ", " : "") << '"' << json_escape(outcome.failures[i])
             << '"';
  failures << ']';

  std::ostringstream record;
  record << "{\"workload\": \"" << options.workload
         << "\", \"seed\": " << options.seed
         << ", \"seconds\": " << number(options.seconds)
         << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"host\": " << pairs_json(host_fingerprint())
         << ", \"config\": " << pairs_json(outcome.config)
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed
         << ", \"failures\": " << failures.str()
         << ", \"end_to_end\": " << metrics_json(outcome.end_to_end)
         << ", \"detail\": " << metrics_json(outcome.detail)
         << ", \"per_layer\": " << metrics_json(outcome.layers) << '}';
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    file << record.str() << '\n';
  }
  for (const std::string& failure : outcome.failures)
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());

  std::printf("{\"record\": %s}\n", record.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics_json(options.trace ? outcome.layers
                                         : outcome.end_to_end)
                  .c_str());
  return correct ? 0 : 1;
}
