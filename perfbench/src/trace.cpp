#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  records_.reserve(1 << 16);
  records_.push_back(Record{"unattributed", "bench.run", now_ns(), 0, -1, 0});
  open_.push_back(0);
}

Tracer::Span::Span(Tracer& tracer, const char* layer, const char* name,
                   std::uint64_t request)
    : tracer_(&tracer), index_(kNoSpan) {
  if (!tracer.enabled_ || tracer.open_.empty()) return;
  index_ = tracer.records_.size();
  tracer.records_.push_back(
      Record{layer, name, 0, 0,
             static_cast<std::ptrdiff_t>(tracer.open_.back()), request});
  tracer.open_.push_back(index_);
  tracer.records_[index_].start_ns = now_ns();
}

Tracer::Span::~Span() {
  if (index_ == kNoSpan) return;
  tracer_->records_[index_].end_ns = now_ns();
  tracer_->open_.pop_back();
}

void Tracer::finish() {
  if (!enabled_ || open_.empty()) return;
  if (open_.size() != 1)
    throw std::logic_error("Tracer::finish: spans still open");
  records_[0].end_ns = now_ns();
  open_.clear();
}

std::vector<std::uint64_t> Tracer::self_ns() const {
  std::vector<std::uint64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i)
    self[i] = records_[i].end_ns - records_[i].start_ns;
  for (const Record& r : records_)
    if (r.parent >= 0) self[r.parent] -= r.end_ns - r.start_ns;
  return self;
}

double Tracer::wall_ms() const {
  if (records_.empty()) return 0;
  return ns_to_ms(records_[0].end_ns - records_[0].start_ns);
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::string, double> by_layer;
  for (const char* layer : kLayers) by_layer[layer] = 0;
  const std::vector<std::uint64_t> self = self_ns();
  for (std::size_t i = 1; i < records_.size(); ++i)
    by_layer[records_[i].layer] += ns_to_ms(self[i]);
  return by_layer;
}

std::pair<double, std::size_t> Tracer::self_ms_of(
    const std::string& name) const {
  const std::vector<std::uint64_t> self = self_ns();
  double total = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (name != records_[i].name) continue;
    total += ns_to_ms(self[i]);
    ++count;
  }
  return {total, count};
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::uint64_t origin = records_.empty() ? 0 : records_[0].start_ns;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << r.name << "\", \"cat\": \""
        << r.layer << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(r.start_ns - origin) * 1e-3
        << ", \"dur\": " << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << r.parent
        << ", \"request\": " << r.request << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace perfbench
