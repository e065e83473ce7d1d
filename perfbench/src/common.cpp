#include "common.hpp"

#include <fstream>

namespace perfbench {
namespace {

/// Open spans of this thread, innermost last.
thread_local std::vector<std::size_t> open_spans;

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double Tracer::total_s(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans_[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans_[c].end_ns, s.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    LayerTime& lt = out[s.name];
    lt.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    lt.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    ++lt.count;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(std::string_view name, std::size_t parent) : id_(Tracer::kNone) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  if (parent == Tracer::kNone && !open_spans.empty()) parent = open_spans.back();
  id_ = t.begin(name, parent);
  open_spans.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (id_ == Tracer::kNone) return;
  tracer().end(id_);
  open_spans.pop_back();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
