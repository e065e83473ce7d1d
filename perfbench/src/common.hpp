// Shared plumbing of the benchmark: clocks, spans, operation accounting,
// the model digest and the metric sink every stage reports into.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

/// Median of a sample (0 for an empty one).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Spans recorded around calls into the library's layers.  Disabled (the
/// default) every call is a branch on one bool; enabled, spans are kept in
/// memory and written out once the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< Index of the enclosing span, -1 = root.
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::size_t begin(std::string_view name, std::size_t parent) {
    if (!enabled_) return kNone;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::string(name), now_ns(), 0,
                          parent == kNone ? -1 : static_cast<std::int64_t>(parent)});
    return spans_.size() - 1;
  }

  void end(std::size_t id) {
    if (id == kNone) return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end_ns = t;
  }

  /// Sum of the durations of every span called `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;

  /// Per span name: total time and self time (the span minus the part of
  /// its interval that its children cover), in seconds.
  struct LayerTime {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// One JSON object per line: name, start_ns, end_ns, parent.
  bool write_jsonl(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span.  The parent is the innermost open span of this thread unless
/// one is given (sender threads name the span that spawned them).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::size_t parent = Tracer::kNone);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  std::size_t id_;
};

/// Counts operations and their failures.  A failed check prints its reason
/// (the first few per run) to stderr and fails the operation it belongs to.
class Ops {
 public:
  /// Evaluates one check of the current operation.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (++messages_ <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }
  /// Records one operation.  `known_fault` marks a failure caused by a
  /// fault already named in CHANGES.md; only other failures make the run
  /// incorrect.
  void record(bool ok, bool known_fault = false) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) ++failed_;
    if (!ok && known_fault) ++known_faults_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t known_faults() const { return known_faults_; }

 private:
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t known_faults_ = 0;
  std::uint64_t messages_ = 0;
};

/// 64-bit FNV-1a, the benchmark's own digest (independent of the library's
/// MD5, which is one of the things measured).
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Metrics in print order.
class Metrics {
 public:
  struct Item {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

std::string hex64(std::uint64_t v);

}  // namespace perfbench
