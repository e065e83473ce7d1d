// The three stages a workload mixes: exact capture, statistical sweep and
// the post-capture archive path.  Every workload runs all three in each
// round - one at full size, the other two as small tails - so every
// end-to-end metric is measured on every workload (see README.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// What every stage shares: the seed, its scratch directory, the thread
/// budget and the run's accounting.
struct StageContext {
  std::uint64_t seed = 1;
  std::string work_dir;   ///< Scratch directory inside the checkout.
  unsigned threads = 1;   ///< Load threads: the host's hw threads, at most 4.
  bool traced = false;
  Ops* ops = nullptr;
  Fnv64* model_digest = nullptr;
};

class Stage {
 public:
  virtual ~Stage() = default;
  /// One timed round: every operation of the stage once, each checked.
  virtual void round(std::uint32_t index) = 0;
  /// After the last round: checks against references computed apart from
  /// the measured path, and the traced run's per-layer measurements.
  virtual void finish() = 0;
  virtual void report_e2e(Metrics& m) const = 0;
  virtual void report_layers(Metrics& m) const = 0;
  /// Stored trace bytes and samples (trace_bytes_per_sample).
  [[nodiscard]] virtual std::uint64_t trace_bytes() const { return 0; }
  [[nodiscard]] virtual std::uint64_t trace_samples() const { return 0; }
};

/// Runs fn(i) for i in [0, n) on up to `workers` threads, pulling indices
/// in order (so callers list the longest items first).
inline void parallel_for_each(std::size_t n, unsigned workers,
                              const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto body = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  const std::size_t threads = std::min<std::size_t>(std::max(1u, workers), n);
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(body);
  body();
  for (auto& t : pool) t.join();
}

/// splitmix64: derives independent per-item seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
