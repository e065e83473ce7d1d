#include "shape.hpp"

#include <cstdio>
#include <unordered_set>

#include "common.hpp"

namespace perfbench {

TraceShape shape_of(const std::vector<nmo::core::TraceSample>& samples, double bytes_per_sample) {
  TraceShape s;
  s.samples = samples.size();
  s.bytes_per_sample = bytes_per_sample;
  if (samples.empty()) return s;
  std::uint64_t levels[4] = {}, stores = 0, untagged = 0, jumps = 0;
  std::vector<double> steps;
  std::vector<const nmo::core::TraceSample*> last;  // per core
  std::unordered_set<nmo::Addr> pcs;
  std::unordered_set<std::uint32_t> latencies;
  double latency_sum = 0.0;
  for (const auto& x : samples) {
    ++levels[static_cast<unsigned>(x.level) & 3u];
    if (x.op == nmo::MemOp::kStore) ++stores;
    if (x.region < 0) ++untagged;
    pcs.insert(x.pc);
    latencies.insert(x.latency);
    latency_sum += x.latency;
    if (x.core >= last.size()) last.resize(x.core + 1u, nullptr);
    const auto* prev = last[x.core];
    if (prev != nullptr && x.region >= 0 && prev->region == x.region) {
      const nmo::Addr step = x.vaddr > prev->vaddr ? x.vaddr - prev->vaddr : prev->vaddr - x.vaddr;
      steps.push_back(static_cast<double>(step));
      if (step > 4096) ++jumps;
    }
    last[x.core] = &x;
  }
  const auto n = static_cast<double>(samples.size());
  for (unsigned l = 0; l < 4; ++l) s.level[l] = static_cast<double>(levels[l]) / n;
  s.store = static_cast<double>(stores) / n;
  s.untagged = static_cast<double>(untagged) / n;
  s.gap_ns = samples.size() > 1 ? static_cast<double>(samples.back().time_ns -
                                                      samples.front().time_ns) /
                                      (n - 1.0)
                                : 0.0;
  s.jump = steps.empty() ? 0.0 : static_cast<double>(jumps) / static_cast<double>(steps.size());
  s.stride = median(std::move(steps));
  s.pcs = pcs.size();
  s.latency = latency_sum / n;
  s.latencies = latencies.size();
  return s;
}

void print_shape(const char* name, const TraceShape& s) {
  std::fprintf(stderr,
               "trace shape %-16s samples %8zu  L1/L2/SLC/DRAM %4.1f/%4.1f/%4.1f/%4.1f %%  "
               "store %4.1f %%  untagged %4.1f %%  gap %7.1f ns  stride %7.0f B  jump %4.1f %%  "
               "pcs %5zu  latency %5.1f (%zu distinct)  %5.2f B/sample\n",
               name, s.samples, 100.0 * s.level[0], 100.0 * s.level[1], 100.0 * s.level[2],
               100.0 * s.level[3], 100.0 * s.store, 100.0 * s.untagged, s.gap_ns, s.stride,
               100.0 * s.jump, s.pcs, s.latency, s.latencies, s.bytes_per_sample);
}

}  // namespace perfbench
