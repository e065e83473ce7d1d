// Shape statistics of a trace.  The archive's synthetic traces take their
// parameters from the shapes of the capture stage's real STREAM and CFD
// traces; every run prints both to stderr, so the match can be checked.
#pragma once

#include <cstddef>
#include <vector>

#include "core/trace.hpp"

namespace perfbench {

struct TraceShape {
  std::size_t samples = 0;
  double level[4] = {};          ///< Share of samples served by L1, L2, SLC, DRAM.
  double store = 0.0;            ///< Share of stores.
  double untagged = 0.0;         ///< Share of samples outside every tagged region.
  double gap_ns = 0.0;           ///< Mean time between consecutive samples.
  double stride = 0.0;           ///< Median address step of one core within one region.
  double jump = 0.0;             ///< Share of those steps longer than a 4 KiB page.
  std::size_t pcs = 0;           ///< Distinct PCs.
  double latency = 0.0;          ///< Mean latency, cycles.
  std::size_t latencies = 0;     ///< Distinct latencies.
  double bytes_per_sample = 0.0; ///< Stored trace bytes / samples.
};

/// Shape of samples in canonical (time) order.
TraceShape shape_of(const std::vector<nmo::core::TraceSample>& samples, double bytes_per_sample);

/// One stderr line: "trace shape <name>: ...".
void print_shape(const char* name, const TraceShape& s);

}  // namespace perfbench
