#pragma once

#include <memory>

#include "stage.hpp"

namespace perfbench {

/// Input sizes of the five paper workloads.  kFull gives the simulated
/// machine ~1 s per workload on the reference host; kTail is a few ms.
enum class CaptureSize { kFull, kTail };

std::unique_ptr<Stage> make_capture_stage(const StageContext& ctx, CaptureSize size);

}  // namespace perfbench
