#pragma once

#include <memory>

#include "stage.hpp"

namespace perfbench {

/// kFull is the sensitivity grid of Figs. 7-9 (periods x aux sizes over
/// STREAM, CFD and BFS, Fig. 9's two-page point included); kTail is one
/// 16-page configuration per profile, on four seeds each.
enum class SweepSize { kFull, kTail };

std::unique_ptr<Stage> make_sweep_stage(const StageContext& ctx, SweepSize size);

}  // namespace perfbench
