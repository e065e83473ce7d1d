#pragma once

#include <memory>

#include "stage.hpp"

namespace perfbench {

/// kFull: million-sample traces per sender; kTail: 250k-sample traces.
enum class ArchiveSize { kFull, kTail };

std::unique_ptr<Stage> make_archive_stage(const StageContext& ctx, ArchiveSize size);

}  // namespace perfbench
