// perfbench: the repository's benchmark.
//
//   perfbench --workload capture|sweep|archive --seed N --seconds S --trace 0|1
//
// Every workload runs rounds of three stages - exact capture, statistical
// sweep, post-capture archive - one at full size and two as small tails,
// until S seconds have passed.  Each operation is checked.  The last line
// of stdout is one JSON object: correct, attempted, failed and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "archive.hpp"
#include "capture.hpp"
#include "common.hpp"
#include "sweep.hpp"
#include "sys/topology.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload capture|sweep|archive --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_result(const Ops& ops, bool correct, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()));
  bool first = true;
  for (const auto& m : metrics.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Per-layer self time as a share of the run's wall time, set-up included
/// (traced run).
void print_layer_shares(double wall_s) {
  std::fprintf(stderr, "layer self time (traced run, %.3f s wall from start):\n", wall_s);
  std::fprintf(stderr, "%-24s %10s %10s %8s %8s\n", "span", "total_s", "self_s", "calls", "share");
  for (const auto& [name, lt] : tracer().layer_times()) {
    std::fprintf(stderr, "%-24s %10.4f %10.4f %8llu %7.2f%%\n", name.c_str(), lt.total_s,
                 lt.self_s, static_cast<unsigned long long>(lt.count),
                 100.0 * lt.self_s / wall_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1) ||
      (workload != "capture" && workload != "sweep" && workload != "archive")) {
    return usage(argv[0]);
  }
  if (trace == 1) tracer().enable();

  Ops ops;
  Fnv64 model_digest;
  StageContext ctx;
  ctx.seed = seed;
  ctx.work_dir = ".bench_work/" + workload + "-" + std::to_string(getpid());
  ctx.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  ctx.traced = trace == 1;
  ctx.ops = &ops;
  ctx.model_digest = &model_digest;
  fs::remove_all(ctx.work_dir);
  fs::create_directories(ctx.work_dir);

  // Set-up: build every stage's inputs (the archive's synthetic traces are
  // the bulk of it).  The full-size stage comes first in each round.
  std::vector<std::unique_ptr<Stage>> stages;
  if (workload == "capture") {
    stages.push_back(make_capture_stage(ctx, CaptureSize::kFull));
    stages.push_back(make_sweep_stage(ctx, SweepSize::kTail));
    stages.push_back(make_archive_stage(ctx, ArchiveSize::kTail));
  } else if (workload == "sweep") {
    stages.push_back(make_sweep_stage(ctx, SweepSize::kFull));
    stages.push_back(make_capture_stage(ctx, CaptureSize::kTail));
    stages.push_back(make_archive_stage(ctx, ArchiveSize::kTail));
  } else {
    stages.push_back(make_archive_stage(ctx, ArchiveSize::kFull));
    stages.push_back(make_capture_stage(ctx, CaptureSize::kTail));
    stages.push_back(make_sweep_stage(ctx, SweepSize::kTail));
  }
  const double setup_s = seconds_since(t_start);

  const auto t_measure = Clock::now();
  std::uint32_t rounds = 0;
  do {
    for (auto& s : stages) {
      // Each stage starts from a trimmed heap, so what the previous stage
      // freed does not decide whether this one's buffers fault in fresh
      // pages or reuse old ones: without it the short tails moved by up to
      // half from run to run.
      malloc_trim(0);
      s->round(rounds);
    }
    ++rounds;
  } while (seconds_since(t_measure) < seconds);
  for (auto& s : stages) s->finish();
  const double wall_s = seconds_since(t_start);
  fs::remove_all(ctx.work_dir);
  std::error_code ignored;
  fs::remove(".bench_work", ignored);  // only when empty

  // Stored bytes per sample of one stage's traces, never pooled: the
  // workload's own stage (capture sessions on capture, sender files on
  // archive); on sweep, whose stage stores nothing, the capture tail's
  // sessions, the next stage with real traces.
  std::uint64_t bytes = 0, samples = 0;
  for (const auto& s : stages) {
    if (s->trace_samples() == 0) continue;
    bytes = s->trace_bytes();
    samples = s->trace_samples();
    break;
  }
  Metrics e2e;
  e2e.set("setup_s", setup_s, "s");
  e2e.set("peak_rss_mib", peak_rss_mib(), "MiB");
  for (const auto& s : stages) s->report_e2e(e2e);
  e2e.set("trace_bytes_per_sample",
          samples > 0 ? static_cast<double>(bytes) / static_cast<double>(samples) : 0.0,
          "B/sample");

  const auto topo = nmo::sys::CpuTopology::discover();
  std::fprintf(stderr, "host: %u hw threads, %u NUMA nodes; %u load threads; %u rounds\n",
               topo.num_cpus(), topo.num_nodes(), ctx.threads, rounds);
  std::printf("model_digest %s\n", hex64(model_digest.value()).c_str());

  Metrics out;
  if (trace == 1) {
    // The end-to-end figures of the traced run, for the tracing overhead.
    for (const auto& m : e2e.items()) {
      std::fprintf(stderr, "traced %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    print_layer_shares(wall_s);
    for (const auto& s : stages) s->report_layers(out);
    fs::create_directories(".bench_out");
    const std::string spans =
        ".bench_out/spans-" + workload + "-seed" + std::to_string(seed) + ".jsonl";
    if (!tracer().write_jsonl(spans)) std::fprintf(stderr, "cannot write %s\n", spans.c_str());
  } else {
    out = e2e;
  }
  print_result(ops, ops.failed() == ops.known_faults(), out);
  return 0;
}
