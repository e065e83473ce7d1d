// capture: the five paper workloads as store::SessionJobs through
// run_sessions into an on-disk SessionStore (default trace options,
// NMO_MODE=all).  One operation is one session.
#include "capture.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/profiler.hpp"
#include "core/trace.hpp"
#include "sim/engine.hpp"
#include "store/region_file.hpp"
#include "store/session_store.hpp"
#include "store/trace_file.hpp"
#include "workloads/bfs.hpp"
#include "workloads/cfd.hpp"
#include "workloads/inmem_als.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/stream.hpp"
#include "shape.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

enum class Kind { kStream, kCfd, kBfs, kPageRank, kAls };
// Longest-running first: run_sessions admits in submission order.
constexpr Kind kKinds[] = {Kind::kPageRank, Kind::kStream, Kind::kCfd, Kind::kBfs, Kind::kAls};
constexpr std::uint64_t kPeriod = 1024;

std::uint32_t stream_iterations(CaptureSize size) { return size == CaptureSize::kFull ? 3 : 2; }

std::shared_ptr<nmo::wl::Workload> make_workload(Kind kind, CaptureSize size, std::uint64_t seed) {
  const bool full = size == CaptureSize::kFull;
  switch (kind) {
    case Kind::kStream: {
      nmo::wl::StreamConfig c;
      c.array_elems = full ? std::size_t{1} << 18 : std::size_t{1} << 16;
      c.iterations = stream_iterations(size);
      return std::make_shared<nmo::wl::Stream>(c);
    }
    case Kind::kCfd: {
      nmo::wl::CfdConfig c;
      c.num_cells = full ? 24 * 1024 : 8192;
      c.iterations = full ? 5 : 2;
      c.seed = seed;
      return std::make_shared<nmo::wl::Cfd>(c);
    }
    case Kind::kBfs: {
      nmo::wl::BfsConfig c;
      c.nodes = full ? 1u << 17 : 1u << 14;
      c.seed = seed;
      return std::make_shared<nmo::wl::Bfs>(c);
    }
    case Kind::kPageRank: {
      nmo::wl::PageRankConfig c;
      c.nodes_log2 = full ? 15 : 13;
      c.iterations = full ? 5 : 2;
      c.seed = seed;
      return std::make_shared<nmo::wl::PageRank>(c);
    }
    case Kind::kAls: {
      nmo::wl::AlsConfig c;
      c.users = full ? 5000 : 2000;
      c.movies = full ? 1600 : 600;
      c.ratings_per_user = full ? 40 : 20;
      c.iterations = full ? 3 : 2;
      c.seed = seed;
      return std::make_shared<nmo::wl::InMemAnalytics>(c);
    }
  }
  return nullptr;
}

/// Lets run_sessions own a workload object the benchmark still reads after
/// the session (its answer is checked).
class Held final : public nmo::wl::Workload {
 public:
  explicit Held(std::shared_ptr<nmo::wl::Workload> inner) : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void run(nmo::wl::Executor& exec) override { inner_->run(exec); }

 private:
  std::shared_ptr<nmo::wl::Workload> inner_;
};

/// Executes a workload's real algorithm with no machine model, counting
/// its memory operations: the reference for EngineStats::mem_ops.
class CountingExecutor final : public nmo::wl::Executor {
 public:
  explicit CountingExecutor(std::uint32_t threads) : threads_(threads) {}

  [[nodiscard]] std::uint32_t threads() const override { return threads_; }
  void parallel_for(std::string_view, std::size_t n, const KernelBody& body) override {
    const std::size_t chunk = (n + threads_ - 1) / threads_;
    for (std::uint32_t t = 0; t < threads_; ++t) {
      const std::size_t lo = std::min<std::size_t>(t * chunk, n);
      const std::size_t hi = std::min<std::size_t>(lo + chunk, n);
      if (lo < hi) body(t, lo, hi, recorder_);
    }
  }
  void serial(std::string_view, const SerialBody& body) override { body(recorder_); }
  nmo::Addr alloc(std::string_view, std::uint64_t bytes, std::uint64_t) override {
    const nmo::Addr base = next_;
    next_ += (bytes + 0xffff) & ~nmo::Addr{0xffff};
    return base;
  }
  void dealloc(nmo::Addr) override {}
  [[nodiscard]] std::uint64_t now_ns() const override { return 0; }

  [[nodiscard]] std::uint64_t mem_ops() const { return recorder_.ops; }

 private:
  struct Recorder final : nmo::wl::MemRecorder {
    void load(nmo::Addr, std::uint8_t) override { ++ops; }
    void store(nmo::Addr, std::uint8_t) override { ++ops; }
    void alu(std::uint32_t) override {}
    void flop(std::uint32_t) override {}
    std::uint64_t ops = 0;
  };
  std::uint32_t threads_;
  nmo::Addr next_ = 0x10'0000;
  Recorder recorder_;
};

struct EngineSetup {
  nmo::core::NmoConfig nmo;
  nmo::sim::EngineConfig engine;
};

EngineSetup engine_setup(Kind kind, const nmo::wl::Workload& w, std::uint64_t seed) {
  EngineSetup s;
  s.nmo.enable = true;
  s.nmo.name = w.name();
  s.nmo.mode = nmo::core::Mode::kAll;
  s.nmo.period = kPeriod;
  s.engine.seed = mix_seed(seed, 100 + static_cast<std::uint64_t>(kind));
  return s;
}

/// What one session left behind, kept for the post-run reference checks.
struct Snapshot {
  std::size_t job = 0;  ///< Index into kKinds.
  bool ok = false;
  nmo::core::SessionReport report;
  std::string fingerprint;
};

/// Reference facts about one workload, computed apart from run_sessions.
struct Reference {
  std::string name;
  std::uint64_t counted_mem_ops = 0;
  std::uint64_t replay_ns = 0;   ///< Modeled time of the unprofiled run (traced only).
  double replay_s = 0.0;         ///< Host time of the unprofiled run (traced only).
  double profiled_s = 0.0;       ///< Host time of the profiled run + finalize.
  nmo::sim::EngineStats stats;
  std::uint64_t decoded = 0;
  std::uint64_t skipped = 0;
  std::uint64_t samples = 0;
  std::string fingerprint;
};

class CaptureStage final : public Stage {
 public:
  CaptureStage(const StageContext& ctx, CaptureSize size) : ctx_(ctx), size_(size) {
    for (const Kind k : kKinds) {
      seeds_.push_back(mix_seed(ctx.seed, 10 + static_cast<std::uint64_t>(k)));
    }
    build_references();
  }

  void round(std::uint32_t index) override;
  void finish() override;

  void report_e2e(Metrics& m) const override { m.set("capture_s", median(round_s_), "s"); }
  void report_layers(Metrics& m) const override;
  [[nodiscard]] std::uint64_t trace_bytes() const override { return bytes_; }
  [[nodiscard]] std::uint64_t trace_samples() const override { return samples_; }

 private:
  /// Set-up: the reference facts every session is checked against, from
  /// runs made apart from run_sessions (counting executor, engine run).
  void build_references();
  bool check_answer(Kind kind, const nmo::wl::Workload& w);
  /// Also takes the stored trace's shape when `shape` is given.
  bool check_stored(const nmo::store::SessionResult& r, TraceShape* shape);

  StageContext ctx_;
  CaptureSize size_;
  std::vector<std::uint64_t> seeds_;
  std::vector<double> round_s_;
  std::vector<Snapshot> snapshots_;
  std::vector<double> queue_wait_ms_;
  std::vector<Reference> refs_;
  std::uint64_t bytes_ = 0;
  std::uint64_t samples_ = 0;
  TraceShape shapes_[std::size(kKinds)];  ///< Of round 0's stored traces.
};

bool CaptureStage::check_answer(Kind kind, const nmo::wl::Workload& w) {
  Ops& ops = *ctx_.ops;
  const std::string who = "capture " + w.name() + ": ";
  switch (kind) {
    case Kind::kStream: {
      const auto& s = dynamic_cast<const nmo::wl::Stream&>(w);
      const double want =
          nmo::wl::Stream::expected_a(stream_iterations(size_), nmo::wl::StreamConfig{}.scalar);
      bool ok = !s.a().empty();
      for (const double a : s.a()) ok = ok && std::abs(a - want) <= 1e-12 * std::abs(want);
      return ops.check(ok, who + "a[] differs from expected_a");
    }
    case Kind::kCfd: {
      const auto& c = dynamic_cast<const nmo::wl::Cfd&>(w);
      bool ok = !c.density().empty();
      for (const double d : c.density()) ok = ok && std::isfinite(d) && d > 0.0;
      const double initial = 1.4 * static_cast<double>(c.density().size());
      const bool mass = std::abs(c.total_mass() - initial) <= 0.2 * initial;
      return ops.check(ok, who + "non-finite or non-positive density") &&
             ops.check(mass, who + "mass outside 20% of its initial value");
    }
    case Kind::kBfs: {
      const auto& b = dynamic_cast<const nmo::wl::Bfs&>(w);
      return ops.check(b.cost() == nmo::wl::reference_bfs(b.graph(), 0),
                       who + "distances differ from reference_bfs");
    }
    case Kind::kPageRank: {
      const auto& p = dynamic_cast<const nmo::wl::PageRank&>(w);
      double sum = 0.0;
      for (const double r : p.ranks()) sum += r;
      return ops.check(!p.ranks().empty() && std::abs(sum - 1.0) <= 1e-6,
                       who + "ranks do not sum to 1");
    }
    case Kind::kAls: {
      const auto& a = dynamic_cast<const nmo::wl::InMemAnalytics&>(w);
      const auto& rmse = a.rmse_history();
      bool ok = !rmse.empty();
      for (std::size_t i = 1; i < rmse.size(); ++i) ok = ok && rmse[i] <= rmse[i - 1];
      return ops.check(ok, who + "RMSE increased");
    }
  }
  return false;
}

bool CaptureStage::check_stored(const nmo::store::SessionResult& r, TraceShape* shape) {
  Ops& ops = *ctx_.ops;
  const std::string who = "capture " + r.session.name + ": ";
  nmo::store::TraceReader reader(r.session.trace_path);
  const nmo::core::SampleTrace trace = reader.read_all();
  bool ok = ops.check(reader.ok(), who + "re-read failed: " + reader.error());
  ok = ok && ops.check(trace.size() == r.samples && trace.size() == r.report.processed_samples,
                       who + "stored sample count differs from the report");
  ok = ok && ops.check(trace.fingerprint() == r.fingerprint,
                       who + "stored trace fingerprint differs from the in-memory trace's");
  const auto& s = trace.samples();
  ok = ok && ops.check(std::is_sorted(s.begin(), s.end(), nmo::core::canonical_less),
                       who + "stored trace is not in canonical order");
  const auto regions =
      nmo::store::read_region_file(nmo::store::region_path_for(r.session.trace_path));
  ok = ok && ops.check(regions.has_value(), who + "region sidecar unreadable");
  if (ok) {
    bool inside = true;
    for (const auto& x : s) {
      if (x.region < 0) continue;
      const auto idx = static_cast<std::size_t>(x.region);
      inside = inside && idx < regions->size() && (*regions)[idx].contains(x.vaddr);
    }
    ok = ops.check(inside, who + "a region-tagged sample lies outside its region");
  }
  const auto file_bytes = fs::file_size(r.session.trace_path);
  if (shape != nullptr && !s.empty()) {
    *shape = shape_of(s, static_cast<double>(file_bytes) / static_cast<double>(s.size()));
  }
  bytes_ += file_bytes;
  samples_ += r.samples;
  return ok;
}

void CaptureStage::round(std::uint32_t index) {
  const std::string root = ctx_.work_dir + "/capture-" + std::to_string(index);
  std::vector<std::shared_ptr<nmo::wl::Workload>> workloads;
  std::vector<nmo::store::SessionJob> jobs;
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    auto w = make_workload(kKinds[i], size_, seeds_[i]);
    const EngineSetup setup = engine_setup(kKinds[i], *w, ctx_.seed);
    nmo::store::SessionJob job;
    job.name = w->name();
    job.nmo = setup.nmo;
    job.engine = setup.engine;
    job.make_workload = [w] { return std::make_unique<Held>(w); };
    jobs.push_back(std::move(job));
    workloads.push_back(std::move(w));
  }

  nmo::store::MultiSessionRun run;
  {
    nmo::store::SessionStore store(root);
    const ScopedSpan span("store.run_sessions");
    const auto t0 = Clock::now();
    run = nmo::store::run_sessions(store, jobs);
    round_s_.push_back(seconds_since(t0));
  }

  double wait_ms = 0.0;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto& r = run.results[i];
    Snapshot snap;
    snap.job = i;
    snap.report = r.report;
    snap.fingerprint = r.fingerprint;
    const bool ran = ctx_.ops->check(r.state == nmo::core::SessionState::kDone && r.error.empty(),
                                     "capture " + r.session.name + ": session failed: " + r.error);
    snap.ok = ran && check_answer(kKinds[i], *workloads[i]) &&
              check_stored(r, index == 0 ? &shapes_[i] : nullptr);
    wait_ms += static_cast<double>(r.queue_wait_ns) * 1e-6;
    snapshots_.push_back(std::move(snap));
  }
  queue_wait_ms_.push_back(wait_ms / static_cast<double>(run.results.size()));
  fs::remove_all(root);
}

void CaptureStage::build_references() {
  const std::size_t n = std::size(kKinds);
  refs_.assign(n, Reference{});
  // The engine runs first, longest first, then the short counting runs:
  // ten tasks spread over the load threads more evenly than five.
  parallel_for_each(2 * n, ctx_.threads, [&](std::size_t task) {
    const std::size_t i = task % n;
    Reference& ref = refs_[i];
    const Kind kind = kKinds[i];
    if (task >= n) {
      auto w = make_workload(kind, size_, seeds_[i]);
      CountingExecutor counter(8);
      const nmo::core::ActiveProfilerScope scope(nullptr);
      w->run(counter);
      ref.counted_mem_ops = counter.mem_ops();
      return;
    }
    auto w = make_workload(kind, size_, seeds_[i]);
    ref.name = w->name();
    const EngineSetup setup = engine_setup(kind, *w, ctx_.seed);
    if (ctx_.traced) {
      // The simulated machine alone: no profiler, no sampling.
      auto bare = make_workload(kind, size_, seeds_[i]);
      const nmo::core::ActiveProfilerScope scope(nullptr);
      const ScopedSpan span("sim.replay");
      const auto t = Clock::now();
      nmo::sim::TraceEngine engine(setup.engine, nullptr);
      bare->run(engine);
      engine.finalize();
      ref.replay_s = seconds_since(t);
      ref.replay_ns = engine.stats().instrumented_ns;
    }
    const auto t_profiled = Clock::now();
    nmo::core::Profiler profiler(setup.nmo);
    nmo::sim::TraceEngine engine(setup.engine, &profiler);
    {
      const nmo::core::ActiveProfilerScope scope(&profiler);
      {
        const ScopedSpan span("sim.profiled_run");
        w->run(engine);
      }
      const ScopedSpan span("sim.finalize");
      engine.finalize();
    }
    ref.profiled_s = seconds_since(t_profiled);
    ref.stats = engine.stats();
    if (const auto* consumer = engine.consumer()) {
      ref.decoded = consumer->counts().records_ok;
      ref.skipped = consumer->counts().records_skipped;
    }
    ref.samples = profiler.trace().size();
    {
      const ScopedSpan span("core.fingerprint");
      ref.fingerprint = profiler.trace().fingerprint();
    }
    if (ctx_.traced) {
      const std::string path = ctx_.work_dir + "/reference-" + std::to_string(i) + ".nmot";
      {
        const ScopedSpan span("store.write");
        nmo::store::TraceWriter writer(path);
        writer.write_all(profiler.trace());
        writer.close();
      }
      fs::remove(path);
    }
  });
}

void CaptureStage::finish() {
  const std::size_t n = std::size(kKinds);
  Ops& ops = *ctx_.ops;
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& snap = snapshots_[s];
    const Reference& ref = refs_[snap.job];
    const std::string who = "capture session " + std::to_string(s) + ": ";
    const auto& rep = snap.report;
    bool ok = snap.ok;
    ok = ops.check(rep.mem_ops == ref.counted_mem_ops,
                   who + "EngineStats::mem_ops " + std::to_string(rep.mem_ops) +
                       " != counted " + std::to_string(ref.counted_mem_ops)) &&
         ok;
    ok = ops.check(rep.processed_samples + rep.skipped_records == ref.stats.written &&
                       ref.decoded + ref.skipped == ref.stats.written,
                   who + "samples + skipped != records written to aux") &&
         ok;
    ok = ops.check(snap.fingerprint == ref.fingerprint,
                   who + "trace differs from the reference run of the same seed") &&
         ok;
    ops.record(ok);
  }

  if (ctx_.traced) {
    // Host cost of profiling beside the modeled time overhead (Eq. 1's
    // instrumented / baseline - 1) of the same run.
    std::fprintf(stderr, "capture profiling cost (host vs modeled):\n%-16s %8s %10s %10s %9s %9s\n",
                 "workload", "samples", "replay_s", "profiled_s", "host_ovh", "model_ovh");
    for (std::size_t i = 0; i < n; ++i) {
      const Reference& ref = refs_[i];
      const double model =
          ref.replay_ns > 0 ? static_cast<double>(ref.stats.instrumented_ns) /
                                      static_cast<double>(ref.replay_ns) -
                                  1.0
                            : 0.0;
      std::fprintf(stderr, "%-16s %8llu %10.3f %10.3f %8.1f%% %8.2f%%\n",
                   ref.name.c_str(),
                   static_cast<unsigned long long>(ref.samples), ref.replay_s, ref.profiled_s,
                   100.0 * (ref.profiled_s / ref.replay_s - 1.0), 100.0 * model);
    }
  }

  for (std::size_t i = 0; i < n; ++i) print_shape(refs_[i].name.c_str(), shapes_[i]);

  // Model digest: every modeled statistic and fingerprint of the first round.
  Fnv64& d = *ctx_.model_digest;
  for (std::size_t i = 0; i < std::min(n, snapshots_.size()); ++i) {
    const auto& r = snapshots_[i].report;
    for (const std::uint64_t v :
         {r.mem_ops, r.mem_counted, r.processed_samples, r.skipped_records, r.selections,
          r.collisions, r.collision_flags, r.dropped_full, r.wakeups, r.instrumented_ns}) {
      d.u64(v);
    }
    d.text(snapshots_[i].fingerprint);
  }
}

void CaptureStage::report_layers(Metrics& m) const {
  const Tracer& t = tracer();
  std::uint64_t samples = 0, mem = 0, sel = 0, col = 0, written = 0, dropped = 0, wake = 0;
  for (const auto& r : refs_) {
    samples += r.samples;
    mem += r.stats.mem_ops;
    sel += r.stats.selections;
    col += r.stats.collisions;
    written += r.stats.written;
    dropped += r.stats.dropped_full;
    wake += r.stats.wakeups;
  }
  const double per_sample = samples > 0 ? 1e9 / static_cast<double>(samples) : 0.0;
  const double replay = t.total_s("sim.replay");
  const double profiled = t.total_s("sim.profiled_run");
  const double finalize = t.total_s("sim.finalize");
  m.set("sim.replay_s", replay, "s");
  m.set("sim.profiled_run_s", profiled, "s");
  m.set("sim.finalize_s", finalize, "s");
  m.set("core.profiler_ns_per_sample", (profiled + finalize - replay) * per_sample, "ns/sample");
  m.set("core.fingerprint_ns_per_sample", t.total_s("core.fingerprint") * per_sample,
        "ns/sample");
  m.set("store.write_ns_per_sample", t.total_s("store.write") * per_sample, "ns/sample");
  m.set("store.sched_wait_ms", median(queue_wait_ms_), "ms");
  m.set("mem.accesses", static_cast<double>(mem), "count");
  m.set("spe.selections", static_cast<double>(sel), "count");
  m.set("spe.collisions", static_cast<double>(col), "count");
  m.set("spe.written", static_cast<double>(written), "count");
  m.set("spe.dropped_full", static_cast<double>(dropped), "count");
  m.set("spe.samples", static_cast<double>(samples), "count");
  m.set("kernel.wakeups", static_cast<double>(wake), "count");
  m.set("spe.sample_yield", sel > 0 ? static_cast<double>(samples) / static_cast<double>(sel) : 0.0,
        "ratio");
}

}  // namespace

std::unique_ptr<Stage> make_capture_stage(const StageContext& ctx, CaptureSize size) {
  return std::make_unique<CaptureStage>(ctx, size);
}

}  // namespace perfbench
