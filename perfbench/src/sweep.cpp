// sweep: the paper's sensitivity study (Figs. 7-9) on the statistical
// driver.  Each grid point runs run_statistical with SPE off and again with
// SPE on.  One operation is one grid point.
#include "sweep.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/accuracy.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/profile.hpp"
#include "sim/stat_driver.hpp"
#include "spe/packet.hpp"

namespace perfbench {
namespace {

/// The figures' thread count.
constexpr std::uint32_t kThreads = 32;

struct Point {
  std::size_t profile = 0;
  std::uint64_t period = 0;
  std::uint64_t pages = 0;
  std::uint64_t seed = 0;
};

struct Outcome {
  nmo::sim::StatResult off;
  nmo::sim::StatResult on;
  double off_s = 0.0;
  double on_s = 0.0;
};

class SweepStage final : public Stage {
 public:
  SweepStage(const StageContext& ctx, SweepSize size)
      : ctx_(ctx) {
    profiles_ = {nmo::sim::profiles::cfd(), nmo::sim::profiles::stream(),
                 nmo::sim::profiles::bfs()};
    if (size == SweepSize::kTail) {
      // Three configurations, each dominated by its selections rather than
      // by mapping its buffers, on four seeds each: twelve short points
      // that the pool spreads over every load thread, so the tail's total
      // does not rest on the speed of one hw thread.
      for (std::uint64_t rep = 0; rep < 4; ++rep) {
        for (const auto& [profile, period] :
             {std::pair<std::size_t, std::uint64_t>{0, 32000}, {1, 4096}, {2, 4096}}) {
          points_.push_back(Point{profile, period, 16, mix_seed(ctx.seed, 1000 + points_.size())});
        }
      }
      return;
    }
    // Costliest first (small periods, CFD): the pool pulls points in order.
    for (const std::uint64_t period : {1000, 4096, 32000}) {
      for (std::size_t p = 0; p < profiles_.size(); ++p) {
        for (const std::uint64_t pg : {16, 4, 2}) {
          points_.push_back(Point{p, period, pg, mix_seed(ctx.seed, 1000 + points_.size())});
        }
      }
    }
  }

  void round(std::uint32_t index) override;
  void finish() override;
  void report_e2e(Metrics& m) const override { m.set("sweep_s", median(round_s_), "s"); }
  void report_layers(Metrics& m) const override;

 private:
  nmo::sim::SweepConfig config(const Point& pt, bool spe) const {
    nmo::sim::SweepConfig cfg;
    cfg.threads = kThreads;
    cfg.period = pt.period;
    cfg.aux_bytes = pt.pages * nmo::kSimPageSize;
    cfg.seed = pt.seed;
    cfg.spe_enabled = spe;
    return cfg;
  }
  /// Checks one point and records it as one operation.
  void check(const Point& pt, const Outcome& o);
  void codec_micro();

  StageContext ctx_;
  std::vector<nmo::sim::WorkloadProfile> profiles_;
  std::vector<Point> points_;
  std::vector<Outcome> first_;  ///< Round 0's outcomes (digest, tallies, table).
  std::vector<double> round_s_;
  std::vector<double> off_s_;
  std::vector<double> on_s_;
  double extra_s_ = 0.0;  ///< Sum of (SPE-on - SPE-off) host time.
  std::uint64_t selections_ = 0;
  std::uint64_t samples_ = 0;
  double encode_ns_ = 0.0;
  double decode_ns_ = 0.0;
};

void SweepStage::check(const Point& pt, const Outcome& o) {
  Ops& ops = *ctx_.ops;
  const auto& prof = profiles_[pt.profile];
  char who[96];
  std::snprintf(who, sizeof(who), "sweep %s period %llu aux %llu pages: ", prof.name.c_str(),
                static_cast<unsigned long long>(pt.period),
                static_cast<unsigned long long>(pt.pages));
  const auto& r = o.on;
  bool ok = ops.check(r.processed_samples + r.skipped_records == r.written,
                      std::string(who) + "samples + skipped != written");
  ok = ops.check(r.selections >= r.written + r.dropped_full + r.filtered + r.hw_collisions,
                 std::string(who) + "selections < written + dropped + filtered + collisions") &&
       ok;
  // Selections (plus those suppressed by throttling) follow the decoded-op
  // total over the period.  Allowance: each thread's last interval of each
  // phase is cut off by the phase end, plus 5 sigma of counting noise.
  double decoded = 0.0;
  for (const auto& ph : prof.phases) {
    decoded += static_cast<double>(ph.mem_ops) * (1.0 + ph.nonmem_per_mem);
  }
  const double expected = decoded / static_cast<double>(pt.period);
  const double got = static_cast<double>(r.selections + r.throttled);
  const double cut = static_cast<double>(kThreads * prof.phases.size());
  const double noise = 5.0 * std::sqrt(expected);
  ok = ops.check(got >= expected - cut - noise && got <= expected + noise,
                 std::string(who) + "selections " + std::to_string(got) + " vs expected " +
                     std::to_string(expected)) &&
       ok;
  // Sampling only adds cost.  On the two-page point SPE writes nothing and
  // the stat driver's per-selection truncation makes SPE-on cheaper: the
  // known fault, which fails that point alone.
  const bool slower = ops.check(r.instrumented_ns >= o.off.instrumented_ns,
                                std::string(who) + "SPE-on modeled time " +
                                    std::to_string(r.instrumented_ns) + " ns < SPE-off " +
                                    std::to_string(o.off.instrumented_ns) + " ns");
  ops.record(ok && slower, ok && pt.pages == 2);
}

void SweepStage::round(std::uint32_t index) {
  std::vector<Outcome> out(points_.size());
  const auto t0 = Clock::now();
  parallel_for_each(points_.size(), ctx_.threads, [&](std::size_t i) {
    const Point& pt = points_[i];
    const auto& prof = profiles_[pt.profile];
    const nmo::sim::MachineConfig machine;
    {
      const ScopedSpan span("sim.stat_baseline");
      const auto t = Clock::now();
      out[i].off = nmo::sim::run_statistical(prof, machine, config(pt, false));
      out[i].off_s = seconds_since(t);
    }
    const ScopedSpan span("sim.stat_profiled");
    const auto t = Clock::now();
    out[i].on = nmo::sim::run_statistical(prof, machine, config(pt, true));
    out[i].on_s = seconds_since(t);
  });
  round_s_.push_back(seconds_since(t0));

  double off = 0.0, on = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    check(points_[i], out[i]);
    off += out[i].off_s;
    on += out[i].on_s;
    selections_ += out[i].on.selections;
    samples_ += out[i].on.processed_samples;
  }
  off_s_.push_back(off);
  on_s_.push_back(on);
  extra_s_ += on - off;
  if (index == 0) first_ = std::move(out);
}

void SweepStage::codec_micro() {
  // spe::encode / spe::decode per record over a fixed batch.
  constexpr std::size_t kRecords = 1 << 16;
  nmo::Rng rng(ctx_.seed, 77);
  std::vector<nmo::spe::Record> recs(kRecords);
  for (auto& r : recs) {
    r.pc = 0x400000 + rng.uniform(1 << 16) * 4;
    r.vaddr = 0x1000'0000 + rng.uniform(1ull << 30);
    r.timestamp = 1 + rng.uniform(1ull << 40);
    r.op = rng.uniform(4) == 0 ? nmo::MemOp::kStore : nmo::MemOp::kLoad;
    r.level = static_cast<nmo::MemLevel>(rng.uniform(nmo::kNumMemLevels));
    r.events = nmo::spe::events_for_level(r.level, rng.uniform(64) == 0);
    r.total_latency = static_cast<std::uint16_t>(4 + rng.uniform(400));
  }
  std::vector<std::byte> buf(kRecords * nmo::spe::kRecordSize);
  auto t = Clock::now();
  {
    const ScopedSpan span("spe.encode");
    for (std::size_t i = 0; i < kRecords; ++i) {
      nmo::spe::encode(recs[i], std::span<std::byte, nmo::spe::kRecordSize>(
                                    buf.data() + i * nmo::spe::kRecordSize,
                                    nmo::spe::kRecordSize));
    }
  }
  encode_ns_ = seconds_since(t) * 1e9 / kRecords;
  std::uint64_t sink = 0;
  t = Clock::now();
  {
    const ScopedSpan span("spe.decode");
    for (std::size_t i = 0; i < kRecords; ++i) {
      const auto res = nmo::spe::decode(
          std::span<const std::byte>(buf.data() + i * nmo::spe::kRecordSize,
                                     nmo::spe::kRecordSize));
      if (res.ok()) sink += res.record->vaddr ^ res.record->timestamp;
    }
  }
  decode_ns_ = seconds_since(t) * 1e9 / kRecords;
  std::uint64_t want = 0;
  for (const auto& r : recs) want += r.vaddr ^ r.timestamp;
  if (sink != want) std::fprintf(stderr, "sweep: spe decode(encode(r)) lost records\n");
}

void SweepStage::finish() {
  if (ctx_.traced) codec_micro();
  Fnv64& d = *ctx_.model_digest;
  for (const auto& o : first_) {
    for (const auto* r : {&o.off, &o.on}) {
      for (const std::uint64_t v :
           {r->mem_counted, r->processed_samples, r->instrumented_ns, r->skipped_records,
            r->collision_flags, r->hw_collisions, r->selections, r->written, r->dropped_full,
            r->filtered, r->throttled, r->throttle_events, r->wakeups, r->aux_records,
            r->truncated_flags, r->monitor_services}) {
        d.u64(v);
      }
    }
  }
  // Modeled accuracy (Eq. 1) and time overhead of each point, for the README.
  std::fprintf(stderr, "sweep grid (modeled):\n%-8s %8s %6s %10s %10s\n", "profile", "period",
               "pages", "accuracy", "overhead");
  for (std::size_t i = 0; i < first_.size(); ++i) {
    auto r = first_[i].on;
    r.baseline_ns = first_[i].off.instrumented_ns;
    std::fprintf(stderr, "%-8s %8llu %6llu %9.2f%% %9.3f%%\n",
                 profiles_[points_[i].profile].name.c_str(),
                 static_cast<unsigned long long>(points_[i].period),
                 static_cast<unsigned long long>(points_[i].pages),
                 100.0 * nmo::analysis::accuracy(r), 100.0 * nmo::analysis::time_overhead(r));
  }
}

void SweepStage::report_layers(Metrics& m) const {
  std::uint64_t aux = 0, rounds = 0, truncated = 0, stalls = 0;
  for (const auto& o : first_) {
    aux += o.on.aux_records;
    rounds += o.on.monitor_services;
    truncated += o.on.truncated_flags;
    stalls += o.on.decode_stalls;
  }
  m.set("sim.stat_baseline_s", median(off_s_), "s");
  m.set("sim.stat_profiled_s", median(on_s_), "s");
  m.set("spe.ns_per_selection",
        selections_ > 0 ? extra_s_ * 1e9 / static_cast<double>(selections_) : 0.0, "ns");
  m.set("spe.ns_per_sample", samples_ > 0 ? extra_s_ * 1e9 / static_cast<double>(samples_) : 0.0,
        "ns");
  m.set("spe.encode_ns", encode_ns_, "ns");
  m.set("spe.decode_ns", decode_ns_, "ns");
  m.set("kernel.aux_records", static_cast<double>(aux), "count");
  m.set("sim.monitor_rounds", static_cast<double>(rounds), "count");
  m.set("spe.truncated_flags", static_cast<double>(truncated), "count");
  m.set("spe.decode_stalls", static_cast<double>(stalls), "count");
}

}  // namespace

std::unique_ptr<Stage> make_sweep_stage(const StageContext& ctx, SweepSize size) {
  return std::make_unique<SweepStage>(ctx, size);
}

}  // namespace perfbench
