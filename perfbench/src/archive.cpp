// archive: the post-capture path.  Sender threads write synthetic traces
// through TraceWriter, teed by net::StreamingTraceSink to an in-process
// net::Collector on loopback; then selective pushdown queries, full
// parallel decodes, one merge and session diffs run on the collected
// store.  One operation is one ingested session, one query or one analysis.
#include "archive.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trace_diff.hpp"
#include "common/md5.hpp"
#include "common/rng.hpp"
#include "core/regions.hpp"
#include "core/trace.hpp"
#include "mem/latency.hpp"
#include "net/block_sender.hpp"
#include "net/collector.hpp"
#include "store/block_codec.hpp"
#include "store/region_file.hpp"
#include "store/trace_file.hpp"
#include "store/trace_merger.hpp"
#include "store/trace_query.hpp"
#include "shape.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using nmo::core::TraceSample;

constexpr nmo::CoreId kCores = 8;
/// Two sender sessions, one of each trace shape: the pair the diffs compare.
constexpr std::size_t kSenders = 2;

/// One generated session: its samples in canonical order, its region table
/// and the benchmark's own digests of the samples.
struct Generated {
  std::vector<TraceSample> samples;  ///< Reserved up front: one allocation per trace.
  std::vector<nmo::core::AddrRegion> regions;
  std::vector<std::uint64_t> region_hash;  ///< Hash of each region's name.
  std::uint64_t ordered = 0;               ///< Digest of the samples in file order.
  std::uint64_t unordered = 0;             ///< Order-independent digest (sum).
};

/// Hash of one sample, with its region named rather than numbered (a merge
/// renumbers regions).
std::uint64_t sample_hash(const TraceSample& s, std::uint64_t region_hash) {
  Fnv64 h;
  h.u64(s.time_ns);
  h.u64(s.vaddr);
  h.u64(s.pc);
  h.u64(static_cast<std::uint64_t>(s.op) | static_cast<std::uint64_t>(s.level) << 8 |
        static_cast<std::uint64_t>(s.latency) << 16 | static_cast<std::uint64_t>(s.core) << 32);
  h.u64(region_hash);
  return h.value();
}

std::uint64_t name_hash(std::string_view name) {
  Fnv64 h;
  h.text(name);
  return h.value();
}

std::vector<std::uint64_t> region_hashes(const std::vector<nmo::core::AddrRegion>& regions) {
  std::vector<std::uint64_t> out;
  for (const auto& r : regions) out.push_back(name_hash(r.name));
  return out;
}

std::uint64_t region_hash_of(const std::vector<std::uint64_t>& hashes, std::int32_t region) {
  static const std::uint64_t untagged = name_hash("(untagged)");
  if (region < 0 || static_cast<std::size_t>(region) >= hashes.size()) return untagged;
  return hashes[static_cast<std::size_t>(region)];
}

/// Folds samples into the ordered digest (order-dependent chain).
std::uint64_t chain(std::uint64_t acc, std::uint64_t h) {
  return (acc ^ h) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

/// The simulated hierarchy's load-to-use latency of a level, as the exact
/// engine stamps it on a sample.
std::uint16_t latency_for(nmo::MemLevel level) {
  return static_cast<std::uint16_t>(nmo::mem::LatencyModel{}.for_level(level));
}

nmo::MemLevel draw_level(nmo::Rng& rng, const double (&mix)[4]) {
  double u = rng.uniform01();
  for (unsigned l = 0; l < 3; ++l) {
    if (u < mix[l]) return static_cast<nmo::MemLevel>(l);
    u -= mix[l];
  }
  return nmo::MemLevel::kDRAM;
}

/// The parameters of one synthetic trace shape.  Each is read off the
/// shape (shape.hpp) of a real trace that the capture stage stores at full
/// size, period 1024; README.md sets the two side by side.
struct ShapeParams {
  std::vector<std::pair<const char*, nmo::Addr>> regions;  ///< Name and bytes, as tagged.
  nmo::Addr base = 0;
  double level_mix[4] = {};    ///< L1, L2, SLC, DRAM.
  double store = 0.0;          ///< Share of stores.
  std::uint64_t max_gap_ns = 1; ///< Gaps are uniform in [1, max_gap_ns].
  nmo::Addr step_lo = 0;       ///< A core's step within a region: [step_lo, step_lo + step_span).
  nmo::Addr step_span = 8;
  double jump = 0.0;           ///< Share of steps that land anywhere in the core's slice.
};

/// Regular, STREAM-like: the real STREAM trace at 2^18 doubles per array
/// (seed 1: 87.4/11.4/0.0/1.1 % L1/L2/SLC/DRAM, 46 % stores, 34 ns mean gap,
/// median step 2.4 KiB with 28 % page-sized jumps).
const ShapeParams kRegular{{{"a", 2ull << 20}, {"b", 2ull << 20}, {"c", 2ull << 20}},
                           0x1000'0000,
                           {0.879, 0.111, 0.0, 0.010},
                           0.464,
                           67,
                           1040,
                           2080,
                           0.28};

/// Irregular, CFD-like: the real CFD trace at 24 Ki cells, over its seven
/// mesh arrays (seed 1: 80.7/13.8/3.9/1.6 %, 20 % stores, 172 ns mean gap,
/// median step 1.1 KiB with 22 % jumps).
const ShapeParams kIrregular{{{"elements_surrounding", 384ull << 10},
                              {"normals", 2304ull << 10},
                              {"density", 192ull << 10},
                              {"momentum", 576ull << 10},
                              {"energy", 192ull << 10},
                              {"step_factor", 192ull << 10},
                              {"fluxes", 960ull << 10}},
                             0x2000'0000,
                             {0.811, 0.138, 0.034, 0.017},
                             0.208,
                             338,
                             256,
                             1408,
                             0.245};

/// Samples in time order.  Every core walks its own slice of each region,
/// by a drawn step or, at the jump rate, to a drawn place in the slice.  The
/// PC and the latency follow from the address and the level as the exact
/// engine derives them.
Generated generate(const ShapeParams& p, std::size_t samples, std::uint64_t seed) {
  Generated g;
  nmo::Addr base = p.base;
  for (const auto& [name, bytes] : p.regions) {
    g.regions.push_back({name, base, base + bytes});
    base += bytes + (1 << 20);
  }
  const std::size_t nr = p.regions.size();
  std::vector<nmo::Addr> cursor(kCores * nr, 0);  // offset within the core's slice
  nmo::Rng rng(seed, 1);
  g.samples.reserve(samples);
  std::uint64_t t = 1'000'000;
  for (std::size_t i = 0; i < samples; ++i) {
    TraceSample s;
    t += 1 + rng.uniform(p.max_gap_ns);
    s.time_ns = t;
    s.core = static_cast<nmo::CoreId>(rng.uniform(kCores));
    const std::size_t r = rng.uniform(nr);
    const nmo::Addr slice = p.regions[r].second / kCores;
    nmo::Addr& cur = cursor[s.core * nr + r];
    if (rng.bernoulli(p.jump)) {
      cur = rng.uniform(slice / 8) * 8;
    } else {
      cur = (cur + p.step_lo + rng.uniform(p.step_span / 8) * 8) % slice;
    }
    s.vaddr = g.regions[r].start + s.core * slice + cur;
    s.region = static_cast<std::int32_t>(r);
    s.op = rng.bernoulli(p.store) ? nmo::MemOp::kStore : nmo::MemOp::kLoad;
    s.pc = 0x400000 + (s.vaddr & 0xfff);
    s.level = draw_level(rng, p.level_mix);
    s.latency = latency_for(s.level);
    g.samples.push_back(s);
  }
  return g;
}

void digest(Generated& g) {
  g.region_hash = region_hashes(g.regions);
  for (const auto& s : g.samples) {
    const std::uint64_t h = sample_hash(s, region_hash_of(g.region_hash, s.region));
    g.ordered = chain(g.ordered, h);
    g.unordered += h;
  }
}

std::uint64_t ordered_digest(const std::vector<TraceSample>& samples,
                             const std::vector<std::uint64_t>& hashes) {
  std::uint64_t acc = 0;
  for (const auto& s : samples) acc = chain(acc, sample_hash(s, region_hash_of(hashes, s.region)));
  return acc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// One selective query and the benchmark's own statement of what it must
/// return.
struct QuerySpec {
  std::size_t trace = 0;
  std::uint64_t t0 = 0, t1 = 0;
  bool has_region = false;
  std::int32_t region = -1;
  bool has_addr = false;
  nmo::Addr lo = 0, hi = 0;
  bool has_level = false;
  nmo::MemLevel level = nmo::MemLevel::kL1;

  [[nodiscard]] bool matches(const TraceSample& s) const {
    return s.time_ns >= t0 && s.time_ns <= t1 && (!has_region || s.region == region) &&
           (!has_addr || (s.vaddr >= lo && s.vaddr <= hi)) && (!has_level || s.level == level);
  }
};

class ArchiveStage final : public Stage {
 public:
  ArchiveStage(const StageContext& ctx, ArchiveSize size)
      : ctx_(ctx), queries_per_round_(size == ArchiveSize::kFull ? 96 : 64) {
    const std::size_t samples = size == ArchiveSize::kFull ? 1'000'000 : 250'000;
    for (std::size_t i = 0; i < kSenders; ++i) {
      const std::uint64_t seed = mix_seed(ctx.seed, 500 + i);
      gens_.push_back(generate(i % 2 == 0 ? kRegular : kIrregular, samples, seed));
      digest(gens_.back());
    }
  }

  void round(std::uint32_t index) override;
  void finish() override;
  void report_e2e(Metrics& m) const override;
  void report_layers(Metrics& m) const override;
  [[nodiscard]] std::uint64_t trace_bytes() const override { return bytes_; }
  [[nodiscard]] std::uint64_t trace_samples() const override { return samples_; }

 private:
  /// Ingest: senders -> local files + collector.  Returns the collected
  /// trace paths (empty string where a session was not found).
  std::vector<std::string> ingest(const std::string& root);
  void run_queries(const std::vector<std::string>& paths, std::uint32_t index);
  void analyze(const std::vector<std::string>& paths, const std::string& root);
  void codec_micro();

  StageContext ctx_;
  std::size_t queries_per_round_;
  std::vector<Generated> gens_;

  std::vector<double> ingest_rate_;
  std::vector<double> query_ms_;
  std::vector<double> analyze_s_;
  std::vector<double> blocks_per_s_;
  std::vector<double> lag_s_;
  std::vector<double> full_read_s_, merge_s_, diff_s_;
  double write_s_ = 0.0;
  std::uint64_t bytes_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t blocks_sent_ = 0, blocks_dropped_ = 0, wire_bytes_ = 0;
  std::uint64_t q_scanned_ = 0, q_skipped_ = 0, q_samples_scanned_ = 0, q_matched_ = 0;
  std::uint32_t rounds_ = 0;
  double lz_compress_mibs_ = 0.0, lz_decompress_mibs_ = 0.0, md5_mibs_ = 0.0;
  std::string merged_fingerprint_;
  std::vector<std::string> fingerprints_;
  std::uint64_t query_matches_ = 0;
  std::vector<TraceShape> shapes_;  ///< Of each generated trace, as stored.
};

std::vector<std::string> ArchiveStage::ingest(const std::string& root) {
  Ops& ops = *ctx_.ops;
  fs::create_directories(root + "/local");
  nmo::net::CollectorConfig cc;
  cc.root = root + "/collected";
  cc.once = static_cast<std::uint32_t>(kSenders);
  nmo::net::Collector collector(cc);
  std::string error;
  const bool started = collector.start(&error);
  ops.check(started, "archive: collector did not start: " + error);

  std::vector<std::string> local(kSenders);
  std::vector<nmo::net::StreamStats> stats(kSenders);
  std::vector<double> write_s(kSenders, 0.0);
  std::vector<Clock::time_point> finished_at(kSenders);
  std::vector<char> sender_ok(kSenders, 0);
  std::vector<std::string> fingerprint(kSenders);
  const ScopedSpan ingest_span("net.ingest");
  const auto t_first = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSenders && started; ++i) {
      local[i] = root + "/local/session-" + std::to_string(i) + ".nmot";
      threads.emplace_back([&, i] {
        const ScopedSpan span("net.sender", ingest_span.id());
        nmo::net::StreamConfig sc;  // default watermark: ring 64, block policy
        sc.port = collector.port();
        nmo::net::StreamingTraceSink sink(sc, "archive-" + std::to_string(i),
                                          nmo::store::TraceWriter::Options{}, i);
        const bool connected = sink.connect();
        nmo::store::TraceWriter writer(local[i]);
        sink.attach(writer);
        sink.send_regions(gens_[i].regions);
        bool closed = false;
        {
          const ScopedSpan write_span("store.write_teed");
          const auto t = Clock::now();
          for (const auto& s : gens_[i].samples) writer.add(s);
          closed = writer.close();
          write_s[i] = seconds_since(t);
        }
        const bool done = sink.finish(writer.samples_written(), writer.fingerprint());
        finished_at[i] = Clock::now();
        stats[i] = sink.stats();
        fingerprint[i] = writer.fingerprint();
        sender_ok[i] = connected && closed && done && !sink.fallback() ? 1 : 0;
      });
    }
    for (auto& t : threads) t.join();
  }
  const bool all_done = started && collector.wait_done(120'000);
  const auto t_done = Clock::now();
  const auto cstats = collector.stats();
  collector.stop();

  const double span_s = seconds_between(t_first, t_done);
  std::uint64_t total = 0;
  for (const auto& g : gens_) total += g.samples.size();
  ingest_rate_.push_back(static_cast<double>(total) / span_s);
  blocks_per_s_.push_back(static_cast<double>(cstats.blocks) / span_s);
  lag_s_.push_back(
      seconds_between(*std::max_element(finished_at.begin(), finished_at.end()), t_done));

  // Find each sender's collected session ("session-<id>-archive-<i>").
  std::vector<std::string> collected(kSenders);
  if (fs::exists(cc.root)) {
    for (const auto& entry : fs::directory_iterator(cc.root)) {
      if (!entry.is_directory()) continue;
      const std::string name = entry.path().filename().string();
      for (std::size_t i = 0; i < kSenders; ++i) {
        const std::string suffix = "-archive-" + std::to_string(i);
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
          collected[i] = (entry.path() / "trace.nmot").string();
        }
      }
    }
  }
  for (std::size_t i = 0; i < kSenders; ++i) {
    const std::string who = "archive ingest " + std::to_string(i) + ": ";
    bool ok = ops.check(all_done && sender_ok[i] != 0, who + "stream did not complete cleanly");
    ok = ops.check(stats[i].blocks_dropped == 0, who + "blocks dropped at the default watermark") &&
         ok;
    ok = ok && ops.check(!collected[i].empty() && fs::exists(collected[i]) &&
                             read_file(collected[i]) == read_file(local[i]),
                         who + "collected trace differs from the sender's local file");
    ops.record(ok);
    if (started && fs::exists(local[i])) bytes_ += fs::file_size(local[i]);
    samples_ += gens_[i].samples.size();
    write_s_ += write_s[i];
    blocks_sent_ += stats[i].blocks_sent;
    blocks_dropped_ += stats[i].blocks_dropped;
    wire_bytes_ += stats[i].bytes_sent;
    if (rounds_ == 0) {
      fingerprints_.push_back(fingerprint[i]);
      const double file_bytes = started && fs::exists(local[i])
                                    ? static_cast<double>(fs::file_size(local[i]))
                                    : 0.0;
      shapes_.push_back(shape_of(gens_[i].samples,
                                 file_bytes / static_cast<double>(gens_[i].samples.size())));
    }
  }
  return collected;
}

void ArchiveStage::run_queries(const std::vector<std::string>& paths, std::uint32_t index) {
  Ops& ops = *ctx_.ops;
  nmo::Rng rng(mix_seed(ctx_.seed, 900 + index), 3);
  // The predicates' values cycle rather than being drawn, so every run
  // asks the same mix of selectivities whatever the seed; only the windows'
  // places are drawn.
  std::size_t picks[kSenders][4] = {};
  std::vector<QuerySpec> specs(queries_per_round_);
  for (std::size_t q = 0; q < specs.size(); ++q) {
    QuerySpec& spec = specs[q];
    // Three queries in four go to the regular trace, so the median and the
    // 95th percentile each fall inside one trace's latency cluster rather
    // than on the edge between the two.
    spec.trace = q % 4 == 3 ? 1 : 0;
    const Generated& g = gens_[spec.trace];
    const unsigned kind = static_cast<unsigned>((q / 4) % 4);
    const std::size_t pick = picks[spec.trace][kind]++;
    // The window spans a fixed number of samples, so every query decodes
    // about the same number of blocks on every seed and trace size; only
    // its place is drawn.
    constexpr std::size_t window = 16384;
    const std::size_t first = rng.uniform(g.samples.size() - window);
    spec.t0 = g.samples[first].time_ns;
    spec.t1 = g.samples[first + window - 1].time_ns;
    if (kind == 1) {
      spec.has_region = true;
      spec.region = static_cast<std::int32_t>(pick % g.regions.size());
    } else if (kind == 2) {
      const auto& r = g.regions[pick % g.regions.size()];
      const nmo::Addr quarter = (r.end - r.start) / 4;
      spec.has_addr = true;
      spec.lo = r.start + (pick / g.regions.size() % 3) * quarter;
      spec.hi = spec.lo + quarter;
    } else if (kind == 3) {
      spec.has_level = true;
      spec.level = static_cast<nmo::MemLevel>(pick % nmo::kNumMemLevels);
    }
  }

  struct Answer {
    double ms = 0.0;
    nmo::store::QueryStats stats;
    std::uint64_t count = 0;
  };
  std::vector<Answer> answers(specs.size());
  // One client per load thread, each query on one decode thread.  A single
  // client times every query of a round on whichever hw thread it holds,
  // and on a shared host the hw threads' speeds differ (an SMT sibling
  // under load): the round's median then moves with that one thread.
  parallel_for_each(specs.size(), ctx_.threads, [&](std::size_t q) {
    const QuerySpec& spec = specs[q];
    const Generated& g = gens_[spec.trace];
    auto tq = nmo::store::query(paths[spec.trace]);
    tq.time_between(spec.t0, spec.t1);
    if (spec.has_region) tq.region(spec.region);
    if (spec.has_addr) tq.address_in(spec.lo, spec.hi);
    if (spec.has_level) tq.level(spec.level);
    const auto t = Clock::now();
    nmo::store::TraceQuery::Result res;
    {
      const ScopedSpan qspan("store.query");
      res = tq.run(1);
    }
    answers[q].ms = seconds_since(t) * 1e3;
    answers[q].stats = res.stats;

    // The benchmark's own filter over the generated samples (time-sorted,
    // so the window is found by binary search).
    const auto& samples = g.samples;
    auto lo = std::lower_bound(samples.begin(), samples.end(), spec.t0,
                               [](const TraceSample& s, std::uint64_t v) { return s.time_ns < v; });
    std::uint64_t want = 0, count = 0;
    for (; lo != samples.end() && lo->time_ns <= spec.t1; ++lo) {
      if (!spec.matches(*lo)) continue;
      want = chain(want, sample_hash(*lo, region_hash_of(g.region_hash, lo->region)));
      ++count;
    }
    answers[q].count = count;
    const std::string who = "archive query " + std::to_string(q) + ": ";
    bool ok = ops.check(res.ok, who + "failed: " + res.error);
    ok = ok && ops.check(res.samples.size() == count &&
                             ordered_digest(res.samples.samples(), g.region_hash) == want,
                         who + "result differs from the benchmark's own filter");
    ops.record(ok);
  });

  for (const Answer& a : answers) {
    query_ms_.push_back(a.ms);
    q_scanned_ += a.stats.blocks_scanned;
    q_skipped_ += a.stats.blocks_skipped;
    q_samples_scanned_ += a.stats.samples_scanned;
    q_matched_ += a.stats.samples_matched;
    if (index == 0) query_matches_ = query_matches_ * 31 + a.count;
  }
}

void ArchiveStage::analyze(const std::vector<std::string>& paths, const std::string& root) {
  Ops& ops = *ctx_.ops;
  double full_read = 0.0, merge = 0.0, diff = 0.0;

  for (std::size_t i = 0; i < kSenders; ++i) {
    const auto t = Clock::now();
    nmo::store::TraceQuery::Result res;
    {
      const ScopedSpan span("store.full_read");
      res = nmo::store::query(paths[i]).run(ctx_.threads);
    }
    full_read += seconds_since(t);
    const std::string who = "archive decode " + std::to_string(i) + ": ";
    bool ok = ops.check(res.ok, who + "failed: " + res.error);
    ok = ok && ops.check(res.samples.size() == gens_[i].samples.size() &&
                             ordered_digest(res.samples.samples(), gens_[i].region_hash) ==
                                 gens_[i].ordered,
                         who + "decoded samples differ from the generated ones");
    ops.record(ok);
  }

  {
    const std::string out = root + "/merged.nmot";
    nmo::store::TraceMerger merger;
    for (const auto& p : paths) merger.add_input(p);
    const auto t = Clock::now();
    std::optional<nmo::store::MergeStats> st;
    {
      const ScopedSpan span("store.merge");
      st = merger.merge_to(out);
    }
    merge = seconds_since(t);
    bool ok = ops.check(st.has_value(), "archive merge failed: " + merger.error());
    if (ok) {
      std::uint64_t want_samples = 0, want_digest = 0;
      for (const auto& g : gens_) {
        want_samples += g.samples.size();
        want_digest += g.unordered;
      }
      const auto regions = nmo::store::read_region_file(nmo::store::region_path_for(out));
      const auto hashes = regions ? region_hashes(*regions) : std::vector<std::uint64_t>{};
      const auto merged = nmo::store::query(out).run(ctx_.threads);
      const auto& ms = merged.samples.samples();
      const bool ordered = std::is_sorted(ms.begin(), ms.end(), nmo::core::canonical_less);
      const std::uint64_t n = ms.size();
      std::uint64_t digest_sum = 0;
      for (const auto& x : ms) digest_sum += sample_hash(x, region_hash_of(hashes, x.region));
      ok = ops.check(merged.ok && regions.has_value(), "archive merge: re-read failed");
      ok = ops.check(st->samples == want_samples && n == want_samples,
                     "archive merge: sample count is not the sum of the inputs") &&
           ok;
      ok = ops.check(ordered, "archive merge: output is not in canonical order") && ok;
      ok = ops.check(digest_sum == want_digest,
                     "archive merge: digest is not the sum of the inputs' digests") &&
           ok;
      if (rounds_ == 0) merged_fingerprint_ = st->fingerprint;
    }
    ops.record(ok);
    fs::remove(out);
  }

  {
    const nmo::analysis::DiffOptions opt;
    std::string err_a, err_b;
    auto t = Clock::now();
    std::optional<nmo::analysis::TraceProfile> pa;
    nmo::analysis::DiffReport self;
    {
      const ScopedSpan span("analysis.diff");
      pa = nmo::analysis::profile_path(paths[0], opt, &err_a);
      if (pa) self = nmo::analysis::diff_profiles(*pa, *pa, opt);
    }
    diff += seconds_since(t);
    bool ok = ops.check(pa.has_value(), "archive self-diff: profile failed: " + err_a);
    if (ok) {
      bool zero = !self.drift && self.phase_distance == 0.0 && self.samples_a == self.samples_b;
      for (const auto& r : self.regions) {
        zero = zero && r.ks_latency == 0.0 && r.level_distance == 0.0 && !r.drift;
      }
      ok = ops.check(zero, "archive self-diff is not zero");
    }
    ops.record(ok);

    t = Clock::now();
    std::optional<nmo::analysis::TraceProfile> pb;
    nmo::analysis::DiffReport ab, ba;
    {
      const ScopedSpan span("analysis.diff");
      pb = nmo::analysis::profile_path(paths[1], opt, &err_b);
      if (pa && pb) {
        ab = nmo::analysis::diff_profiles(*pa, *pb, opt);
        ba = nmo::analysis::diff_profiles(*pb, *pa, opt);
      }
    }
    diff += seconds_since(t);
    ok = ops.check(pa && pb, "archive diff: profile failed: " + err_b);
    if (ok) {
      bool sym = ab.drift == ba.drift && ab.phase_distance == ba.phase_distance &&
                 ab.samples_a == ba.samples_b && ab.regions.size() == ba.regions.size();
      for (std::size_t r = 0; sym && r < ab.regions.size(); ++r) {
        const auto& x = ab.regions[r];
        const auto& y = ba.regions[r];
        sym = x.name == y.name && x.ks_latency == y.ks_latency &&
              x.level_distance == y.level_distance && x.samples_a == y.samples_b;
      }
      ok = ops.check(sym, "archive diff(A,B) != diff(B,A)");
    }
    ops.record(ok);
  }
  full_read_s_.push_back(full_read);
  merge_s_.push_back(merge);
  diff_s_.push_back(diff);
  analyze_s_.push_back(full_read + merge + diff);
}

void ArchiveStage::round(std::uint32_t index) {
  const std::string root = ctx_.work_dir + "/archive-" + std::to_string(index);
  const std::vector<std::string> paths = ingest(root);
  if (std::all_of(paths.begin(), paths.end(), [](const std::string& p) { return !p.empty(); })) {
    run_queries(paths, index);
    analyze(paths, root);
  } else {
    // Without a collected store nothing downstream can run; every query and
    // analysis of the round counts as attempted and failed.
    for (std::size_t i = 0; i < queries_per_round_ + kSenders + 3; ++i) ctx_.ops->record(false);
  }
  ++rounds_;
  fs::remove_all(root);
}

void ArchiveStage::codec_micro() {
  // lz_compress / lz_decompress / Md5::update over the block payloads of
  // the first generated trace as the writer stores it.
  const std::string path = ctx_.work_dir + "/codec-micro.nmot";
  {
    nmo::store::TraceWriter writer(path);
    for (const auto& s : gens_[0].samples) writer.add(s);
    writer.close();
  }
  nmo::store::TraceReader reader(path);
  const bool indexed = reader.load_index();
  const std::string file = read_file(path);
  fs::remove(path);
  if (!indexed) return;
  const auto* bytes = reinterpret_cast<const std::byte*>(file.data());
  std::vector<std::vector<std::byte>> raw, stored;
  for (const auto& entry : reader.block_index()) {
    std::size_t pos = entry.offset + 1;  // past the block marker
    auto varint = [&] {
      std::uint64_t v = 0;
      for (unsigned shift = 0; pos < file.size() && shift < 64; shift += 7) {
        const auto b = static_cast<std::uint8_t>(file[pos++]);
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) break;
      }
      return v;
    };
    varint();  // sample count
    const auto codec = static_cast<std::uint8_t>(file[pos++]);
    const std::uint64_t cores = varint();
    for (std::uint64_t c = 0; c < 4 * cores; ++c) varint();
    const std::uint64_t raw_n = varint();
    const std::uint64_t stored_n = varint();
    if (codec != static_cast<std::uint8_t>(nmo::store::BlockCodec::kLz) ||
        pos + stored_n > file.size()) {
      continue;
    }
    stored.emplace_back(bytes + pos, bytes + pos + stored_n);
    raw.emplace_back(raw_n);
  }
  std::uint64_t raw_total = 0;
  for (const auto& r : raw) raw_total += r.size();
  if (raw_total == 0) return;
  const double mib = static_cast<double>(raw_total) / (1024.0 * 1024.0);

  auto t = Clock::now();
  {
    const ScopedSpan span("store.lz_decompress");
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (!nmo::store::lz_decompress(stored[i].data(), stored[i].size(), raw[i].data(),
                                     raw[i].size())) {
        std::fprintf(stderr, "archive: lz_decompress rejected a stored block\n");
      }
    }
  }
  lz_decompress_mibs_ = mib / seconds_since(t);
  std::uint64_t sink = 0;
  t = Clock::now();
  {
    const ScopedSpan span("store.lz_compress");
    for (const auto& r : raw) sink += nmo::store::lz_compress(r.data(), r.size()).size();
  }
  lz_compress_mibs_ = mib / seconds_since(t);
  t = Clock::now();
  nmo::Md5 md5;
  {
    const ScopedSpan span("common.md5");
    for (const auto& r : raw) md5.update(std::span<const std::byte>(r));
  }
  md5_mibs_ = mib / seconds_since(t);
  if (sink == 0 || md5.hex_digest().empty()) std::fprintf(stderr, "archive: empty codec micro\n");
}

void ArchiveStage::finish() {
  if (ctx_.traced) codec_micro();
  for (std::size_t i = 0; i < shapes_.size(); ++i) {
    print_shape(i % 2 == 0 ? "synthetic-regular" : "synthetic-irreg", shapes_[i]);
  }
  Fnv64& d = *ctx_.model_digest;
  for (const auto& g : gens_) {
    d.u64(g.ordered);
    d.u64(g.unordered);
  }
  for (const auto& f : fingerprints_) d.text(f);
  d.text(merged_fingerprint_);
  d.u64(query_matches_);
}

void ArchiveStage::report_e2e(Metrics& m) const {
  m.set("ingest_samples_per_s", median(ingest_rate_), "samples/s");
  m.set("query_p50_ms", median(query_ms_), "ms");
  m.set("query_p95_ms", percentile(query_ms_, 0.95), "ms");
  m.set("analyze_s", median(analyze_s_), "s");
}

void ArchiveStage::report_layers(Metrics& m) const {
  const double r = rounds_ > 0 ? static_cast<double>(rounds_) : 1.0;
  m.set("store.write_mib_per_s",
        write_s_ > 0 ? static_cast<double>(bytes_) / (1024.0 * 1024.0) / write_s_ : 0.0,
        "MiB/s");
  m.set("store.lz_compress_mib_per_s", lz_compress_mibs_, "MiB/s");
  m.set("store.lz_decompress_mib_per_s", lz_decompress_mibs_, "MiB/s");
  m.set("common.md5_mib_per_s", md5_mibs_, "MiB/s");
  m.set("net.collector_blocks_per_s", median(blocks_per_s_), "blocks/s");
  m.set("net.collector_lag_s", median(lag_s_), "s");
  m.set("net.blocks_sent", static_cast<double>(blocks_sent_) / r, "count");
  m.set("net.blocks_dropped", static_cast<double>(blocks_dropped_) / r, "count");
  m.set("net.wire_mib", static_cast<double>(wire_bytes_) / (1024.0 * 1024.0) / r, "MiB");
  m.set("store.query_blocks_scanned", static_cast<double>(q_scanned_) / r, "count");
  m.set("store.query_blocks_skipped", static_cast<double>(q_skipped_) / r, "count");
  m.set("store.query_match_ratio",
        q_samples_scanned_ > 0
            ? static_cast<double>(q_matched_) / static_cast<double>(q_samples_scanned_)
            : 0.0,
        "ratio");
  m.set("store.full_read_s", median(full_read_s_), "s");
  m.set("store.merge_s", median(merge_s_), "s");
  m.set("analysis.diff_s", median(diff_s_), "s");
}

}  // namespace

std::unique_ptr<Stage> make_archive_stage(const StageContext& ctx, ArchiveSize size) {
  return std::make_unique<ArchiveStage>(ctx, size);
}

}  // namespace perfbench
