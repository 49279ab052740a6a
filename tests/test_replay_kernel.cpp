// Tests for the fused multi-size replay kernel (opt/replay_kernel.hpp):
// bit-identity of every kernel variant — scalar, SSE4, AVX2 and the
// auto-dispatched one — against the per-size reference replay, over the
// built-in scenarios (LRU, counter-based kRandom, the dense 64-point
// grid) and at several campaign worker counts; synthetic captures pin
// the FIFO and write-through-no-allocate cache paths, the non-power-of-2
// set counts the Lemire fast-mod handles, the trace-to-L2 line-size
// rescale, and the split between lanes that replay and lanes that take
// their stream's first-touch counts; plus the runtime dispatch rules
// themselves.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "core/scenario.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"

namespace cms::opt {
namespace {

// Every fused engine, including the auto dispatcher. Explicit SIMD
// requests degrade to scalar on hosts without the ISA, so the list is
// valid (and the identity checks meaningful) on any machine.
const ReplayKernel kFusedKernels[] = {
    ReplayKernel::kScalar, ReplayKernel::kSse4, ReplayKernel::kAvx2,
    ReplayKernel::kAuto};

// ---- built-in scenarios: fused engines vs the per-size reference ----

MissProfile persize_reference(const core::Experiment& exp,
                              const std::vector<CaptureRun>& captures) {
  const auto& hier = exp.config().platform.hier;
  return replay_profile(exp.replay_jobs(captures), hier.l2, hier.l2_seed(),
                        miss_surcharge(hier));
}

MissProfile fused_profile(const core::Experiment& exp,
                          const std::vector<CaptureRun>& captures,
                          ReplayKernel kernel) {
  const auto& hier = exp.config().platform.hier;
  return replay_profile_multi(exp.multi_replay_jobs(captures), hier.l2,
                              hier.l2_seed(), miss_surcharge(hier), kernel);
}

class ReplayKernelScenario : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayKernelScenario, EveryKernelMatchesPerSizeReference) {
  const core::Experiment exp = core::scenarios().make_experiment(
      GetParam(), 1, core::ProfilerMode::kTraceReplay);
  const std::vector<CaptureRun> captures = exp.capture_runs();
  const MissProfile ref = persize_reference(exp, captures);
  for (const ReplayKernel k : kFusedKernels)
    EXPECT_TRUE(ref.identical(fused_profile(exp, captures, k)))
        << "kernel " << to_string(k) << " (resolved "
        << to_string(resolve_replay_kernel(k)) << ")";
}

INSTANTIATE_TEST_SUITE_P(
    BuiltIns, ReplayKernelScenario,
    ::testing::Values("jpeg-canny-tiny", "mpeg2-tiny", "mpeg2-tiny-rand",
                      "jpeg-canny-dense"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The Experiment-level path: profile() routed through the fused kernel
// must be worker-count invariant (the campaign shards per stream, the
// fold is serial) and match the per-size engine at every count.
TEST(ReplayKernelExperiment, WorkerCountAndKernelInvariant) {
  for (const char* name : {"mpeg2-tiny-rand", "jpeg-canny-dense"}) {
    const MissProfile ref =
        core::scenarios()
            .make_experiment(name, 1, core::ProfilerMode::kTraceReplay,
                             nullptr, ReplayKernel::kPerSize)
            .profile();
    for (const unsigned jobs : {1u, 2u, 8u}) {
      const core::Experiment exp = core::scenarios().make_experiment(
          name, jobs, core::ProfilerMode::kTraceReplay, nullptr,
          ReplayKernel::kAuto);
      EXPECT_TRUE(ref.identical(exp.profile()))
          << name << " auto jobs=" << jobs;
    }
    const core::Experiment scalar2 = core::scenarios().make_experiment(
        name, 2, core::ProfilerMode::kTraceReplay, nullptr,
        ReplayKernel::kScalar);
    EXPECT_TRUE(ref.identical(scalar2.profile())) << name << " scalar jobs=2";
  }
}

// ---- synthetic captures: cache paths the built-ins do not pin ----

constexpr Cycle kSurcharge = 25;
constexpr std::uint64_t kSeed = 0xC0FFEEu ^ 42u;

/// Deterministic LCG-driven stream: reads and (optionally) writes plus
/// occasional L1-writeback drains over a line span larger than any test
/// cache, issuer drawn per event from `issuers` to exercise the task-slot
/// cache (ids absent from the capture's task table land in the trash
/// slot on both engines).
ClientTrace synth_stream(mem::ClientId client, std::uint64_t seed,
                         std::uint64_t events, std::uint64_t line_span,
                         const std::vector<TaskId>& issuers) {
  ClientTrace t(client);
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < events; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t line = (x >> 33) % line_span;
    const AccessType type =
        ((x >> 13) & 3) == 0 ? AccessType::kWrite : AccessType::kRead;
    const bool writeback = ((x >> 21) & 15) == 0;
    t.append(line, type, writeback, issuers[(x >> 5) % issuers.size()]);
  }
  return t;
}

CaptureRun synth_capture(std::uint32_t line_bytes = 64) {
  CaptureRun c;
  c.trace.line_bytes = line_bytes;
  c.trace.streams.push_back(
      synth_stream(mem::ClientId::task(0), 11, 3000, 640, {0}));
  c.trace.streams.push_back(
      synth_stream(mem::ClientId::task(1), 22, 2500, 512, {1}));
  // A shared buffer stream with interleaved issuers; id 99 is not in the
  // task table, so its demand misses hit the trash slot.
  c.trace.streams.push_back(
      synth_stream(mem::ClientId::buffer(7), 33, 2000, 320, {0, 1, 99}));
  c.tasks = {{0, "t0", 1000, 5000, 800}, {1, "t1", 900, 4000, 700}};
  return c;
}

/// Uniform isolation plan: every stream gets `client_sets` exclusive
/// sets out of a 64-set virtual total (the conventional-index modulus).
std::shared_ptr<const PartitionPlan> synth_plan(const CaptureRun& c,
                                                std::uint32_t client_sets) {
  auto plan = std::make_shared<PartitionPlan>();
  plan->total_sets = 64;
  std::uint32_t base = 0;
  for (const ClientTrace& s : c.trace.streams) {
    PlanEntry e;
    e.client = s.client();
    e.name = s.client().to_string();
    e.is_task = !s.client().is_buffer();
    e.sets = client_sets;
    e.partition = {base, client_sets};
    base += client_sets;
    plan->entries.push_back(std::move(e));
  }
  plan->used_sets = base;
  plan->feasible = true;
  return plan;
}

// Non-power-of-2 sizes exercise the Lemire fast-mod lanes; 1 pins the
// degenerate d=1 geometry.
const std::vector<std::uint32_t> kSynthSizes = {1, 2, 3, 5, 8};

MissProfile synth_reference(const CaptureRun& c, const mem::CacheConfig& l2,
                            const std::vector<std::uint32_t>& sizes) {
  std::vector<ProfileFragment> frags;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    frags.push_back(replay_fragment(c, *synth_plan(c, sizes[i]), l2, kSeed,
                                    sizes[i], i, kSurcharge));
  return fold_fragments(std::move(frags));
}

struct FusedRun {
  MissProfile profile;
  std::size_t lanes = 0;
  std::size_t lanes_replayed = 0;
};

FusedRun synth_fused(const CaptureRun& c, const mem::CacheConfig& l2,
                     const std::vector<std::uint32_t>& sizes,
                     ReplayKernel kernel) {
  std::vector<ReplayGridPoint> points;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    points.push_back({synth_plan(c, sizes[i]), sizes[i], i});
  MultiReplay mr(c, std::move(points), l2, kSeed, kernel);
  for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
  return {fold_fragments(mr.fragments(kSurcharge)), mr.lanes(),
          mr.lanes_replayed()};
}

/// Every fused kernel against the per-size reference. Returns the lanes
/// the kernels replayed exactly, which must not depend on the kernel.
std::size_t expect_synth_identity(
    const CaptureRun& c, const mem::CacheConfig& l2,
    const std::vector<std::uint32_t>& sizes = kSynthSizes) {
  const MissProfile ref = synth_reference(c, l2, sizes);
  std::size_t replayed = 0;
  for (const ReplayKernel k : kFusedKernels) {
    const FusedRun run = synth_fused(c, l2, sizes, k);
    EXPECT_TRUE(ref.identical(run.profile))
        << "kernel " << to_string(k) << " l2 " << l2.to_string();
    EXPECT_EQ(run.lanes, c.trace.streams.size() * sizes.size());
    if (k != kFusedKernels[0]) {
      EXPECT_EQ(run.lanes_replayed, replayed) << "kernel " << to_string(k);
    }
    replayed = run.lanes_replayed;
  }
  return replayed;
}

TEST(ReplayKernelSynthetic, FifoReplacement) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.replacement = mem::Replacement::kFifo;
  expect_synth_identity(synth_capture(), l2);
}

TEST(ReplayKernelSynthetic, WriteThroughNoAllocate) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.write_policy = mem::WritePolicy::kWriteThroughNoAllocate;
  expect_synth_identity(synth_capture(), l2);
}

// The trickiest interaction: a no-allocate write miss must count as a
// miss WITHOUT consuming a victim draw, or every later kRandom victim of
// that client shifts.
TEST(ReplayKernelSynthetic, RandomReplacementWithNoAllocate) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.replacement = mem::Replacement::kRandom;
  l2.write_policy = mem::WritePolicy::kWriteThroughNoAllocate;
  expect_synth_identity(synth_capture(), l2);
}

// Captures recorded at a different line size than the replay L2 rescale
// line indices on both engines identically.
TEST(ReplayKernelSynthetic, LineBytesRescale) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  expect_synth_identity(synth_capture(/*line_bytes=*/128), l2);
}

// Every lane above spans hundreds of lines in at most 8 sets x 4 ways,
// so it evicts and replays. The capture below spans a few lines, so most
// lanes never evict and take their stream's first-touch counts instead.

/// A stream over a few `lines`: first one write to every other line (so
/// under write-through-no-allocate those lines miss before their first
/// read), then LCG-drawn accesses as in synth_stream. Lines from index
/// `readable` on are only ever written, so no-allocate never caches them.
ClientTrace span_stream(mem::ClientId client, std::uint64_t seed,
                        const std::vector<std::uint64_t>& lines,
                        std::size_t readable,
                        const std::vector<TaskId>& issuers) {
  ClientTrace t(client);
  for (std::size_t i = 0; i < lines.size(); i += 2)
    t.append(lines[i], AccessType::kWrite, false, issuers[i % issuers.size()]);
  std::uint64_t x = seed;
  for (int i = 0; i < 1500; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t k = (x >> 33) % lines.size();
    const bool write = k >= readable || ((x >> 13) & 3) == 0;
    t.append(lines[k], write ? AccessType::kWrite : AccessType::kRead,
             ((x >> 21) & 15) == 0, issuers[(x >> 5) % issuers.size()]);
  }
  return t;
}

std::vector<std::uint64_t> line_range(std::uint64_t n) {
  std::vector<std::uint64_t> lines(n);
  for (std::uint64_t i = 0; i < n; ++i) lines[i] = i;
  return lines;
}

/// Lanes of synth_plan's 64-set total index a line by (line % 64) % sets.
/// At 4 ways and kSpanSizes:
///  * task 0 reads lines 0..11: its fullest set holds 12, 6, 4, 3, 3, 2
///    lines, so it evicts at 1 and 2 sets only (3 sets: exactly `ways`);
///  * task 1 reads lines 0..12: 13, 7, 5, 4, 3, 2, evicting at 1, 2 and
///    3 sets (3 sets: `ways + 1`; 4 sets: exactly `ways`);
///  * buffer 7 reads lines 0, 64, 128, 192 and only writes 256, all in
///    set 0 at every size: 5 lines evict everywhere under
///    write-allocate, while under no-allocate 4 resident lines never do.
CaptureRun span_capture(std::uint32_t line_bytes = 64) {
  CaptureRun c;
  c.trace.line_bytes = line_bytes;
  c.trace.streams.push_back(
      span_stream(mem::ClientId::task(0), 11, line_range(12), 12, {0}));
  c.trace.streams.push_back(
      span_stream(mem::ClientId::task(1), 22, line_range(13), 13, {1}));
  c.trace.streams.push_back(span_stream(mem::ClientId::buffer(7), 33,
                                        {0, 64, 128, 192, 256}, 4,
                                        {0, 1, 99}));
  c.tasks = {{0, "t0", 1000, 5000, 800}, {1, "t1", 900, 4000, 700}};
  return c;
}

const std::vector<std::uint32_t> kSpanSizes = {1, 2, 3, 4, 5, 8};
constexpr std::size_t kSpanLanes = 3 * 6;
constexpr std::size_t kSpanEvictingAllocate = 2 + 3 + 6;
constexpr std::size_t kSpanEvictingNoAllocate = 2 + 3 + 0;

mem::CacheConfig span_l2(mem::Replacement replacement,
                         mem::WritePolicy write_policy) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.replacement = replacement;
  l2.write_policy = write_policy;
  return l2;
}

TEST(ReplayKernelFirstTouch, EvictingLanesReplayTheRestTakeFirstTouches) {
  const CaptureRun c = span_capture();
  for (const mem::Replacement r :
       {mem::Replacement::kLru, mem::Replacement::kFifo,
        mem::Replacement::kRandom}) {
    const mem::CacheConfig allocate =
        span_l2(r, mem::WritePolicy::kWriteBackAllocate);
    EXPECT_EQ(expect_synth_identity(c, allocate, kSpanSizes),
              kSpanEvictingAllocate)
        << allocate.to_string();
    const mem::CacheConfig no_allocate =
        span_l2(r, mem::WritePolicy::kWriteThroughNoAllocate);
    EXPECT_EQ(expect_synth_identity(c, no_allocate, kSpanSizes),
              kSpanEvictingNoAllocate)
        << no_allocate.to_string() << " no-allocate";
  }
}

// A capture at another line size than the L2's indexes lanes by the
// captured line but tags by the L2's, so its first touches differ per
// lane: every lane replays.
TEST(ReplayKernelFirstTouch, RescaledCaptureReplaysEveryLane) {
  const CaptureRun c = span_capture(/*line_bytes=*/128);
  EXPECT_EQ(expect_synth_identity(
                c,
                span_l2(mem::Replacement::kLru,
                        mem::WritePolicy::kWriteBackAllocate),
                kSpanSizes),
            kSpanLanes);
}

TEST(ReplayKernelSynthetic, UnplannedClientThrows) {
  const CaptureRun c = synth_capture();
  auto plan = std::make_shared<PartitionPlan>(*synth_plan(c, 2));
  plan->entries.pop_back();  // drop the buffer stream's entry
  const mem::CacheConfig l2;
  std::vector<ReplayGridPoint> points = {{plan, 2, 0}};
  EXPECT_THROW(MultiReplay(c, points, l2, kSeed, ReplayKernel::kScalar),
               std::invalid_argument);
  EXPECT_THROW(replay_fragment(c, *plan, l2, kSeed, 2, 0, kSurcharge),
               std::invalid_argument);
}

// ---- runtime dispatch ----

TEST(ReplayKernelDispatch, ResolveRules) {
  // Fixed points: scalar and the legacy per-size engine resolve to
  // themselves regardless of the host.
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kScalar),
            ReplayKernel::kScalar);
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kPerSize),
            ReplayKernel::kPerSize);

  const bool avx2 = have_avx2_kernel() && common::simd_has(common::kSimdAvx2);
  const bool sse4 = have_sse4_kernel() &&
                    common::simd_has(common::kSimdSse41 | common::kSimdSse42);

  // Auto picks the widest available ISA.
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kAuto),
            avx2 ? ReplayKernel::kAvx2
                 : sse4 ? ReplayKernel::kSse4 : ReplayKernel::kScalar);

  // Explicit SIMD requests degrade to scalar (never sideways to another
  // ISA) when the build or CPU lacks them.
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kAvx2),
            avx2 ? ReplayKernel::kAvx2 : ReplayKernel::kScalar);
  EXPECT_EQ(resolve_replay_kernel(ReplayKernel::kSse4),
            sse4 ? ReplayKernel::kSse4 : ReplayKernel::kScalar);
}

TEST(ReplayKernelDispatch, KernelNames) {
  EXPECT_STREQ(to_string(ReplayKernel::kAuto), "auto");
  EXPECT_STREQ(to_string(ReplayKernel::kScalar), "scalar");
  EXPECT_STREQ(to_string(ReplayKernel::kSse4), "sse4");
  EXPECT_STREQ(to_string(ReplayKernel::kAvx2), "avx2");
  EXPECT_STREQ(to_string(ReplayKernel::kPerSize), "persize");
}

TEST(ReplayKernelDispatch, MultiReplayNeverRunsPerSize) {
  const CaptureRun c = synth_capture();
  std::vector<ReplayGridPoint> points = {{synth_plan(c, 2), 2, 0}};
  const MultiReplay mr(c, std::move(points), mem::CacheConfig(), kSeed,
                       ReplayKernel::kPerSize);
  EXPECT_EQ(mr.kernel(), ReplayKernel::kScalar);
}

}  // namespace
}  // namespace cms::opt
