// Tests for the fused multi-size replay kernel (opt/replay_kernel.hpp):
// bit-identity of the fused replay against the reference sweep
// (opt::replay_profile_reference, one replay_fragment per grid point),
// over the built-in scenarios (LRU, counter-based kRandom, the dense
// 64-point grid) and at several campaign worker counts; synthetic
// captures pin the FIFO and write-through-no-allocate cache paths, the
// non-power-of-2 set counts the Lemire fast-mod handles, the refusal of
// captures at another line size, and the split between lanes that replay
// and lanes that take their stream's first-touch counts; and a
// differential fuzz replays a thousand random captures under every cache
// policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"

namespace cms::opt {
namespace {

// ---- built-in scenarios: the fused replay vs the reference sweep ----

MissProfile reference_profile(const core::Experiment& exp,
                              const std::vector<CaptureRun>& captures) {
  const auto& hier = exp.config().platform.hier;
  return replay_profile_reference(exp.multi_replay_jobs(captures), hier.l2,
                                  hier.l2_seed(), miss_surcharge(hier));
}

MissProfile fused_profile(const core::Experiment& exp,
                          const std::vector<CaptureRun>& captures) {
  const auto& hier = exp.config().platform.hier;
  return replay_profile_multi(exp.multi_replay_jobs(captures), hier.l2,
                              hier.l2_seed(), miss_surcharge(hier));
}

class ReplayKernelScenario : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayKernelScenario, FusedMatchesPerSizeReference) {
  const core::Experiment exp = core::scenarios().make_experiment(
      GetParam(), 1, core::ProfilerMode::kTraceReplay);
  const std::vector<CaptureRun> captures = exp.capture_runs();
  EXPECT_TRUE(reference_profile(exp, captures)
                  .identical(fused_profile(exp, captures)));
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

// The Experiment-level path: profile() shards the fused replay per
// stream on the campaign and folds serially, so it must match the
// reference sweep at every worker count.
TEST(ReplayKernelExperiment, WorkerCountInvariant) {
  for (const char* name : {"mpeg2-tiny-rand", "jpeg-canny-dense"}) {
    const core::Experiment serial = core::scenarios().make_experiment(
        name, 1, core::ProfilerMode::kTraceReplay);
    const MissProfile ref = reference_profile(serial, serial.capture_runs());
    for (const unsigned jobs : {1u, 2u, 8u}) {
      const core::Experiment exp = core::scenarios().make_experiment(
          name, jobs, core::ProfilerMode::kTraceReplay);
      EXPECT_TRUE(ref.identical(exp.profile())) << name << " jobs=" << jobs;
    }
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

std::vector<ReplayGridPoint> synth_points(
    const CaptureRun& c, const std::vector<std::uint32_t>& sizes) {
  std::vector<ReplayGridPoint> points;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    points.push_back({synth_plan(c, sizes[i]), sizes[i], i});
  return points;
}

MissProfile synth_reference(const CaptureRun& c, const mem::CacheConfig& l2,
                            const std::vector<std::uint32_t>& sizes) {
  return replay_profile_reference({{&c, synth_points(c, sizes)}}, l2, kSeed,
                                  kSurcharge);
}

struct FusedRun {
  MissProfile profile;
  std::size_t lanes = 0;
  std::size_t lanes_replayed = 0;
};

FusedRun synth_fused(const CaptureRun& c, const mem::CacheConfig& l2,
                     const std::vector<std::uint32_t>& sizes) {
  MultiReplay mr(c, synth_points(c, sizes), l2, kSeed);
  for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
  return {fold_fragments(mr.fragments(kSurcharge)), mr.lanes(),
          mr.lanes_replayed()};
}

/// The fused replay against the per-size reference. Returns the lanes it
/// replayed event by event.
std::size_t expect_synth_identity(
    const CaptureRun& c, const mem::CacheConfig& l2,
    const std::vector<std::uint32_t>& sizes = kSynthSizes) {
  const FusedRun run = synth_fused(c, l2, sizes);
  EXPECT_TRUE(synth_reference(c, l2, sizes).identical(run.profile))
      << "l2 " << l2.to_string();
  EXPECT_EQ(run.lanes, c.trace.streams.size() * sizes.size());
  return run.lanes_replayed;
}

/// A 16 KB, 4-way L2 with the given policies.
mem::CacheConfig span_l2(mem::Replacement replacement,
                         mem::WritePolicy write_policy) {
  mem::CacheConfig l2;
  l2.size_bytes = 16 * 1024;
  l2.ways = 4;
  l2.replacement = replacement;
  l2.write_policy = write_policy;
  return l2;
}

/// span_l2 under every replacement policy and both write policies.
std::vector<mem::CacheConfig> every_policy() {
  std::vector<mem::CacheConfig> out;
  for (const mem::Replacement r :
       {mem::Replacement::kLru, mem::Replacement::kFifo,
        mem::Replacement::kRandom})
    for (const mem::WritePolicy w :
         {mem::WritePolicy::kWriteBackAllocate,
          mem::WritePolicy::kWriteThroughNoAllocate})
      out.push_back(span_l2(r, w));
  return out;
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

// Captures are recorded at the L2's line size, and the trace digest
// hashes it, so the fused replay refuses a capture at any other.
TEST(ReplayKernelSynthetic, OtherLineSizeThrows) {
  for (const std::uint32_t line_bytes : {128u, 32u}) {
    const CaptureRun c = synth_capture(line_bytes);
    EXPECT_THROW(MultiReplay(c, synth_points(c, kSynthSizes),
                             mem::CacheConfig(), kSeed),
                 std::invalid_argument)
        << line_bytes << " B captured lines";
  }
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
CaptureRun span_capture() {
  CaptureRun c;
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
constexpr std::size_t kSpanEvictingAllocate = 2 + 3 + 6;
constexpr std::size_t kSpanEvictingNoAllocate = 2 + 3 + 0;


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

TEST(ReplayKernelSynthetic, UnplannedClientThrows) {
  const CaptureRun c = synth_capture();
  auto plan = std::make_shared<PartitionPlan>(*synth_plan(c, 2));
  plan->entries.pop_back();  // drop the buffer stream's entry
  const mem::CacheConfig l2;
  std::vector<ReplayGridPoint> points = {{plan, 2, 0}};
  EXPECT_THROW(MultiReplay(c, points, l2, kSeed), std::invalid_argument);
  EXPECT_THROW(replay_fragment(c, *plan, l2, kSeed, 2, 0, kSurcharge),
               std::invalid_argument);
}

// The one decode is bounds-checked like ClientTrace::Reader: a stream
// whose bytes end mid-event, or whose event names a line id beyond its
// dictionary, throws instead of reading past them.
TEST(ReplayKernelSynthetic, TruncatedStreamThrows) {
  CaptureRun c = synth_capture();
  const ClientTrace& whole = c.trace.streams[0];
  std::vector<std::uint8_t> bytes = whole.encoded();
  bytes.resize(bytes.size() / 2);
  c.trace.streams[0] = ClientTrace::from_encoded(
      whole.client(), whole.events(), whole.lines(), std::move(bytes));
  std::vector<ReplayGridPoint> points = {{synth_plan(c, 2), 2, 0}};
  MultiReplay mr(c, std::move(points), mem::CacheConfig(), kSeed);
  EXPECT_THROW(mr.replay_stream(0), std::runtime_error);
}

TEST(ReplayKernelSynthetic, LineIdBeyondTheDictionaryThrows) {
  CaptureRun c = synth_capture();
  const ClientTrace& whole = c.trace.streams[0];
  std::vector<std::uint64_t> lines = whole.lines();
  lines.pop_back();  // the last id now names no line
  c.trace.streams[0] = ClientTrace::from_encoded(
      whole.client(), whole.events(), std::move(lines), whole.encoded());
  std::vector<ReplayGridPoint> points = {{synth_plan(c, 2), 2, 0}};
  MultiReplay mr(c, std::move(points), mem::CacheConfig(), kSeed);
  EXPECT_THROW(mr.replay_stream(0), std::runtime_error);
}

// ---- differential fuzz: the fused replay against the reference ----
//
// Random small captures, each replayed under every replacement and write
// policy with its streams in a shuffled order, must fold to the reference
// sweep's profile bit for bit. A capture has task streams, shared buffers
// whose issuers interleave (among them 3 and 67, which share a bucket of
// the decode's task-slot cache, and 99, which is not in the task table),
// and a scheduler buffer whose misses count for no task. Lines come off a
// recency stack with a per-stream reuse depth, so some streams mostly hit
// and others thrash.

/// A stream over `pool`: each access takes the pool's next unused line
/// (a first touch) or re-touches one of the `depth` most recent lines.
/// Writes, reads and L1-writeback drains (writes) mix at a per-stream
/// rate; the issuer changes now and then among `issuers`.
ClientTrace fuzz_stream(Rng& rng, mem::ClientId client,
                        const std::vector<std::uint64_t>& pool,
                        const std::vector<TaskId>& issuers) {
  ClientTrace t(client);
  const std::uint64_t events = 20 + rng.below(200);
  const double fresh = 0.05 + 0.45 * rng.next_double();
  const std::uint64_t depth = std::uint64_t{1} << rng.below(7);
  const double writes = 0.5 * rng.next_double();
  std::vector<std::uint64_t> recent;  // most recent last
  std::size_t next = 0, issuer = 0;
  for (std::uint64_t e = 0; e < events; ++e) {
    std::uint64_t line = 0;
    if (next < pool.size() && (recent.empty() || rng.chance(fresh))) {
      line = pool[next++];
    } else {
      const auto it = recent.end() - 1 -
                      static_cast<std::ptrdiff_t>(rng.below(
                          std::min<std::uint64_t>(depth, recent.size())));
      line = *it;
      recent.erase(it);
    }
    recent.push_back(line);
    if (rng.chance(0.3)) issuer = rng.below(issuers.size());
    const bool writeback = rng.chance(0.1);
    const bool write = writeback || rng.chance(writes);
    t.append(line, write ? AccessType::kWrite : AccessType::kRead, writeback,
             issuers[issuer]);
  }
  return t;
}

/// 2 to 41 distinct lines in random order, contiguous or strided, now and
/// then straddling 2^32 (set_index's wide path).
std::vector<std::uint64_t> fuzz_pool(Rng& rng) {
  const std::uint64_t base = rng.chance(0.1)
                                 ? (std::uint64_t{1} << 32) - rng.below(32)
                                 : rng.below(1 << 16);
  const std::uint64_t stride = rng.chance(0.5) ? 1 : 1 + rng.below(8);
  std::vector<std::uint64_t> pool(2 + rng.below(40));
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = base + i * stride;
  for (std::size_t i = pool.size() - 1; i > 0; --i)
    std::swap(pool[i], pool[rng.below(i + 1)]);
  return pool;
}

CaptureRun fuzz_capture(Rng& rng) {
  CaptureRun c;
  // 130 % 64 == 2; 130 has no stream of its own and issues through the
  // buffers only.
  std::vector<TaskId> table = {0, 3};
  for (const TaskId id : {1, 67, 130})
    if (rng.chance(0.5)) table.push_back(id);
  for (const TaskId id : table) {
    c.tasks.push_back({id, "t" + std::to_string(id), 100 + rng.below(1000),
                       rng.below(5000), rng.below(5000)});
    if (id != 130)
      c.trace.streams.push_back(
          fuzz_stream(rng, mem::ClientId::task(id), fuzz_pool(rng), {id}));
  }
  const std::uint64_t buffers = 1 + rng.below(2);
  for (std::uint64_t b = 0; b < buffers; ++b)
    c.trace.streams.push_back(fuzz_stream(
        rng, mem::ClientId::buffer(static_cast<BufferId>(b)), fuzz_pool(rng),
        {3, 67, 99, table[rng.below(table.size())]}));
  const mem::ClientId sched = mem::ClientId::buffer(50);
  c.trace.streams.push_back(
      fuzz_stream(rng, sched, fuzz_pool(rng), {0, 3, kInvalidTask}));
  c.scheduler_clients.push_back(sched);
  std::sort(c.trace.streams.begin(), c.trace.streams.end(),
            [](const ClientTrace& a, const ClientTrace& b) {
              return a.client() < b.client();
            });
  return c;
}

/// Lines that ever become resident in `stream`: every line under
/// write-allocate, under no-allocate only the lines it reads.
std::vector<std::uint64_t> resident_lines(const ClientTrace& stream,
                                          bool write_allocate) {
  std::set<std::uint64_t> lines;
  auto rd = stream.reader();
  TraceEvent ev;
  while (rd.next(ev))
    if (write_allocate || ev.type == AccessType::kRead)
      lines.insert(ev.line_index);
  return {lines.begin(), lines.end()};
}

/// Most of `lines` any one set of a lane holds.
std::uint32_t fullest_set(const std::vector<std::uint64_t>& lines,
                          std::uint32_t total, std::uint32_t sets) {
  std::vector<std::uint32_t> count(sets, 0);
  std::uint32_t most = 0;
  for (const std::uint64_t line : lines)
    most = std::max(most, ++count[(line % total) % sets]);
  return most;
}

constexpr const char* kReplacementNames[] = {"LRU", "FIFO", "random"};

TEST(ReplayKernelFuzz, FusedMatchesReferenceOnRandomCaptures) {
  Rng rng(0xF0552EEDull);  // deterministic: any failure reproduces
  std::size_t lanes = 0, replayed = 0, at_ways = 0, past_ways = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t seed = rng.next_u64();
    Rng gen(seed);
    const CaptureRun c = fuzz_capture(gen);
    const std::uint32_t ways = 1 + static_cast<std::uint32_t>(gen.below(4));
    // 1 set, two random sizes (mostly not powers of 2), and the sizes at
    // which the first stream's lines fill its fullest set to about
    // `ways` and `ways + 1`: the edge between lanes that take first-touch
    // counts and lanes that replay. at_ways and past_ways below count the
    // lanes that land exactly on it.
    const auto first = static_cast<std::uint32_t>(
        resident_lines(c.trace.streams[0], true).size());
    const std::vector<std::uint32_t> sizes = {
        1, (first + ways - 1) / ways, (first + ways) / (ways + 1),
        2 + static_cast<std::uint32_t>(gen.below(23)),
        2 + static_cast<std::uint32_t>(gen.below(23))};
    std::vector<ReplayGridPoint> points;
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      auto plan = std::make_shared<PartitionPlan>(*synth_plan(c, sizes[p]));
      plan->total_sets =
          plan->used_sets + static_cast<std::uint32_t>(gen.below(sizes[p]));
      points.push_back({std::move(plan), sizes[p], p});
    }
    std::vector<std::vector<std::uint64_t>> resident[2];
    for (const ClientTrace& stream : c.trace.streams)
      for (const bool allocate : {false, true})
        resident[allocate].push_back(resident_lines(stream, allocate));

    for (mem::CacheConfig l2 : every_policy()) {
      l2.ways = ways;
      l2.size_bytes = 64 * l2.line_bytes * ways;
      const std::uint64_t l2_seed = gen.next_u64();
      const bool allocate =
          l2.write_policy == mem::WritePolicy::kWriteBackAllocate;
      MultiReplay mr(c, points, l2, l2_seed);
      std::vector<std::size_t> order(mr.num_streams());
      for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
      for (std::size_t s = order.size() - 1; s > 0; --s)
        std::swap(order[s], order[gen.below(s + 1)]);
      for (const std::size_t s : order) mr.replay_stream(s);
      const MissProfile fused = fold_fragments(mr.fragments(kSurcharge));
      const MissProfile ref = replay_profile_reference(
          {{&c, points}}, l2, l2_seed, kSurcharge);
      ASSERT_TRUE(ref.identical(fused))
          << "iteration " << i << ", " << ways << " ways, "
          << kReplacementNames[static_cast<int>(l2.replacement)] << ", "
          << (allocate ? "write-allocate" : "no-allocate") << ", seed 0x"
          << std::hex << seed;
      lanes += mr.lanes();
      replayed += mr.lanes_replayed();
      for (const ReplayGridPoint& p : points)
        for (const std::vector<std::uint64_t>& lines : resident[allocate]) {
          const std::uint32_t most =
              fullest_set(lines, p.plan->total_sets, p.sets);
          at_ways += most == ways;
          past_ways += most == ways + 1;
        }
    }
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_LT(replayed, lanes);
  EXPECT_GT(at_ways, 0u);
  EXPECT_GT(past_ways, 0u);
}

}  // namespace
}  // namespace cms::opt
