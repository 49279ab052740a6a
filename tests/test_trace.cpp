// Tests for the trace-capture-and-replay profiler (opt/trace.hpp):
// encode/decode round trips, the bit-identity of replay vs full
// simulation, and campaign determinism of replay jobs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "common/serialize.hpp"
#include "core/scenario.hpp"
#include "opt/trace.hpp"

namespace cms::opt {
namespace {

TEST(ClientTrace, RoundTripsEvents) {
  ClientTrace t(mem::ClientId::task(3));
  const std::vector<TraceEvent> events = {
      {100, AccessType::kRead, false, 3},
      {101, AccessType::kWrite, false, 3},
      {90, AccessType::kRead, false, 3},      // negative delta
      {90, AccessType::kWrite, true, 5},      // writeback, issuer change
      {1u << 20, AccessType::kRead, false, 5},  // large forward jump
      {0, AccessType::kRead, false, 7},       // large backward jump
  };
  for (const auto& e : events) t.append(e.line_index, e.type, e.l1_writeback, e.task);
  EXPECT_EQ(t.events(), events.size());

  auto rd = t.reader();
  TraceEvent ev;
  for (const auto& want : events) {
    ASSERT_TRUE(rd.next(ev));
    EXPECT_EQ(ev.line_index, want.line_index);
    EXPECT_EQ(ev.type, want.type);
    EXPECT_EQ(ev.l1_writeback, want.l1_writeback);
    EXPECT_EQ(ev.task, want.task);
    EXPECT_EQ(t.lines()[ev.line_id], want.line_index);
  }
  EXPECT_FALSE(rd.next(ev));
  EXPECT_EQ(t.lines().size(), 5u);  // line 90 is stored once
}

// Format 2 stores each distinct line once, as a zigzag delta from the
// line before it (1 byte in a sweep), and each event by its line's id: 1
// byte for ids below 16, 2 bytes below 2^11, plus the issuer when it
// changes. A first-touch sweep therefore costs about 3 bytes per event,
// and re-reading a stream's lines at most 2 once it has fewer than 2^11.
TEST(ClientTrace, EncodedSizePerEvent) {
  constexpr std::uint64_t kLines = (1u << 11) - 1;
  ClientTrace seq(mem::ClientId::buffer(1));
  for (std::uint64_t i = 0; i < kLines; ++i)
    seq.append(500 + i, AccessType::kRead, false, 2);
  CaptureRun c;
  c.trace.streams.push_back(seq);
  // 40 bytes cover the file's header, counts and trailer.
  EXPECT_LE(encode_capture(c, "").size(), 3 * kLines + 40);

  const std::size_t swept = seq.encoded_bytes();
  for (std::uint64_t i = 0; i < kLines; ++i)
    seq.append(500 + (i * 7) % kLines, AccessType::kWrite, i % 3 == 0, 2);
  EXPECT_EQ(seq.lines().size(), kLines);
  EXPECT_LE(seq.encoded_bytes() - swept, 2 * kLines);
}

TEST(ClientTrace, ReaderIsRestartable) {
  ClientTrace t(mem::ClientId::task(0));
  t.append(42, AccessType::kWrite, false, 0);
  for (int round = 0; round < 2; ++round) {
    auto rd = t.reader();
    TraceEvent ev;
    ASSERT_TRUE(rd.next(ev));
    EXPECT_EQ(ev.line_index, 42u);
    EXPECT_EQ(ev.type, AccessType::kWrite);
    EXPECT_FALSE(rd.next(ev));
  }
}

/// Varints `values` as raw stream bytes.
std::vector<std::uint8_t> varints(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t v : values) serialize::put_varint(bytes, v);
  return bytes;
}

// The reader rejects, with std::runtime_error, bytes that end mid-varint,
// a varint longer than 10 bytes, a line id beyond the stream's lines and
// an issuer beyond 32 bits.
TEST(ClientTrace, ReaderRejectsCorruptEncodings) {
  const std::vector<std::uint64_t> lines = {7, 3, 1u << 20, 12, 13, 14, 15,
                                            16, 17, 18, 19, 20, 21, 22,
                                            23, 24, 25, 26};
  std::vector<std::uint8_t> truncated = varints({17 << 3});  // 2 bytes
  ASSERT_EQ(truncated.size(), 2u);
  truncated.pop_back();
  const std::vector<std::uint8_t> overlong(11, 0x80);
  const std::vector<std::uint8_t> beyond = varints({18 << 3});
  const std::vector<std::uint8_t> wide_issuer =
      varints({1 << 3 | 4, std::uint64_t{1} << 32});
  for (const std::vector<std::uint8_t>& bytes :
       {truncated, overlong, beyond, wide_issuer}) {
    const ClientTrace bad =
        ClientTrace::from_encoded(mem::ClientId::task(0), 1, lines, bytes);
    auto rd = bad.reader();
    TraceEvent ev;
    EXPECT_THROW(rd.next(ev), std::runtime_error);
  }
  // The largest issuer and the last id still read.
  const ClientTrace good = ClientTrace::from_encoded(
      mem::ClientId::task(0), 1, lines, varints({17 << 3 | 4, 0xFFFFFFFFull}));
  auto rd = good.reader();
  TraceEvent ev;
  ASSERT_TRUE(rd.next(ev));
  EXPECT_EQ(ev.line_index, 26u);
  EXPECT_EQ(ev.line_id, 17u);
  EXPECT_EQ(ev.task, kInvalidTask);
}

// Only a recording stream holds the encoder's line -> id map: a stream
// rebuilt from its bytes or handed out by the recorder is sealed.
TEST(ClientTrace, SealedStreamsRefuseAppends) {
  ClientTrace t(mem::ClientId::task(0));
  t.append(42, AccessType::kRead, false, 0);
  ClientTrace copy =
      ClientTrace::from_encoded(t.client(), t.events(), t.lines(), t.encoded());
  EXPECT_THROW(copy.append(43, AccessType::kRead, false, 0), std::logic_error);
  TraceRecorder rec(64);
  rec.on_l2_access({mem::ClientId::task(0), 0, 0x100 * 64, AccessType::kRead,
                    false});
  AccessTrace trace = rec.take();
  EXPECT_THROW(trace.streams[0].append(1, AccessType::kRead, false, 0),
               std::logic_error);
  t.seal();
  EXPECT_THROW(t.append(43, AccessType::kRead, false, 0), std::logic_error);
}

TEST(TraceRecorder, GroupsByClientAndSorts) {
  TraceRecorder rec(64);
  rec.on_l2_access({mem::ClientId::buffer(2), 0, 0x100 * 64, AccessType::kRead, false});
  rec.on_l2_access({mem::ClientId::task(1), 1, 0x200 * 64, AccessType::kWrite, false});
  rec.on_l2_access({mem::ClientId::buffer(2), 0, 0x101 * 64, AccessType::kRead, false});
  rec.on_l2_access({mem::ClientId::task(0), 0, 0x300 * 64, AccessType::kRead, true});

  const AccessTrace trace = rec.take();
  EXPECT_EQ(trace.streams.size(), 3u);
  EXPECT_EQ(trace.total_events(), 4u);
  // Sorted: tasks (kind 1) before buffers (kind 2), ids ascending.
  EXPECT_EQ(trace.streams[0].client(), mem::ClientId::task(0));
  EXPECT_EQ(trace.streams[1].client(), mem::ClientId::task(1));
  EXPECT_EQ(trace.streams[2].client(), mem::ClientId::buffer(2));

  const ClientTrace* buf = trace.find(mem::ClientId::buffer(2));
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->events(), 2u);
  auto rd = buf->reader();
  TraceEvent ev;
  ASSERT_TRUE(rd.next(ev));
  EXPECT_EQ(ev.line_index, 0x100u);
  ASSERT_TRUE(rd.next(ev));
  EXPECT_EQ(ev.line_index, 0x101u);
  EXPECT_EQ(trace.find(mem::ClientId::buffer(9)), nullptr);

  // take() leaves the recorder empty for reuse.
  EXPECT_EQ(rec.take().streams.size(), 0u);
}

TEST(ReplayProfile, BitIdenticalToFullSimOnTinyScenarios) {
  for (const char* name :
       {"mpeg2-tiny", "jpeg-canny-tiny", "mpeg2-tiny-rand"}) {
    const auto exp = core::scenarios().make_experiment(name);
    const MissProfile full = exp.profile_reference();
    const MissProfile replay = exp.profile();
    EXPECT_TRUE(full.identical(replay)) << name;
    // Every grid size of every task is covered.
    for (const auto& [id, task] : exp.tasks())
      EXPECT_EQ(replay.sizes(task).size(),
                exp.config().profile_grid.size())
          << name << "/" << task;
  }
}

TEST(ReplayProfile, BitIdenticalAcrossJitterRuns) {
  // profile_runs > 1: one capture per jitter seed feeds the replays.
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 32 * 1024;
  cfg.profile_grid = {1, 4, 16};
  cfg.profile_runs = 3;
  const core::Experiment exp(
      [] { return apps::make_m2v_app(apps::AppConfig::tiny(11)); }, cfg);
  const MissProfile full = exp.profile_reference();
  const MissProfile replay = exp.profile();
  EXPECT_TRUE(full.identical(replay));
  // Sanity: the statistics really pool several runs.
  const auto tasks = exp.tasks();
  ASSERT_FALSE(tasks.empty());
  EXPECT_EQ(full.curve(tasks.front().second).at(4).misses.count(), 3u);
}

TEST(ReplayProfile, CampaignDeterministicAcrossWorkerCounts) {
  const auto profile_at = [](unsigned workers) {
    return core::scenarios().make_experiment("mpeg2-tiny", workers).profile();
  };
  const MissProfile serial = profile_at(1);
  for (const unsigned workers : {2u, 8u})
    EXPECT_TRUE(serial.identical(profile_at(workers)))
        << workers << " workers";
}

TEST(ReplayProfile, SerialDriverMatchesExperimentOrchestration) {
  const auto exp = core::scenarios().make_experiment("jpeg-canny-tiny");
  const std::vector<CaptureRun> captures = exp.capture_runs();
  ASSERT_EQ(captures.size(), 1u);  // tiny scenarios use one jitter run
  EXPECT_GT(captures.front().trace.total_events(), 0u);
  const MissProfile serial = replay_profile_reference(
      exp.multi_replay_jobs(captures), exp.config().platform.hier.l2,
      exp.config().platform.hier.l2_seed(),
      miss_surcharge(exp.config().platform.hier));
  EXPECT_TRUE(serial.identical(exp.profile()));
}

TEST(ReplayProfile, RandomReplacementReplaysBitIdentically) {
  // kRandom is replayable because SetAssocCache draws counter-based
  // per-client randomness: the n-th victim of a client depends only on
  // (seed, client, n), so the captured stream pushed through a standalone
  // cache with the live L2's seed reproduces the exact victim sequence.
  // This pins replay == fullsim bit-identity — the regression guard for
  // the per-client RNG.
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 32 * 1024;
  cfg.platform.hier.l2.replacement = mem::Replacement::kRandom;
  cfg.profile_grid = {1, 4, 16};
  cfg.profile_runs = 2;
  const core::Experiment exp(
      [] { return apps::make_m2v_app(apps::AppConfig::tiny(3)); }, cfg);
  const MissProfile replay = exp.profile();
  const MissProfile full = exp.profile_reference();
  EXPECT_TRUE(full.identical(replay));
}

}  // namespace
}  // namespace cms::opt
