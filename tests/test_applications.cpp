// Tests for the application factories' content memo: each AppConfig's
// content is encoded once per process and shared by every Application
// built from it, without changing the network around it or weakening the
// output oracle verify() applies.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "mem/partitioned_cache.hpp"
#include "sim/engine.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"

namespace cms::apps {
namespace {

/// One shared-L2 run of `app` on the paper's platform, wired as
/// core::execute_job wires it; true when the run did not deadlock.
bool simulate(Application& app) {
  sim::PlatformConfig pc = sim::cake_platform();
  pc.rt_data = app.rt_data;
  pc.rt_bss = app.rt_bss;
  sim::Platform platform(pc);
  mem::PartitionedCache& l2 = platform.hierarchy().l2();
  for (const auto& b : app.net->buffers())
    l2.interval_table().add(b.base, b.footprint, b.id);
  l2.set_partitioning_enabled(false);
  sim::Os os(sim::SchedPolicy::kMigrating, pc.hier.num_procs);
  sim::TimingEngine engine(platform, os, app.net->tasks());
  return !engine.run().deadlocked;
}

using TaskList = std::vector<std::pair<TaskId, std::string>>;
using BufferList = std::vector<std::tuple<std::string, Addr, std::uint64_t>>;

TaskList task_list(const Application& app) {
  TaskList out;
  for (const auto& p : app.net->processes()) out.emplace_back(p->id(), p->name());
  return out;
}

BufferList buffer_list(const Application& app) {
  BufferList out;
  for (const auto& b : app.net->buffers())
    out.emplace_back(b.name, b.base, b.footprint);
  return out;
}

TEST(ContentMemo, OneAppConfigSharesOneContent) {
  const AppConfig cfg = AppConfig::tiny(9101);
  const Application a = make_jpeg_canny_app(cfg);
  const Application b = make_jpeg_canny_app(cfg);
  ASSERT_NE(a.jpeg_canny, nullptr);
  EXPECT_EQ(a.jpeg_canny.get(), b.jpeg_canny.get());
  const Application m = make_m2v_app(cfg);
  const Application n = make_m2v_app(cfg);
  ASSERT_NE(m.mpeg2, nullptr);
  EXPECT_EQ(m.mpeg2.get(), n.mpeg2.get());
  // A phased app's units draw on the same memo.
  const Application both = make_mix_app(AppMix::kBoth, cfg);
  ASSERT_EQ(both.phases.size(), 1u);
  EXPECT_EQ(both.phases[0]->jpeg_canny.get(), a.jpeg_canny.get());
  EXPECT_EQ(both.phases[0]->mpeg2.get(), m.mpeg2.get());

  // A different seed, or the same seed at a different size, is a
  // different content with its own object.
  const Application other_seed = make_jpeg_canny_app(AppConfig::tiny(9102));
  EXPECT_NE(other_seed.jpeg_canny.get(), a.jpeg_canny.get());
  AppConfig wider = cfg;
  wider.jpeg1_width = 64;
  wider.m2v_width = 64;
  const Application w = make_jpeg_canny_app(wider);
  EXPECT_NE(w.jpeg_canny.get(), a.jpeg_canny.get());
  EXPECT_EQ(w.jpeg_canny->jpeg1.width(), 64);
  EXPECT_EQ(a.jpeg_canny->jpeg1.width(), cfg.jpeg1_width);
  const Application wm = make_m2v_app(wider);
  EXPECT_NE(wm.mpeg2.get(), m.mpeg2.get());
  EXPECT_EQ(wm.mpeg2->stream.width, 64);
  EXPECT_EQ(m.mpeg2->stream.width, cfg.m2v_width);
}

TEST(ContentMemo, ConcurrentBuildsOfOneContentEncodeItOnce) {
  // The seed is also in the memo at another size, so only a key that
  // compares every field hands these threads the right content.
  const Application smaller = make_jpeg_canny_app(AppConfig::tiny(9201));
  AppConfig cfg = AppConfig::tiny(9201);
  cfg.jpeg1_width = 64;
  cfg.m2v_height = 48;

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const JpegCannyContent>> jc(kThreads);
  std::vector<std::shared_ptr<const Mpeg2Content>> mc(kThreads);
  std::vector<int> verified(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      Application app1 = make_jpeg_canny_app(cfg);
      Application app2 = make_m2v_app(cfg);
      jc[t] = app1.jpeg_canny;
      mc[t] = app2.mpeg2;
      verified[t] = simulate(app1) && app1.verify() && simulate(app2) &&
                    app2.verify();
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(jc[t], jc[0]) << "thread " << t;
    EXPECT_EQ(mc[t], mc[0]) << "thread " << t;
    EXPECT_TRUE(verified[t]) << "thread " << t;
  }
  EXPECT_NE(jc[0], smaller.jpeg_canny);
  EXPECT_EQ(jc[0]->jpeg1.width(), 64);
  EXPECT_EQ(mc[0]->stream.height, 48);
}

TEST(ContentMemo, EvictionRebuildsTheSameNetwork) {
  AppConfig cfg = AppConfig::tiny(9301);
  Application first = make_jpeg_canny_app(cfg);
  Application first_m2v = make_m2v_app(cfg);

  // More distinct contents than the memo holds, all with the same seed.
  for (std::size_t k = 1; k <= kContentMemoCapacity; ++k) {
    AppConfig next = cfg;
    next.canny_height = cfg.canny_height + 8 * static_cast<int>(k);
    next.m2v_frames = cfg.m2v_frames + static_cast<int>(k);
    const Application jpeg = make_jpeg_canny_app(next);
    const Application m2v = make_m2v_app(next);
    EXPECT_NE(jpeg.jpeg_canny.get(), first.jpeg_canny.get()) << k;
    EXPECT_NE(m2v.mpeg2.get(), first_m2v.mpeg2.get()) << k;
    EXPECT_EQ(m2v.mpeg2->stream.num_frames, next.m2v_frames) << k;
  }

  // The first content was evicted, so the rebuild encodes it afresh,
  // around the same network.
  Application again = make_jpeg_canny_app(cfg);
  Application again_m2v = make_m2v_app(cfg);
  EXPECT_NE(again.jpeg_canny.get(), first.jpeg_canny.get());
  EXPECT_NE(again_m2v.mpeg2.get(), first_m2v.mpeg2.get());
  EXPECT_EQ(task_list(again), task_list(first));
  EXPECT_EQ(buffer_list(again), buffer_list(first));
  EXPECT_EQ(task_list(again_m2v), task_list(first_m2v));
  EXPECT_EQ(buffer_list(again_m2v), buffer_list(first_m2v));
  ASSERT_TRUE(simulate(again));
  EXPECT_TRUE(again.verify());
  ASSERT_TRUE(simulate(again_m2v));
  EXPECT_TRUE(again_m2v.verify());

  // Eviction dropped only the memo's reference: the apps built before it
  // still hold their content and run on it.
  ASSERT_TRUE(simulate(first));
  EXPECT_TRUE(first.verify());
  ASSERT_TRUE(simulate(first_m2v));
  EXPECT_TRUE(first_m2v.verify());
}

/// Flips one byte of `bytes`, checks that verify() notices, and restores
/// it.
void expect_flip_fails(Application& app, std::vector<std::uint8_t>& bytes,
                       const char* what) {
  ASSERT_FALSE(bytes.empty()) << what;
  const std::size_t at = bytes.size() / 2;
  bytes[at] ^= 0x01;
  EXPECT_FALSE(app.verify()) << what;
  bytes[at] ^= 0x01;
  EXPECT_TRUE(app.verify()) << what;
}

TEST(ContentMemo, VerifyComparesEachOutputWithItsOracle) {
  const AppConfig cfg = AppConfig::tiny(9401);
  Application jpeg = make_jpeg_canny_app(cfg);
  ASSERT_TRUE(simulate(jpeg));
  ASSERT_TRUE(jpeg.verify());
  expect_flip_fails(jpeg, jpeg.jpeg_pipe1.output->host_data(), "jpeg1");
  expect_flip_fails(jpeg, jpeg.jpeg_pipe2.output->host_data(), "jpeg2");
  expect_flip_fails(jpeg, jpeg.canny_pipe.output->host_data(), "canny");

  Application m2v = make_m2v_app(cfg);
  ASSERT_TRUE(simulate(m2v));
  ASSERT_TRUE(m2v.verify());
  auto& frames = m2v.m2v_pipe.output->frames();
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(cfg.m2v_frames));
  expect_flip_fails(m2v, frames.back(), "mpeg2 frame");
}

}  // namespace
}  // namespace cms::apps
