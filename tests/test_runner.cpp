// Campaign runner tests: submission-order results, determinism of the
// parallel profiling sweep against the serial one (thread counts 1/2/8),
// fragment folding, error propagation, and rejection of apps whose shared
// buffers overlap.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/runner.hpp"

namespace cms::core {
namespace {

ExperimentConfig tiny_experiment(unsigned jobs) {
  ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 32 * 1024;
  cfg.profile_grid = {1, 2, 4, 8};
  cfg.profile_runs = 2;  // >1 so per-point stats see several samples
  cfg.jobs = jobs;
  return cfg;
}

AppFactory tiny_m2v() {
  return [] { return apps::make_m2v_app(apps::AppConfig::tiny(7)); };
}

TEST(Campaign, ResolvesWorkerCount) {
  EXPECT_EQ(Campaign::resolve_jobs(3), 3u);
  EXPECT_GE(Campaign::resolve_jobs(0), 1u);  // hardware concurrency
}

TEST(Campaign, ResultsInSubmissionOrder) {
  Experiment exp(tiny_m2v(), tiny_experiment(1));
  Campaign camp(4);
  // Heavier job first, lighter second: completion order likely inverts
  // submission order, results must not.
  SimJob heavy = exp.shared_job(0);
  heavy.label = "heavy";
  SimJob light = exp.shared_job(1);
  light.label = "light";
  EXPECT_EQ(camp.add(heavy), 0u);
  EXPECT_EQ(camp.add(light), 1u);
  EXPECT_EQ(camp.size(), 2u);

  const auto results = camp.run_all();
  EXPECT_EQ(camp.size(), 0u);  // queue drained
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].index, 0u);
  EXPECT_EQ(results[0].label, "heavy");
  EXPECT_EQ(results[1].index, 1u);
  EXPECT_EQ(results[1].label, "light");
  EXPECT_GE(results[0].wall_ms, 0.0);
  EXPECT_GT(results[0].output.results.l2_accesses, 0u);
}

TEST(Campaign, ExecuteJobMatchesExperimentRun) {
  Experiment exp(tiny_m2v(), tiny_experiment(1));
  const RunOutput direct = exp.run_shared();
  const RunOutput via_job = execute_job(exp.shared_job(0));
  EXPECT_EQ(direct.results.l2_misses, via_job.results.l2_misses);
  EXPECT_EQ(direct.results.makespan, via_job.results.makespan);
  EXPECT_EQ(direct.verified, via_job.verified);
}

TEST(Campaign, ParallelProfileBitIdenticalToSerial) {
  const opt::MissProfile serial =
      Experiment(tiny_m2v(), tiny_experiment(1)).profile();
  ASSERT_FALSE(serial.task_names().empty());
  for (const unsigned jobs : {2u, 8u}) {
    const opt::MissProfile parallel =
        Experiment(tiny_m2v(), tiny_experiment(jobs)).profile();
    EXPECT_TRUE(parallel.identical(serial)) << jobs << " workers";
  }
}

TEST(Campaign, HardwareConcurrencyProfileBitIdentical) {
  const opt::MissProfile serial =
      Experiment(tiny_m2v(), tiny_experiment(1)).profile();
  const opt::MissProfile parallel =
      Experiment(tiny_m2v(), tiny_experiment(0)).profile();
  EXPECT_TRUE(parallel.identical(serial));
}

TEST(Campaign, WorkerExceptionsPropagate) {
  Campaign camp(2);
  Experiment exp(tiny_m2v(), tiny_experiment(1));
  camp.add(exp.shared_job(0));
  SimJob bad = exp.shared_job(0);
  bad.factory = []() -> apps::Application {
    throw std::runtime_error("factory failed");
  };
  camp.add(bad);
  EXPECT_THROW(camp.run_all(), std::runtime_error);
}

TEST(Campaign, OverlappingSharedBuffersAreRejected) {
  // Two shared buffers on the same bytes: the second cannot be
  // registered, so its L2 accesses would be attributed to the issuing
  // task. execute_job must refuse the app in every build type.
  const AppFactory overlapping = [] {
    apps::Application app = apps::make_m2v_app(apps::AppConfig::tiny(7));
    // Rewind the allocator onto the first registered buffer.
    app.net->space() = sim::AddressSpace(app.net->buffers().front().base);
    app.net->make_segment("overlap", 4096);
    return app;
  };
  const Experiment exp(overlapping, tiny_experiment(1));
  try {
    exp.run_shared();
    FAIL() << "overlapping buffers accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'overlap'"), std::string::npos)
        << e.what();
  }
}

TEST(ProfileFragments, FoldIsCompletionOrderIndependent) {
  // Three fragments with distinct per-order samples, folded in two
  // different arrival orders, must produce bitwise-equal profiles.
  std::vector<opt::ProfileFragment> a(3), b(3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    opt::ProfileFragment frag;
    frag.order = i;
    frag.add("t", 4, 100.0 + static_cast<double>(i) * 3.3, 10.0, 5.0);
    a[i] = frag;
    b[2 - i] = frag;  // reversed arrival
  }
  const opt::MissProfile pa = opt::fold_fragments(a);
  const opt::MissProfile pb = opt::fold_fragments(b);
  EXPECT_TRUE(pa.identical(pb));
  EXPECT_EQ(pa.curve("t").at(4).misses.count(), 3u);
}

TEST(Experiment, ProfileJobsDescribeCanonicalSweep) {
  const ExperimentConfig cfg = tiny_experiment(1);
  Experiment exp(tiny_m2v(), cfg);
  const auto sweep = exp.profile_jobs();
  ASSERT_EQ(sweep.size(), cfg.profile_grid.size() * cfg.profile_runs);
  std::size_t i = 0;
  for (const std::uint32_t sets : cfg.profile_grid)
    for (std::uint32_t r = 0; r < cfg.profile_runs; ++r, ++i) {
      EXPECT_EQ(sweep[i].sets, sets);
      EXPECT_EQ(sweep[i].run, r);
      EXPECT_EQ(sweep[i].job.jitter, r);
      ASSERT_NE(sweep[i].job.plan, nullptr);
    }
}

}  // namespace
}  // namespace cms::core
