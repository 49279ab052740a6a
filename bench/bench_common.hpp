// Shared configuration of the benchmark harnesses that regenerate the
// paper's tables and figures.
//
// Scaling note: the paper evaluates on a 512 KB L2 with production-sized
// content (their MPEG2 footprint sits between 512 KB and 1 MB — doubling
// the shared L2 to 1 MB nearly matched the partitioned 512 KB). We use
// QCIF-class synthetic content, so the L2 is scaled to keep the
// footprint/capacity ratio in the same regime:
//  * application 1 (2x JPEG + Canny): QCIF content, 96 KB 4-way L2;
//  * application 2 (MPEG2): 128x96 content, 10 frames, 64 KB 4-way L2.
// Trends and ratios — who wins, by what factor, where the crossovers are —
// are the reproduction targets, not absolute miss counts.
#pragma once

#include <cstdio>
#include <memory>
#include <utility>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "opt/trace_store.hpp"

namespace cms::bench {

// Campaign flags shared with the examples; results are bit-identical for
// any --jobs value and with or without a --trace-dir store (store hits
// load the same captures a live run would record), so benches default to
// one serial worker for undisturbed timing and let the flags speed things
// up on demand.
using core::has_flag;
using core::parse_jobs;
using core::parse_store_l2;
using core::parse_store_l2_target;
using core::parse_string_flag;
using core::parse_trace_dir;
using core::parse_trace_mode;

/// The persistent capture store selected by --trace-dir / --trace (null
/// when absent or --trace=off). With --store-l2-dir DIR, --store-l2-dir
/// tcp://host:port or --store-l2 tcp://host:port the local dir becomes
/// the L1 of a tiered store over the shared far tier (a directory or a
/// blob_server daemon), so every bench can replay a fleet-shared capture
/// corpus.
inline std::shared_ptr<opt::TraceStore> parse_trace_store(int argc,
                                                          char** argv) {
  return core::open_trace_store(
      parse_trace_dir(argc, argv), parse_trace_mode(argc, argv),
      parse_store_l2_target(argc, argv), parse_store_l2(argc, argv));
}

inline apps::AppConfig app1_content() {
  apps::AppConfig cfg;  // QCIF defaults: 176x144 + 128x96 + 176x144
  cfg.jpeg_pictures = 4;
  cfg.canny_frames = 4;
  return cfg;
}

inline apps::AppConfig app2_content() {
  apps::AppConfig cfg;
  cfg.m2v_width = 128;
  cfg.m2v_height = 96;
  cfg.m2v_frames = 10;
  return cfg;
}

inline core::AppFactory app1_factory() {
  return [] { return apps::make_jpeg_canny_app(app1_content()); };
}

inline core::AppFactory app2_factory() {
  return [] { return apps::make_m2v_app(app2_content()); };
}

/// `jobs` = campaign workers used by Experiment::profile (see parse_jobs);
/// `store` = persistent capture store (see parse_trace_store). The
/// trace_key is always set, so attaching a store later also works.
inline core::ExperimentConfig app1_experiment(
    unsigned jobs = 1, std::shared_ptr<opt::TraceStore> store = nullptr) {
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 96 * 1024;
  cfg.profile_runs = 2;
  cfg.jobs = jobs;
  cfg.trace_store = std::move(store);
  cfg.trace_key = core::app_trace_key("bench-app1", app1_content());
  return cfg;
}

inline core::ExperimentConfig app2_experiment(
    unsigned jobs = 1, std::shared_ptr<opt::TraceStore> store = nullptr) {
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 64 * 1024;
  cfg.profile_runs = 2;
  cfg.jobs = jobs;
  cfg.trace_store = std::move(store);
  cfg.trace_key = core::app_trace_key("bench-app2", app2_content());
  return cfg;
}

inline void print_run_summary(const char* label, const core::RunOutput& out) {
  std::printf(
      "%-22s L2 misses %8llu / %8llu accesses (%.2f%%)  mean CPI %.3f  "
      "makespan %llu  %s%s\n",
      label, static_cast<unsigned long long>(out.results.l2_misses),
      static_cast<unsigned long long>(out.results.l2_accesses),
      100.0 * out.results.l2_miss_rate(), out.results.mean_cpi(),
      static_cast<unsigned long long>(out.results.makespan),
      out.verified ? "[verified]" : "[VERIFY FAILED]",
      out.results.deadlocked ? " [DEADLOCK]" : "");
}

}  // namespace cms::bench
