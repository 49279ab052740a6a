// The mode enums live in their own header so the lightweight CLI helpers
// (core/cli.hpp) can parse --trace / --store-l2 / --plan-cache without
// dragging the whole Experiment/sim stack into every bench and example TU.
#pragma once

#include <cstdint>

namespace cms::core {

/// Read by nothing: Experiment::profile() always captures and replays, and
/// Experiment::profile_reference() is the full-simulation oracle.
/// benchmark/src/pipeline.cpp still names this value and sets
/// ExperimentConfig::profiler, so both stay, next to the ReplayKernel
/// shims, until Benchmark v2 edits that file and deletes them.
enum class ProfilerMode : std::uint8_t { kTraceReplay };

/// Persistence of profiling captures (--trace=off|ro|rw + --trace-dir).
/// With a store attached, profiling consults it before capturing:
/// hits skip the instrumented simulation entirely, misses capture live
/// and (in kReadWrite) write back — capture once, replay across
/// processes and runs (opt/trace_store.hpp).
enum class TraceMode : std::uint8_t {
  kOff,        // no persistence: captures live and die with the process
  kReadOnly,   // serve store hits, never write (frozen CI stores)
  kReadWrite,  // serve hits, write back misses (the default with a dir)
};

/// Far tier of a two-level store (--store-l2=off|ro|rw + --store-l2-dir).
/// With an L2 attached, the local --trace-dir becomes the L1 of an
/// opt::TieredBackend: L1 misses read through to the L2 (hits promoted
/// into L1), writes go through to both tiers in kReadWrite, and every
/// L2 failure degrades to L1-only with a logged warning — a fleet then
/// captures each digest once GLOBALLY, not once per box.
enum class StoreL2Mode : std::uint8_t {
  kOff,        // no far tier: the local directory is the whole store
  kReadOnly,   // serve L2 hits, never write through (frozen shared tier)
  kReadWrite,  // read through and write through (the default with a dir)
};

/// Memoized plan cache of the planning service (--plan-cache=off|mem|disk
/// + --plan-cache-budget-bytes/-entries). A PlanResponse is a pure
/// function of its capture digests, grid and planner config, so warm
/// requests can skip pinning, capture, replay AND the MCKP solve
/// entirely (opt/plan_cache.hpp).
enum class PlanCacheMode : std::uint8_t {
  kOff,     // recompute every request (the pre-cache behavior)
  kMemory,  // tier 1 only: memoized within this process
  kDisk,    // tiers 1+2: .cmsplan entries in the trace-store dir survive
            // the process (read-only when the store is read-only)
};

}  // namespace cms::core
