// ReplayKernel lives in its own header so the lightweight CLI helpers
// (core/cli.hpp) can parse --replay-kernel without dragging the whole
// trace/replay stack into every bench and example TU (same reasoning as
// core/profiler_mode.hpp).
#pragma once

#include <cstdint>

namespace cms::opt {

/// Which replay engine executes the profiling sweep. Both are
/// BIT-IDENTICAL in output (misses, demand misses, reconstructed t_i);
/// they differ only in wall-clock. See opt/replay_kernel.hpp for the
/// fused-kernel contract.
enum class ReplayKernel : std::uint8_t {
  /// The fused multi-size replay (opt::MultiReplay): one decode per
  /// stream for the whole grid.
  kAuto,
  /// Legacy one-standalone-cache-per-grid-size loop (opt::replay_fragment)
  /// — one full pass over every trace PER SIZE. Kept as the independent
  /// reference implementation the fused replay is verified against.
  kPerSize,
};

inline const char* to_string(ReplayKernel k) {
  switch (k) {
    case ReplayKernel::kAuto: return "auto";
    case ReplayKernel::kPerSize: return "persize";
  }
  return "?";
}

}  // namespace cms::opt
