// ReplayKernel lives in its own header so the lightweight CLI helpers
// (core/cli.hpp) can parse --replay-kernel without dragging the whole
// trace/replay stack into every bench and example TU (same reasoning as
// core/profiler_mode.hpp).
#pragma once

#include <cstdint>

namespace cms::opt {

/// Which replay engine executes the profiling sweep. Every variant is
/// BIT-IDENTICAL in output (misses, demand misses, reconstructed t_i);
/// they differ only in wall-clock. See opt/replay_kernel.hpp for the
/// fused-kernel contract and resolve_replay_kernel for dispatch.
enum class ReplayKernel : std::uint8_t {
  /// Widest fused path the executing CPU supports: avx2 > sse4 > scalar.
  kAuto,
  /// Fused multi-size kernel, portable scalar tag compares. The
  /// reference the SIMD paths are checked against, and the only fused
  /// path under -DCMS_FORCE_SCALAR=ON.
  kScalar,
  /// Fused multi-size kernel, SSE4.1 128-bit tag compares.
  kSse4,
  /// Fused multi-size kernel, AVX2 256-bit tag compares.
  kAvx2,
  /// Legacy one-standalone-cache-per-grid-size loop (opt::replay_fragment)
  /// — one full pass over every trace PER SIZE. Kept as the independent
  /// reference implementation the fused kernels are verified against.
  kPerSize,
};

inline const char* to_string(ReplayKernel k) {
  switch (k) {
    case ReplayKernel::kAuto: return "auto";
    case ReplayKernel::kScalar: return "scalar";
    case ReplayKernel::kSse4: return "sse4";
    case ReplayKernel::kAvx2: return "avx2";
    case ReplayKernel::kPerSize: return "persize";
  }
  return "?";
}

}  // namespace cms::opt
