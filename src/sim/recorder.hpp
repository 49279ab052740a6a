// Memory access recording — phase one of the two-phase execution model
// (ARCHITECTURE.md, "Timing engine").
//
// While a task firing executes functionally, it reports its loads, stores
// and pure-compute work here. The recorder turns that into a stream of
// MemAccess events with inter-access compute gaps that the timing engine
// replays against the memory hierarchy.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/regions.hpp"

namespace cms::sim {

class MemoryRecorder {
 public:
  /// Report `cycles` of pure computation since the previous event.
  void compute(std::uint32_t cycles) { pending_gap_ += cycles; }

  void read(Addr addr, std::uint32_t size = 4) { emit(addr, size, AccessType::kRead); }
  void write(Addr addr, std::uint32_t size = 4) { emit(addr, size, AccessType::kWrite); }

  /// Model instruction fetch over a code region: sequential line-granular
  /// reads covering `bytes` starting at the task's code base, wrapping
  /// within the region. Lightweight stand-in for I-fetch traffic.
  void touch_code(const Region& code, std::uint64_t bytes,
                  std::uint32_t line_bytes = 64);

  /// Events and totals of one firing.
  struct FiringTrace {
    std::vector<MemAccess> events;
    std::uint64_t compute_cycles = 0;
    std::uint64_t accesses = 0;
  };

  /// Drain recorded events and totals; the recorder is reset for the next
  /// firing.
  FiringTrace take();

  bool empty() const { return events_.empty() && pending_gap_ == 0; }

 private:
  void emit(Addr addr, std::uint32_t size, AccessType type);

  std::vector<MemAccess> events_;
  std::uint32_t pending_gap_ = 0;
  std::uint64_t compute_total_ = 0;
  std::uint64_t code_cursor_ = 0;
};

}  // namespace cms::sim
