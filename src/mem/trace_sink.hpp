// Observation hook for the L2-bound access stream.
//
// The memory hierarchy calls the installed sink once per line-granular L2
// access, in issue order, with the access already attributed to its cache
// client (task or shared buffer). This is the capture point of the
// trace-and-replay profiler (opt/trace.hpp): during an isolation run the
// recorded per-client streams are sufficient to replay every client's
// hit/miss sequence through a standalone cache model at any partition
// size, because isolated clients never interact inside the L2.
#pragma once

#include "common/types.hpp"
#include "mem/client.hpp"

namespace cms::mem {

/// One L2-bound access, as observed between the L1s and the shared L2.
struct L2AccessEvent {
  ClientId client;          // attribution after interval-table lookup
  TaskId task = kInvalidTask;  // issuing task (differs from `client` for
                               // shared-buffer accesses and L1 writebacks)
  Addr line = 0;            // line address presented to the L2
  AccessType type = AccessType::kRead;
  /// True when this is the drain of a dirty L1 victim (a state-update
  /// write off the issuing task's critical path) rather than a demand
  /// fetch.
  bool l1_writeback = false;
};

/// Interface the hierarchy notifies. Implementations are thread-confined
/// like the hierarchy itself: one sink instance per simulation.
class AccessTraceSink {
 public:
  virtual ~AccessTraceSink() = default;
  virtual void on_l2_access(const L2AccessEvent& ev) = 0;
};

}  // namespace cms::mem
