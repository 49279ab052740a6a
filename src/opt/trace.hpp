// Trace-capture-and-replay profiling (paper section 3.2, made cheap).
//
// The paper's planner needs per-task miss curves M_i(z_k); measuring them
// by full simulation costs one engine run per (grid size x jitter run).
// KPN applications are determinate and the profiling sweep runs every
// client in an exclusive L2 partition, so once the isolation run's timing
// is made outcome-invariant (HierarchyConfig::uniform_l2_timing) each
// client's L1-filtered L2-bound access stream is *identical at every grid
// size*. That turns the sweep into:
//
//   capture:  ONE instrumented simulation per jitter seed records every
//             client's L2-bound stream (TraceRecorder, attached through
//             the mem::AccessTraceSink hook of the hierarchy);
//   replay:   each recorded stream is pushed through a standalone
//             mem::SetAssocCache sized for the grid point, reproducing
//             the exact hit/miss sequence the live partitioned L2 would
//             have produced — misses are bit-identical, at O(runs)
//             simulations instead of O(sizes x runs).
//
// Exactness argument (why replay == live, bitwise):
//  * isolated clients never share a set, so the only shared L2 state is
//    the LRU/FIFO tick counter (relative order within a set is preserved
//    — comparisons never cross partitions) and the cold-miss table
//    (affects no hit/miss outcome);
//  * the live index translation is base + (conventional % sets) with
//    conventional = line_index % total_sets; replay applies the same
//    arithmetic, minus the base offset, to a cache of `sets` sets;
//  * kRandom replacement is counter-based PER CLIENT (mem/cache.hpp): the
//    n-th random victim of a client depends only on (cache seed, client,
//    n), never on interleaving — replay constructs its standalone caches
//    with the live L2's seed (HierarchyConfig::l2_seed) and reproduces
//    the victims exactly.
//
// Captures are durable: a versioned binary file format (kTraceMagic /
// kTraceFormatVersion, per-client stream table, FNV-1a trailer checksum)
// round-trips a CaptureRun through encode_capture/decode_capture, and
// opt/trace_store.hpp builds a content-addressed store on top so captures
// recorded once are replayed across processes and runs.
//
// Active cycles t_i(z_k) cannot be replayed (bus grants and DRAM bank
// occupancy are global), so BOTH profiler modes reconstruct them from the
// platform latency model: t_i = compute + uniform-timing memory cycles +
// demand_misses * miss_surcharge. The reconstruction is exact w.r.t. the
// uniform-timing run (hence bit-identical between modes) but approximate
// w.r.t. a fully timed run; bench/micro_replay reports that error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "mem/cache_config.hpp"
#include "mem/client.hpp"
#include "mem/hierarchy.hpp"
#include "mem/trace_sink.hpp"
#include "opt/planner.hpp"
#include "opt/profile.hpp"

namespace cms::opt {

/// One decoded L2-bound access.
struct TraceEvent {
  std::uint64_t line_index = 0;  // line address / line_bytes
  AccessType type = AccessType::kRead;
  bool l1_writeback = false;  // L1 victim drain (off the critical path)
  TaskId task = kInvalidTask;  // issuing task
};

/// One client's L2-bound stream, delta-encoded: per event a varint head
/// packs zigzag(line_index delta) with three flag bits (issuer-changed,
/// l1-writeback, write), followed by a varint issuer id when it changed.
/// Sequential sweeps encode to ~1 byte per access.
class ClientTrace {
 public:
  explicit ClientTrace(mem::ClientId client) : client_(client) {}

  mem::ClientId client() const { return client_; }
  std::uint64_t events() const { return events_; }
  std::size_t encoded_bytes() const { return buf_.size(); }

  void append(std::uint64_t line_index, AccessType type, bool l1_writeback,
              TaskId task);

  /// The raw delta-encoded bytes (file round-trip; see encode_capture).
  const std::vector<std::uint8_t>& encoded() const { return buf_; }

  /// Rebuild a stream from its stored encoding. The result is read-only in
  /// spirit: the encoder state is not reconstructed, so append() must not
  /// be called on it (readers are unaffected).
  static ClientTrace from_encoded(mem::ClientId client, std::uint64_t events,
                                  std::vector<std::uint8_t> buf);

  /// Forward decoder over the stream, inline so that a pass over a whole
  /// stream compiles into one loop. Throws std::runtime_error on a
  /// truncated or malformed varint (defense in depth — file checksums
  /// catch disk rot first).
  class Reader {
   public:
    explicit Reader(const ClientTrace& t)
        : rd_(t.buf_, "trace stream"), remaining_(t.events_) {}
    /// Decode the next event into `ev`; false at end of stream.
    bool next(TraceEvent& ev) {
      if (remaining_ == 0) return false;
      --remaining_;
      const std::uint64_t head = rd_.varint();
      line_ += static_cast<std::uint64_t>(serialize::unzigzag(head >> 3));
      if (head & kTaskChangedBit)
        task_ = static_cast<TaskId>(static_cast<std::int32_t>(rd_.varint()));
      ev.line_index = line_;
      ev.type = (head & kWriteBit) ? AccessType::kWrite : AccessType::kRead;
      ev.l1_writeback = (head & kWritebackBit) != 0;
      ev.task = task_;
      return true;
    }

   private:
    serialize::ByteReader rd_;
    std::uint64_t remaining_;
    std::uint64_t line_ = 0;  // unsigned: a corrupt delta wraps
    TaskId task_ = kInvalidTask;
  };
  Reader reader() const { return Reader(*this); }

 private:
  friend class Reader;
  // Flag bits below the zigzag delta in each event's varint head.
  static constexpr std::uint64_t kWriteBit = 1;
  static constexpr std::uint64_t kWritebackBit = 2;
  static constexpr std::uint64_t kTaskChangedBit = 4;

  mem::ClientId client_;
  std::vector<std::uint8_t> buf_;
  std::uint64_t events_ = 0;
  std::int64_t last_line_ = 0;   // encoder state
  TaskId last_task_ = kInvalidTask;
};

/// A full capture: every client's stream, in deterministic (ClientId)
/// order. Line indices are at `line_bytes` granularity (the L2's).
struct AccessTrace {
  std::uint32_t line_bytes = 64;
  std::vector<ClientTrace> streams;

  const ClientTrace* find(mem::ClientId client) const;
  std::uint64_t total_events() const;
  std::size_t encoded_bytes() const;
};

/// The capture half: attach to a hierarchy (or through SimJob::trace_sink)
/// for one isolation run, then take() the recording. Thread-confined like
/// the hierarchy notifying it.
class TraceRecorder final : public mem::AccessTraceSink {
 public:
  explicit TraceRecorder(std::uint32_t l2_line_bytes)
      : line_bytes_(l2_line_bytes) {}

  void on_l2_access(const mem::L2AccessEvent& ev) override;

  /// The recording so far, streams sorted by client id. Leaves the
  /// recorder empty.
  AccessTrace take();

 private:
  std::uint32_t line_bytes_;
  std::vector<ClientTrace> streams_;  // insertion order during recording
  std::unordered_map<mem::ClientId, std::size_t, mem::ClientIdHash> index_;
};

/// Per-task capture-run measurements that are partition-size invariant
/// under uniform L2 timing — the constants of the t_i reconstruction.
struct CaptureTaskStats {
  TaskId id = kInvalidTask;
  std::string name;
  std::uint64_t instructions = 0;
  Cycle compute_cycles = 0;
  Cycle mem_cycles = 0;  // bus waits + uniform L2 charges, invariant
};

/// Everything replay needs from one instrumented isolation run.
struct CaptureRun {
  AccessTrace trace;
  std::vector<CaptureTaskStats> tasks;  // task creation order
  /// Clients whose demand misses are scheduler work (the OS's rt data/bss
  /// segments, touched on context switches) — excluded from the per-task
  /// miss counts of the t_i reconstruction, mirroring the engine, which
  /// charges switch traffic to the processor rather than the task.
  std::vector<mem::ClientId> scheduler_clients;

  bool is_scheduler_client(mem::ClientId c) const;
};

// ---- Versioned binary file format (the durability boundary) ----
//
// Layout of a capture file:
//   [0..7]   magic "CMSTRACE"
//   [8..11]  fixed32 schema version (kTraceFormatVersion)
//   payload  varint/str encoded (common/serialize.hpp):
//              digest string (the content address the file was stored
//              under — verified on load so a renamed/copied file can
//              never serve the wrong trace),
//              line_bytes, scheduler-client table, per-task capture
//              stats, per-client stream table (kind, id, events, bytes),
//   trailer  fixed64 FNV-1a checksum over every preceding byte.
// Load failures — truncation, bad magic, a FUTURE schema version, or a
// checksum mismatch — throw std::runtime_error naming the offending
// path. Version is checked before the checksum so a future format with a
// different trailer still reports itself correctly.

inline constexpr char kTraceMagic[8] = {'C', 'M', 'S', 'T', 'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// Serialize a capture (with the content digest it is addressed by).
std::vector<std::uint8_t> encode_capture(const CaptureRun& capture,
                                         std::string_view digest);

/// Parse an encoded capture; `context` prefixes error messages (pass the
/// file path). Throws std::runtime_error on any malformed input. The
/// embedded digest is returned through `digest` when non-null.
CaptureRun decode_capture(const std::uint8_t* data, std::size_t size,
                          const std::string& context,
                          std::string* digest = nullptr);

/// Off-chip cycles a demand L2 miss adds on top of the uniform (hit-path)
/// charge: nominal DRAM access latency + the return bus transfer.
Cycle miss_surcharge(const mem::HierarchyConfig& hier);

/// Analytic t_i of the reconstruction model; used by BOTH profiler modes
/// so their active-cycle curves agree bitwise.
inline Cycle reconstruct_active_cycles(Cycle compute_cycles, Cycle mem_cycles,
                                       std::uint64_t demand_misses,
                                       Cycle surcharge) {
  return compute_cycles + mem_cycles + demand_misses * surcharge;
}

/// Replay one capture at one grid point. `plan` is the uniform isolation
/// plan of that grid point (client set sizes + virtual total), `l2` the
/// L2 geometry template (line/ways/replacement/write policy; size is per
/// client), `l2_seed` the live L2's RNG seed (HierarchyConfig::l2_seed —
/// kRandom victim streams are keyed by it), `sets` the grid label of the
/// emitted samples and `order` the job's canonical schedule position
/// (ProfileFragment contract). Throws std::invalid_argument when a
/// stream's client has no plan entry.
ProfileFragment replay_fragment(const CaptureRun& capture,
                                const PartitionPlan& plan,
                                const mem::CacheConfig& l2,
                                std::uint64_t l2_seed, std::uint32_t sets,
                                std::uint64_t order, Cycle surcharge);

/// One replay work item of a sweep (core::Experiment fans these out on a
/// core::Campaign; replay_profile below is the serial driver).
struct ReplayJob {
  const CaptureRun* capture = nullptr;
  std::shared_ptr<const PartitionPlan> plan;
  std::uint32_t sets = 0;
  std::uint64_t order = 0;
};

/// Replay every job in canonical order and fold the fragments — the
/// profile a serial full-simulation sweep would have produced.
MissProfile replay_profile(const std::vector<ReplayJob>& jobs,
                           const mem::CacheConfig& l2, std::uint64_t l2_seed,
                           Cycle surcharge);

}  // namespace cms::opt
