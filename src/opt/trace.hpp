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
// kTraceFormatVersion, per-client stream table, word-wise FNV-1a trailer
// checksum) round-trips a CaptureRun through encode_capture/
// decode_capture, and opt/trace_store.hpp builds a content-addressed
// store on top so captures recorded once are replayed across processes
// and runs.
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
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
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
  std::uint32_t line_id = 0;   // index of line_index in the stream's lines()
};

/// Insert-only index from 64-bit keys to dense ids in insertion order,
/// over a key vector the caller owns (an id is its key's position in it):
/// open addressing, linear probing, Fibonacci hashing, at most half full.
/// A slot holds only an id, 4 bytes, and a probe compares its key in the
/// caller's vector. The encoder assigns each stream's line ids with it,
/// and TraceRecorder each client's stream.
class DenseIds {
 public:
  /// The id of `key` and whether the key is new; a new key gets the next
  /// id, keys.size(), and is appended to `keys`, which must hold the keys
  /// of every earlier insert in order. Throws std::length_error at
  /// 2^32 - 1 keys.
  std::pair<std::uint32_t, bool> insert(std::uint64_t key,
                                        std::vector<std::uint64_t>& keys) {
    if (slots_.empty()) slots_.assign(std::size_t{1} << (64 - shift_), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;
    for (std::uint32_t id; (id = slots_[i]) != kEmpty; i = (i + 1) & mask)
      if (keys[id] == key) return {id, false};
    if (keys.size() >= kEmpty) throw std::length_error("too many dense ids");
    const auto id = static_cast<std::uint32_t>(keys.size());
    slots_[i] = id;
    keys.push_back(key);
    if (2 * keys.size() > slots_.size()) grow(keys);
    return {id, true};
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  void grow(const std::vector<std::uint64_t>& keys);

  std::vector<std::uint32_t> slots_;  // allocated by the first insert
  unsigned shift_ = 64 - 6;  // log2(slots_.size()) high hash bits
};

/// One client's L2-bound stream, format 2: the distinct lines it touches,
/// each once, in first-access order (lines(); a line's position is its
/// id), and per event a varint head packing the line's id with three
/// flag bits (issuer-changed, l1-writeback, write), followed by a varint
/// issuer id when it changed. An access to one of the stream's first
/// 2^11 lines encodes to 1-2 bytes.
class ClientTrace {
 public:
  explicit ClientTrace(mem::ClientId client) : client_(client) {}

  mem::ClientId client() const { return client_; }
  std::uint64_t events() const { return events_; }
  /// Bytes of the encoded events (the dictionary not included).
  std::size_t encoded_bytes() const { return buf_.size(); }

  /// Record one access. Throws std::logic_error once the stream is sealed
  /// or when it was rebuilt by from_encoded: neither holds the encoder's
  /// line -> id map.
  void append(std::uint64_t line_index, AccessType type, bool l1_writeback,
              TaskId task);
  /// Drop the encoder's line -> id map, which only append() reads.
  /// TraceRecorder::take() seals every stream it hands out.
  void seal() {
    ids_ = DenseIds();
    sealed_ = true;
  }

  /// The line index of each id.
  const std::vector<std::uint64_t>& lines() const { return lines_; }
  /// The raw encoded events (file round-trip; see encode_capture).
  const std::vector<std::uint8_t>& encoded() const { return buf_; }

  /// Rebuild a sealed stream from its stored dictionary and events.
  /// decode_capture checks that `lines` are distinct; the Reader checks
  /// each event's id against them.
  static ClientTrace from_encoded(mem::ClientId client, std::uint64_t events,
                                  std::vector<std::uint64_t> lines,
                                  std::vector<std::uint8_t> buf);

  /// Forward decoder over the stream, inline so that a pass over a whole
  /// stream compiles into one loop. Throws std::runtime_error on a
  /// truncated or malformed varint, a line id beyond the dictionary or an
  /// issuer beyond 32 bits (defense in depth — file checksums catch disk
  /// rot first).
  class Reader {
   public:
    explicit Reader(const ClientTrace& t)
        : p_(t.buf_.data()),
          end_(t.buf_.data() + t.buf_.size()),
          lines_(t.lines_.data()),
          num_lines_(t.lines_.size()),
          remaining_(t.events_) {}
    /// Decode the next event into `ev`; false at end of stream.
    bool next(TraceEvent& ev) {
      if (remaining_ == 0) return false;
      --remaining_;
      const std::uint64_t head = varint();
      const std::uint64_t id = head >> 3;
      if (id >= num_lines_) [[unlikely]]
        bad_id(id, num_lines_);
      if (head & kTaskChangedBit) {
        const std::uint64_t issuer = varint();
        if (issuer > 0xFFFFFFFFull) [[unlikely]]
          bad_issuer(issuer);
        task_ = static_cast<TaskId>(static_cast<std::uint32_t>(issuer));
      }
      ev.line_index = lines_[id];
      ev.type = (head & kWriteBit) ? AccessType::kWrite : AccessType::kRead;
      ev.l1_writeback = (head & kWritebackBit) != 0;
      ev.task = task_;
      ev.line_id = static_cast<std::uint32_t>(id);
      return true;
    }

   private:
    struct Varint {
      std::uint64_t value;
      const std::uint8_t* next;
    };
    /// The next varint. One- and two-byte varints, which hold every head
    /// of a stream with fewer than 2^11 lines, decode without a branch on
    /// their length; longer ones, and a varint at the end of the bytes,
    /// take long_varint. The cold paths are static and take values, so
    /// the reader's state can stay in registers.
    std::uint64_t varint() {
      if (end_ - p_ >= 2) {
        const std::uint64_t b0 = p_[0], b1 = p_[1];
        const std::uint64_t more = b0 >> 7;  // b0 continues into b1...
        if ((b1 & (more << 7)) == 0) {        // ...and b1 ends the varint
          p_ += 1 + more;
          return (b0 & 0x7F) | ((b1 << 7) & (0 - more));
        }
      }
      const Varint v = long_varint(p_, end_);
      p_ = v.next;
      return v.value;
    }
    static Varint long_varint(const std::uint8_t* p, const std::uint8_t* end);
    [[noreturn]] static void bad_id(std::uint64_t id, std::uint64_t lines);
    [[noreturn]] static void bad_issuer(std::uint64_t issuer);

    const std::uint8_t* p_;
    const std::uint8_t* end_;
    const std::uint64_t* lines_;
    std::uint64_t num_lines_;
    std::uint64_t remaining_;
    TaskId task_ = kInvalidTask;
  };
  Reader reader() const { return Reader(*this); }

 private:
  friend class Reader;
  // Flag bits below the line id in each event's varint head.
  static constexpr std::uint64_t kWriteBit = 1;
  static constexpr std::uint64_t kWritebackBit = 2;
  static constexpr std::uint64_t kTaskChangedBit = 4;

  mem::ClientId client_;
  std::vector<std::uint64_t> lines_;  // [id] line index
  std::vector<std::uint8_t> buf_;
  std::uint64_t events_ = 0;
  // Encoder state, held only while recording: line index -> id.
  DenseIds ids_;
  bool sealed_ = false;
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

  /// The recording so far, streams sorted by client id and sealed.
  /// Leaves the recorder empty.
  AccessTrace take();

 private:
  std::uint32_t line_bytes_;
  std::vector<ClientTrace> streams_;  // insertion order during recording
  std::vector<std::uint64_t> keys_;    // [stream] ClientId::key()
  DenseIds index_;                     // over keys_
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
// Layout of a capture file (format 2):
//   [0..7]   magic "CMSTRACE"
//   [8..11]  fixed32 schema version (kTraceFormatVersion)
//   payload  varint/str encoded (common/serialize.hpp):
//              digest string (the content address the file was stored
//              under — verified on load so a renamed/copied file can
//              never serve the wrong trace),
//              line_bytes, scheduler-client table, per-task capture
//              stats, then per client stream: kind, id, event count,
//              line count n, the n lines in id order as zigzag deltas,
//              event byte count, the events (ClientTrace's encoding),
//   trailer  fixed64 serialize::fnv1a64_words checksum over every
//            preceding byte.
// Load failures — truncation, bad magic, any version but this one, a
// checksum mismatch, or a checksum-valid payload the encoder cannot have
// written (a count beyond the bytes left, more lines than events, a
// repeated line, a client kind or a 32-bit id out of range) — throw
// std::runtime_error naming the offending path. Version is checked before
// the checksum so that a file of another format, whose trailer may be
// computed differently, reports itself as such.

inline constexpr char kTraceMagic[8] = {'C', 'M', 'S', 'T', 'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kTraceFormatVersion = 2;

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

/// One grid point of a replay sweep: the uniform isolation plan of that
/// point, its grid label and its fragment's canonical schedule position
/// (replay_fragment's `sets` and `order`).
struct ReplayGridPoint {
  std::shared_ptr<const PartitionPlan> plan;
  std::uint32_t sets = 0;
  std::uint64_t order = 0;
};

/// One replay work item of a sweep: a capture plus every grid point it is
/// profiled at (core::Experiment::multi_replay_jobs builds the list).
struct MultiReplayJob {
  const CaptureRun* capture = nullptr;
  std::vector<ReplayGridPoint> points;
};

/// The reference sweep: replay_fragment at every point of every job, then
/// one fold. The fused replay (opt/replay_kernel.hpp) must reproduce it
/// bit for bit; tests and bench/micro_replay compare the two.
MissProfile replay_profile_reference(const std::vector<MultiReplayJob>& jobs,
                                     const mem::CacheConfig& l2,
                                     std::uint64_t l2_seed, Cycle surcharge);

}  // namespace cms::opt
