#include "opt/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "mem/cache.hpp"

namespace cms::opt {

void DenseIds::grow(const std::vector<std::uint64_t>& keys) {
  slots_.assign(slots_.size() * 2, kEmpty);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t id = 0; id < keys.size(); ++id) {
    std::size_t i = (keys[id] * 0x9E3779B97F4A7C15ull) >> shift_;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

void ClientTrace::append(std::uint64_t line_index, AccessType type,
                         bool l1_writeback, TaskId task) {
  if (sealed_)
    throw std::logic_error("append to the sealed trace stream of " +
                           client_.to_string());
  const std::uint32_t id = ids_.insert(line_index, lines_).first;
  const bool task_changed = task != last_task_;
  last_task_ = task;

  std::uint64_t head = std::uint64_t{id} << 3;
  if (task_changed) head |= kTaskChangedBit;
  if (l1_writeback) head |= kWritebackBit;
  if (type == AccessType::kWrite) head |= kWriteBit;
  serialize::put_varint(buf_, head);
  if (task_changed)
    serialize::put_varint(
        buf_, static_cast<std::uint64_t>(static_cast<std::uint32_t>(task)));
  ++events_;
}

ClientTrace ClientTrace::from_encoded(mem::ClientId client,
                                      std::uint64_t events,
                                      std::vector<std::uint64_t> lines,
                                      std::vector<std::uint8_t> buf) {
  ClientTrace t(client);
  t.sealed_ = true;
  t.events_ = events;
  t.lines_ = std::move(lines);
  t.buf_ = std::move(buf);
  return t;
}

ClientTrace::Reader::Varint ClientTrace::Reader::long_varint(
    const std::uint8_t* p, const std::uint8_t* end) {
  serialize::ByteReader rd(p, static_cast<std::size_t>(end - p),
                           "trace stream");
  const std::uint64_t value = rd.varint();
  return {value, p + rd.pos()};
}

void ClientTrace::Reader::bad_id(std::uint64_t id, std::uint64_t lines) {
  throw std::runtime_error("trace stream: line id " + std::to_string(id) +
                           " beyond the stream's " + std::to_string(lines) +
                           " lines");
}

void ClientTrace::Reader::bad_issuer(std::uint64_t issuer) {
  throw std::runtime_error("trace stream: issuer " + std::to_string(issuer) +
                           " beyond 32 bits");
}

const ClientTrace* AccessTrace::find(mem::ClientId client) const {
  const auto it = std::lower_bound(
      streams.begin(), streams.end(), client,
      [](const ClientTrace& t, mem::ClientId c) { return t.client() < c; });
  return it != streams.end() && it->client() == client ? &*it : nullptr;
}

std::uint64_t AccessTrace::total_events() const {
  std::uint64_t n = 0;
  for (const auto& s : streams) n += s.events();
  return n;
}

std::size_t AccessTrace::encoded_bytes() const {
  std::size_t n = 0;
  for (const auto& s : streams) n += s.encoded_bytes();
  return n;
}

void TraceRecorder::on_l2_access(const mem::L2AccessEvent& ev) {
  const auto [s, fresh] = index_.insert(ev.client.key(), keys_);
  if (fresh) streams_.emplace_back(ev.client);
  streams_[s].append(ev.line / line_bytes_, ev.type, ev.l1_writeback,
                     ev.task);
}

AccessTrace TraceRecorder::take() {
  AccessTrace out;
  out.line_bytes = line_bytes_;
  out.streams = std::move(streams_);
  streams_.clear();
  keys_.clear();
  index_ = DenseIds();
  for (ClientTrace& s : out.streams) s.seal();
  std::sort(out.streams.begin(), out.streams.end(),
            [](const ClientTrace& a, const ClientTrace& b) {
              return a.client() < b.client();
            });
  return out;
}

bool CaptureRun::is_scheduler_client(mem::ClientId c) const {
  return std::find(scheduler_clients.begin(), scheduler_clients.end(), c) !=
         scheduler_clients.end();
}

// ---- File format ----

namespace {

void put_client(serialize::ByteWriter& w, mem::ClientId c) {
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.svarint(c.id);
}

/// A signed varint that must fit 32 bits, as every id the encoder writes.
std::int32_t get_int32(serialize::ByteReader& rd, const char* what) {
  const std::int64_t v = rd.svarint();
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max())
    rd.fail(std::string(what) + " " + std::to_string(v) +
            " does not fit 32 bits");
  return static_cast<std::int32_t>(v);
}

mem::ClientId get_client(serialize::ByteReader& rd) {
  const std::uint8_t kind = rd.u8();
  if (kind > static_cast<std::uint8_t>(mem::ClientKind::kBuffer))
    rd.fail("bad client kind " + std::to_string(kind));
  mem::ClientId c;
  c.kind = static_cast<mem::ClientKind>(kind);
  c.id = get_int32(rd, "client id");
  return c;
}

}  // namespace

std::vector<std::uint8_t> encode_capture(const CaptureRun& capture,
                                         std::string_view digest) {
  serialize::ByteWriter w;
  w.raw(reinterpret_cast<const std::uint8_t*>(kTraceMagic),
        sizeof(kTraceMagic));
  w.fixed32(kTraceFormatVersion);
  w.str(digest);
  w.varint(capture.trace.line_bytes);
  w.varint(capture.scheduler_clients.size());
  for (const mem::ClientId c : capture.scheduler_clients) put_client(w, c);
  w.varint(capture.tasks.size());
  for (const CaptureTaskStats& t : capture.tasks) {
    w.svarint(t.id);
    w.str(t.name);
    w.varint(t.instructions);
    w.varint(t.compute_cycles);
    w.varint(t.mem_cycles);
  }
  w.varint(capture.trace.streams.size());
  for (const ClientTrace& s : capture.trace.streams) {
    put_client(w, s.client());
    w.varint(s.events());
    w.varint(s.lines().size());
    std::uint64_t prev = 0;
    for (const std::uint64_t line : s.lines()) {
      w.svarint(static_cast<std::int64_t>(line - prev));
      prev = line;
    }
    w.varint(s.encoded().size());
    w.raw(s.encoded().data(), s.encoded().size());
  }
  w.fixed64(serialize::fnv1a64_words(w.bytes().data(), w.size()));
  return w.take();
}

CaptureRun decode_capture(const std::uint8_t* data, std::size_t size,
                          const std::string& context, std::string* digest) {
  constexpr std::size_t kHeader = sizeof(kTraceMagic) + 4;  // magic + version
  constexpr std::size_t kTrailer = 8;                       // checksum
  if (size < kHeader + kTrailer)
    throw std::runtime_error(context + ": truncated trace file (" +
                             std::to_string(size) + " bytes)");
  if (std::memcmp(data, kTraceMagic, sizeof(kTraceMagic)) != 0)
    throw std::runtime_error(context + ": bad magic (not a CMS trace file)");

  serialize::ByteReader rd(data, size - kTrailer, context);
  rd.raw(sizeof(kTraceMagic));
  const std::uint32_t version = rd.fixed32();
  // Version before checksum: another format may checksum differently but
  // must still be reported as a version problem, not corruption.
  if (version != kTraceFormatVersion)
    throw std::runtime_error(
        context + ": trace schema version " + std::to_string(version) +
        (version > kTraceFormatVersion
             ? " is newer than this build supports ("
             : " is older than the one this build reads (") +
        std::to_string(kTraceFormatVersion) + ")");

  serialize::ByteReader trailer(data + size - kTrailer, kTrailer, context);
  if (trailer.fixed64() != serialize::fnv1a64_words(data, size - kTrailer))
    throw std::runtime_error(context + ": checksum mismatch (corrupt file)");

  CaptureRun capture;
  const std::string stored_digest = rd.str();
  if (digest != nullptr) *digest = stored_digest;
  // encode_capture writes a recorder's nonzero 32-bit line size; any
  // other value would be truncated or divide by zero in a replay.
  const std::uint64_t line_bytes = rd.varint();
  if (line_bytes == 0 || line_bytes > 0xFFFFFFFFull)
    rd.fail("bad line size " + std::to_string(line_bytes));
  capture.trace.line_bytes = static_cast<std::uint32_t>(line_bytes);
  // Every count below is checked against the bytes left (each element
  // encodes to at least one byte) before anything is reserved by it.
  const std::uint64_t num_sched = rd.count("scheduler-client");
  capture.scheduler_clients.reserve(num_sched);
  for (std::uint64_t i = 0; i < num_sched; ++i)
    capture.scheduler_clients.push_back(get_client(rd));
  const std::uint64_t num_tasks = rd.count("task");
  capture.tasks.reserve(num_tasks);
  for (std::uint64_t i = 0; i < num_tasks; ++i) {
    CaptureTaskStats t;
    t.id = get_int32(rd, "task id");
    t.name = rd.str();
    t.instructions = rd.varint();
    t.compute_cycles = rd.varint();
    t.mem_cycles = rd.varint();
    capture.tasks.push_back(std::move(t));
  }
  const std::uint64_t num_streams = rd.count("stream");
  capture.trace.streams.reserve(num_streams);
  std::vector<std::uint64_t> sorted;  // distinctness check, reused
  for (std::uint64_t i = 0; i < num_streams; ++i) {
    const mem::ClientId client = get_client(rd);
    const std::uint64_t events = rd.varint();
    const std::uint64_t num_lines = rd.count("line");
    if (num_lines > events)
      rd.fail("stream of " + client.to_string() + " claims " +
              std::to_string(num_lines) + " lines for " +
              std::to_string(events) + " events");
    std::vector<std::uint64_t> lines(static_cast<std::size_t>(num_lines));
    std::uint64_t line = 0;  // unsigned: a corrupt delta wraps
    for (std::uint64_t& l : lines) {
      line += static_cast<std::uint64_t>(rd.svarint());
      l = line;
    }
    // A repeated line would get two ids, which the fused replay (keyed
    // by id) and the reference replay (keyed by line) treat differently.
    sorted.assign(lines.begin(), lines.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      rd.fail("stream of " + client.to_string() + " repeats a line");
    const std::uint64_t nbytes = rd.varint();
    if (nbytes > rd.remaining())
      rd.fail("truncated while reading stream bytes");
    if (events > nbytes)
      rd.fail("stream of " + client.to_string() + " claims " +
              std::to_string(events) + " events in " +
              std::to_string(nbytes) + " bytes");
    const std::uint8_t* p = rd.raw(static_cast<std::size_t>(nbytes));
    capture.trace.streams.push_back(ClientTrace::from_encoded(
        client, events, std::move(lines),
        std::vector<std::uint8_t>(p, p + static_cast<std::size_t>(nbytes))));
  }
  if (!rd.done())
    throw std::runtime_error(context + ": trailing garbage after payload");
  return capture;
}

// ---- Replay ----

Cycle miss_surcharge(const mem::HierarchyConfig& hier) {
  return hier.dram.access_latency + hier.bus.cycles_per_transaction;
}

ProfileFragment replay_fragment(const CaptureRun& capture,
                                const PartitionPlan& plan,
                                const mem::CacheConfig& l2,
                                std::uint64_t l2_seed, std::uint32_t sets,
                                std::uint64_t order, Cycle surcharge) {
  const std::uint32_t total = std::max(plan.total_sets, 1u);
  const std::size_t nstreams = capture.trace.streams.size();
  const std::size_t ntasks = capture.tasks.size();

  // Per-stream plan entries, resolved once up front (a handful of linear
  // scans instead of a hash map rebuilt per fragment — this function runs
  // once per grid point of a sweep).
  std::vector<const PlanEntry*> entries(nstreams, nullptr);
  for (std::size_t s = 0; s < nstreams; ++s) {
    const mem::ClientId client = capture.trace.streams[s].client();
    for (const PlanEntry& e : plan.entries)
      if (e.client == client) {
        entries[s] = &e;
        break;
      }
    if (entries[s] == nullptr)
      throw std::invalid_argument("trace stream for unplanned client " +
                                  client.to_string());
  }

  // Dense task-slot demand counters (capture.tasks order + one trailing
  // trash slot for ids outside the table, whose counts are never read
  // back). Events switch tasks rarely, so the slot is resolved on task
  // CHANGE only — the per-event hash-map lookup this replaces dominated
  // the non-cache-model half of the replay profile.
  const std::size_t trash_slot = ntasks;
  std::vector<std::uint64_t> demand(ntasks + 1, 0);
  const auto slot_of = [&](TaskId id) {
    for (std::size_t s = 0; s < ntasks; ++s)
      if (capture.tasks[s].id == id) return s;
    return trash_slot;
  };

  std::vector<std::uint64_t> misses(nstreams, 0);
  for (std::size_t s = 0; s < nstreams; ++s) {
    const ClientTrace& stream = capture.trace.streams[s];
    const std::uint32_t client_sets =
        std::max(entries[s]->partition.num_sets, 1u);

    mem::CacheConfig cc = l2;
    cc.size_bytes = client_sets * l2.line_bytes * l2.ways;
    // Same seed as the live L2: the counter-based kRandom victim stream of
    // this client is then identical to the capture run's.
    mem::SetAssocCache cache(cc, l2_seed);

    const bool count_issuers = !capture.is_scheduler_client(stream.client());
    TaskId cur_task = kInvalidTask;
    std::size_t cur_slot = trash_slot;
    auto rd = stream.reader();
    TraceEvent ev;
    while (rd.next(ev)) {
      // Same arithmetic as the live PartitionedCache: conventional index
      // modulo the (virtually enlarged) total, folded into the client's
      // exclusive range — whose base offset a standalone cache drops.
      const auto idx = static_cast<std::uint32_t>(
          (ev.line_index % total) % client_sets);
      const Addr addr = ev.line_index * capture.trace.line_bytes;
      const mem::AccessResult res =
          cache.access_at(idx, addr, ev.type, stream.client());
      if (!res.hit && !ev.l1_writeback && count_issuers) {
        if (ev.task != cur_task) {
          cur_task = ev.task;
          cur_slot = slot_of(ev.task);
        }
        ++demand[cur_slot];
      }
    }
    misses[s] = cache.stats().misses;
  }

  // Stream index of each task's own client for the per-task miss rows
  // (streams are sorted by ClientId — AccessTrace::find is the same
  // binary search).
  ProfileFragment frag;
  frag.order = order;
  for (std::size_t slot = 0; slot < ntasks; ++slot) {
    const CaptureTaskStats& t = capture.tasks[slot];
    std::uint64_t m = 0;
    const mem::ClientId client = mem::ClientId::task(t.id);
    for (std::size_t s = 0; s < nstreams; ++s)
      if (capture.trace.streams[s].client() == client) {
        m = misses[s];
        break;
      }
    frag.add(t.name, sets, static_cast<double>(m),
             static_cast<double>(reconstruct_active_cycles(
                 t.compute_cycles, t.mem_cycles, demand[slot], surcharge)),
             static_cast<double>(t.instructions));
  }
  for (std::size_t s = 0; s < nstreams; ++s) {
    const ClientTrace& stream = capture.trace.streams[s];
    if (!stream.client().is_buffer()) continue;
    frag.add(entries[s]->name, sets, static_cast<double>(misses[s]), 0.0,
             0.0);
  }
  return frag;
}

MissProfile replay_profile_reference(const std::vector<MultiReplayJob>& jobs,
                                     const mem::CacheConfig& l2,
                                     std::uint64_t l2_seed, Cycle surcharge) {
  std::vector<ProfileFragment> fragments;
  for (const MultiReplayJob& job : jobs) {
    assert(job.capture != nullptr);
    for (const ReplayGridPoint& p : job.points) {
      assert(p.plan != nullptr);
      fragments.push_back(replay_fragment(*job.capture, *p.plan, l2, l2_seed,
                                          p.sets, p.order, surcharge));
    }
  }
  return fold_fragments(std::move(fragments));
}

}  // namespace cms::opt
