#include "mem/cache.hpp"

#include <bit>
#include <cassert>

namespace cms::mem {

std::string CacheConfig::to_string() const {
  return std::to_string(size_bytes / 1024) + "KB/" + std::to_string(ways) +
         "way/" + std::to_string(line_bytes) + "B (" + std::to_string(num_sets()) +
         " sets)";
}

SetAssocCache::SetAssocCache(const CacheConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes))),
      sets_(cfg.num_sets()), seed_(seed) {
  assert(cfg_.valid());
  lines_.resize(static_cast<std::size_t>(sets_) * cfg_.ways);
}

SetAssocCache::Line* SetAssocCache::find(std::uint32_t set_index, Addr line_addr) {
  Line* base = &lines_[static_cast<std::size_t>(set_index) * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag_line == line_addr) return &base[w];
  }
  return nullptr;
}

SetAssocCache::Line& SetAssocCache::choose_victim(std::uint32_t set_index,
                                                  WayRange ways,
                                                  ClientId client) {
  Line* base = &lines_[static_cast<std::size_t>(set_index) * cfg_.ways];
  const std::uint32_t first = ways.unrestricted() ? 0 : ways.first_way;
  const std::uint32_t count = ways.unrestricted() ? cfg_.ways : ways.num_ways;
  assert(first + count <= cfg_.ways);
  // Prefer an invalid way within the allowed range.
  for (std::uint32_t w = first; w < first + count; ++w)
    if (!base[w].valid) return base[w];
  switch (cfg_.replacement) {
    case Replacement::kRandom: {
      // Counter-based per-client stream: the n-th random replacement by
      // `client` is a pure function of (seed, client, n). Other clients'
      // interleaved traffic cannot perturb it, so trace replay — which
      // pushes one client's stream through a standalone cache with the
      // same seed — reproduces the exact victim sequence (opt/trace.hpp).
      const std::uint64_t n = rand_seq_[client]++;
      return base[first + random_victim_way(seed_, client.key(), n, count)];
    }
    case Replacement::kLru:
    case Replacement::kFifo: {
      Line* victim = &base[first];
      for (std::uint32_t w = first + 1; w < first + count; ++w)
        if (base[w].stamp < victim->stamp) victim = &base[w];
      return *victim;
    }
  }
  return base[first];
}

void SetAssocCache::touch_hit(Line& line, AccessType type) {
  ++tick_;
  ++stats_.accesses;
  ++stats_.hits;
  if (cfg_.replacement == Replacement::kLru) line.stamp = tick_;
  if (type == AccessType::kWrite) {
    if (cfg_.write_policy == WritePolicy::kWriteBackAllocate)
      line.dirty = true;
    // Write-through: the write is forwarded; line stays clean.
  }
  // Ownership stays with the inserting client (see the class comment in
  // cache.hpp): a cross-client hit must not re-home the line, or
  // occupancy_of / evictions_by_other misattribute from then on.
}

bool SetAssocCache::access_if_hit(Addr addr, AccessType type) {
  Line* line = find(index_of(addr), line_of(addr));
  if (line == nullptr) return false;
  touch_hit(*line, type);
  return true;
}

AccessResult SetAssocCache::access_at(std::uint32_t set_index, Addr addr,
                                      AccessType type, ClientId client,
                                      WayRange ways) {
  assert(set_index < sets_);
  const Addr line_addr = line_of(addr);
  AccessResult res;

  if (Line* line = find(set_index, line_addr)) {
    touch_hit(*line, type);
    res.hit = true;
    return res;
  }

  ++tick_;
  ++stats_.accesses;
  ++stats_.misses;
  res.cold = touched_lines_.insert(line_addr).second;
  if (res.cold) ++stats_.cold_misses;

  if (type == AccessType::kWrite &&
      cfg_.write_policy == WritePolicy::kWriteThroughNoAllocate) {
    // No-allocate: the write goes to the next level; nothing is cached.
    return res;
  }

  Line& victim = choose_victim(set_index, ways, client);
  if (victim.valid) {
    if (victim.dirty) {
      res.writeback = true;
      res.victim_line = victim.tag_line;
      ++stats_.writebacks;
    }
    res.victim_owner = victim.owner;
    if (victim.owner != client) ++stats_.evictions_by_other;
  }
  victim.valid = true;
  victim.dirty = (type == AccessType::kWrite &&
                  cfg_.write_policy == WritePolicy::kWriteBackAllocate);
  victim.tag_line = line_addr;
  victim.owner = client;
  victim.stamp = tick_;
  return res;
}

bool SetAssocCache::contains(std::uint32_t set_index, Addr addr) const {
  const Addr line_addr = line_of(addr);
  const Line* base = &lines_[static_cast<std::size_t>(set_index) * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w)
    if (base[w].valid && base[w].tag_line == line_addr) return true;
  return false;
}

std::uint64_t SetAssocCache::flush() {
  std::uint64_t dirty = 0;
  for (auto& line : lines_) {
    if (line.valid && line.dirty) {
      ++dirty;
      ++stats_.writebacks;
    }
    line = Line{};
  }
  return dirty;
}

std::uint64_t SetAssocCache::flush_client(ClientId client) {
  std::uint64_t dirty = 0;
  for (auto& line : lines_) {
    if (line.valid && line.owner == client) {
      if (line.dirty) {
        ++dirty;
        ++stats_.writebacks;
      }
      line = Line{};
    }
  }
  return dirty;
}

std::uint64_t SetAssocCache::flush_sets(std::uint32_t first_set,
                                        std::uint32_t count) {
  assert(first_set + count <= sets_);
  std::uint64_t dirty = 0;
  const std::size_t begin = static_cast<std::size_t>(first_set) * cfg_.ways;
  const std::size_t end = begin + static_cast<std::size_t>(count) * cfg_.ways;
  for (std::size_t i = begin; i < end; ++i) {
    Line& line = lines_[i];
    if (line.valid && line.dirty) {
      ++dirty;
      ++stats_.writebacks;
    }
    line = Line{};
  }
  return dirty;
}

std::uint64_t SetAssocCache::occupancy() const {
  std::uint64_t n = 0;
  for (const auto& line : lines_)
    if (line.valid) ++n;
  return n;
}

std::uint64_t SetAssocCache::occupancy_of(ClientId client) const {
  std::uint64_t n = 0;
  for (const auto& line : lines_)
    if (line.valid && line.owner == client) ++n;
  return n;
}

}  // namespace cms::mem
