// Byte-stream serialization layer: bounds-checked writer/reader primitives
// shared by every binary on-disk format in the library (the trace-store
// file format of opt/trace.hpp is the first client) and by the in-memory
// delta codecs that predate it.
//
// Design rules:
//  * integers are varint-encoded (LEB128) unless a field must be patchable
//    or located at a fixed offset, in which case fixed32/fixed64
//    little-endian is used — byte order is part of the format, never the
//    host's;
//  * signed values go through zigzag so small negatives stay small;
//  * every read is bounds-checked: malformed or truncated input throws
//    std::runtime_error (never UB, never an assert that compiles away);
//  * content addressing uses FNV-1a 64 over the encoded bytes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cms::serialize {

// ---- Hashing (content addressing, checksums) ----

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a 64 over `n` bytes, continuing from `h` (chainable).
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n,
                             std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a 64 over `n` bytes taken as little-endian 8-byte words, then
/// over the 0-7 tail bytes one at a time: one multiply per word instead
/// of one per byte. A change confined to one word still always changes
/// the result, since xor with a fixed word and multiplication by the odd
/// prime are both bijections of the state. The capture file's trailer
/// (opt/trace.hpp) is its one user; the other formats keep fnv1a64.
inline std::uint64_t fnv1a64_words(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, data + i, 8);
    } else {
      for (int b = 0; b < 8; ++b)
        w |= static_cast<std::uint64_t>(data[i + b]) << (8 * b);
    }
    h ^= w;
    h *= kFnvPrime;
  }
  return fnv1a64(data + i, n - i, h);
}

/// 128-bit content address as 32 lowercase hex chars: two decorrelated
/// FNV-1a 64 streams, the second seeded by mixing the first. THE digest
/// construction of every content-addressing scheme in the library
/// (Experiment::trace_digest, opt::PlanKey) — change it here or the
/// schemes diverge.
std::string fnv1a128_hex(const std::uint8_t* data, std::size_t n);

// ---- Zigzag mapping for signed varints ----

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Append a varint to a raw buffer — the hot-path form used by the trace
/// delta codec, which owns its byte vector (ByteWriter wraps this).
inline void put_varint(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

// ---- File output ----

/// Write `bytes` to `path` atomically enough for a content-addressed
/// store: a uniquely-named temp file in the same directory, then a
/// rename. Concurrent writers of the same path (threads or processes)
/// never share a partial file, and with identical content — the
/// content-addressing invariant — either rename winning is correct.
/// Used by both on-disk artifact types (.cmstrace captures, .cmsplan
/// plan-cache entries). Throws std::runtime_error naming the path on
/// any I/O failure.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

// ---- Writer ----

/// Append-only byte stream builder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void raw(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }
  void fixed32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void fixed64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void varint(std::uint64_t v) { put_varint(buf_, v); }
  void svarint(std::int64_t v) { varint(zigzag(v)); }
  /// Length-prefixed string (varint byte count + raw bytes).
  void str(std::string_view s) {
    varint(s.size());
    raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// ---- Reader ----

/// Bounds-checked forward reader over a byte range it does not own.
/// Every accessor throws std::runtime_error (message prefixed with
/// `context`, e.g. a file path) on truncated or malformed input.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size,
             std::string context = "byte stream")
      : data_(data), size_(size), context_(std::move(context)) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf,
                      std::string context = "byte stream")
      : ByteReader(buf.data(), buf.size(), std::move(context)) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  const std::uint8_t* raw(std::size_t n) {
    need(n, "raw bytes");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  std::uint32_t fixed32() {
    need(4, "fixed32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t fixed64() {
    need(8, "fixed64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1, "varint");
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    fail("malformed varint (more than 10 continuation bytes)");
  }
  std::int64_t svarint() { return unzigzag(varint()); }
  /// A varint count of elements that each encode to at least one byte.
  /// A count beyond the bytes left is corruption, so it fails here,
  /// before a caller reserves by it.
  std::uint64_t count(const char* what) {
    const std::uint64_t n = varint();
    if (n > remaining())
      fail(std::string(what) + " count " + std::to_string(n) +
           " exceeds the " + std::to_string(remaining()) +
           " bytes left");
    return n;
  }
  std::string str() {
    const std::uint64_t n = varint();
    if (n > remaining()) fail("truncated while reading string");
    const auto* p = raw(static_cast<std::size_t>(n));
    return std::string(reinterpret_cast<const char*>(p),
                       static_cast<std::size_t>(n));
  }

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n, const char* what) {
    if (size_ - pos_ < n)
      fail(std::string("truncated while reading ") + what);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace cms::serialize
