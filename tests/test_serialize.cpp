// Tests for the byte-stream serialization layer (common/serialize.hpp):
// primitive round trips, bounds checking on malformed input, and the
// FNV-1a hash used for content addressing.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace cms::serialize {
namespace {

TEST(Serialize, VarintRoundTripsBoundaries) {
  const std::vector<std::uint64_t> values = {
      0,    1,    127,  128,        129,
      0x3FFF, 0x4000, 1ull << 32, std::numeric_limits<std::uint64_t>::max()};
  ByteWriter w;
  for (const auto v : values) w.varint(v);
  ByteReader rd(w.bytes());
  for (const auto v : values) EXPECT_EQ(rd.varint(), v);
  EXPECT_TRUE(rd.done());
}

TEST(Serialize, VarintEncodingIsMinimal) {
  ByteWriter w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.varint(128);
  EXPECT_EQ(w.size(), 3u);  // 127 took 1 byte, 128 takes 2
}

TEST(Serialize, SignedVarintRoundTripsViaZigzag) {
  const std::vector<std::int64_t> values = {
      0, -1, 1, -2, 63, -64, 1 << 20, -(1 << 20),
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  ByteWriter w;
  for (const auto v : values) w.svarint(v);
  ByteReader rd(w.bytes());
  for (const auto v : values) EXPECT_EQ(rd.svarint(), v);
  // Zigzag keeps small negatives small.
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(unzigzag(zigzag(-12345)), -12345);
}

TEST(Serialize, FixedWidthAndStringsRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.fixed32(0xDEADBEEF);
  w.fixed64(0x0123456789ABCDEFull);
  w.str("hello");
  w.str("");  // empty string is legal
  ByteReader rd(w.bytes());
  EXPECT_EQ(rd.u8(), 0xAB);
  EXPECT_EQ(rd.fixed32(), 0xDEADBEEFu);
  EXPECT_EQ(rd.fixed64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(rd.str(), "hello");
  EXPECT_EQ(rd.str(), "");
  EXPECT_TRUE(rd.done());
}

TEST(Serialize, FixedWidthIsLittleEndianOnTheWire) {
  ByteWriter w;
  w.fixed32(0x11223344);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x44);
  EXPECT_EQ(w.bytes()[3], 0x11);
}

TEST(Serialize, TruncatedReadsThrow) {
  ByteWriter w;
  w.fixed64(42);
  ByteReader rd(w.bytes().data(), 3, "unit-test");
  EXPECT_THROW(rd.fixed64(), std::runtime_error);

  // A varint whose continuation bit promises more bytes than exist.
  const std::vector<std::uint8_t> cut = {0x80};
  ByteReader rd2(cut);
  EXPECT_THROW(rd2.varint(), std::runtime_error);

  // A string whose declared length exceeds the stream.
  ByteWriter ws;
  ws.varint(100);  // claims 100 bytes follow
  ws.u8('x');
  ByteReader rd3(ws.bytes());
  EXPECT_THROW(rd3.str(), std::runtime_error);
}

TEST(Serialize, MalformedVarintThrows) {
  // 11 continuation bytes can encode nothing valid in 64 bits.
  const std::vector<std::uint8_t> evil(11, 0x80);
  ByteReader rd(evil);
  EXPECT_THROW(rd.varint(), std::runtime_error);
}

TEST(Serialize, ErrorsNameTheContext) {
  const std::vector<std::uint8_t> empty;
  ByteReader rd(empty.data(), 0, "traces/deadbeef.cmstrace");
  try {
    rd.u8();
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("traces/deadbeef.cmstrace"),
              std::string::npos);
  }
}

TEST(Serialize, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(nullptr, 0), kFnvOffset);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a64(&a, 1), 0xaf63dc4c8601ec8cull);
  const std::uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(fnv1a64(foobar, 6), 0x85944171f73967e8ull);
}

// The word checksum is FNV-1a over little-endian 8-byte words, then the
// tail bytes as fnv1a64 takes them; below one word it is fnv1a64.
TEST(Serialize, Fnv1a64WordsHashesWordsThenTail) {
  const std::uint8_t bytes[] = {'f', 'o', 'o', 'b', 'a', 'r', 'b', 'a', 'z',
                                '!', '?'};
  EXPECT_EQ(fnv1a64_words(bytes, 0), kFnvOffset);
  EXPECT_EQ(fnv1a64_words(bytes, 6), fnv1a64(bytes, 6));
  const std::uint64_t word = 0x61627261626F6F66ull;  // "foobarba", LE
  const std::uint64_t after_word = (kFnvOffset ^ word) * kFnvPrime;
  EXPECT_EQ(fnv1a64_words(bytes, 8), after_word);
  EXPECT_EQ(fnv1a64_words(bytes, 11), fnv1a64(bytes + 8, 3, after_word));
}

// Xor with a word and the odd multiply are bijections of the state, so
// changing any one byte always changes the checksum.
TEST(Serialize, Fnv1a64WordsCatchesEverySingleByteChange) {
  cms::Rng rng(0x5EED5ull);
  std::vector<std::uint8_t> buf(45);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
  const std::uint64_t h = fnv1a64_words(buf.data(), buf.size());
  for (std::size_t pos = 0; pos < buf.size(); ++pos)
    for (int flip = 1; flip < 256; ++flip) {
      buf[pos] ^= static_cast<std::uint8_t>(flip);
      EXPECT_NE(fnv1a64_words(buf.data(), buf.size()), h)
          << "byte " << pos << " xor " << flip;
      buf[pos] ^= static_cast<std::uint8_t>(flip);
    }
}

// ---- Property/fuzz pass (deterministic seeds: failures reproduce) ----

TEST(SerializeFuzz, ReaderNeverOverrunsOnRandomBuffers) {
  // Arbitrary byte soup driven through arbitrary read sequences: every
  // call either returns a value or throws std::runtime_error — it never
  // reads past the end (pos() stays bounded) and never crashes.
  cms::Rng rng(0xBADF00Dull);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> buf(rng.below(48));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
    ByteReader rd(buf.data(), buf.size(), "fuzz");
    try {
      while (!rd.done()) {
        switch (rng.below(6)) {
          case 0: rd.u8(); break;
          case 1: rd.varint(); break;
          case 2: rd.svarint(); break;
          case 3: rd.fixed32(); break;
          case 4: rd.fixed64(); break;
          case 5: rd.str(); break;
        }
        ASSERT_LE(rd.pos(), buf.size());
      }
    } catch (const std::runtime_error&) {
      // Rejection is the correct outcome for malformed input.
    }
    EXPECT_LE(rd.pos(), buf.size());
  }
}

TEST(SerializeFuzz, RandomWriteSequencesRoundTripExactly) {
  // Property: whatever sequence of primitives is written, reading it back
  // in the same order reproduces every value and consumes every byte.
  cms::Rng rng(0x5EEDull);
  for (int i = 0; i < 200; ++i) {
    struct Op {
      int kind;
      std::uint64_t u;
      std::int64_t s;
      std::string str;
    };
    std::vector<Op> ops(1 + rng.below(20));
    ByteWriter w;
    for (auto& op : ops) {
      op.kind = static_cast<int>(rng.below(5));
      op.u = rng.next_u64() >> rng.below(64);
      op.s = static_cast<std::int64_t>(rng.next_u64()) >> rng.below(64);
      switch (op.kind) {
        case 0: w.u8(static_cast<std::uint8_t>(op.u)); break;
        case 1: w.varint(op.u); break;
        case 2: w.svarint(op.s); break;
        case 3: w.fixed64(op.u); break;
        case 4: {
          op.str.resize(rng.below(16));
          for (auto& c : op.str) c = static_cast<char>(rng.next_u32());
          w.str(op.str);
          break;
        }
      }
    }
    ByteReader rd(w.bytes());
    for (const auto& op : ops) {
      switch (op.kind) {
        case 0: EXPECT_EQ(rd.u8(), static_cast<std::uint8_t>(op.u)); break;
        case 1: EXPECT_EQ(rd.varint(), op.u); break;
        case 2: EXPECT_EQ(rd.svarint(), op.s); break;
        case 3: EXPECT_EQ(rd.fixed64(), op.u); break;
        case 4: EXPECT_EQ(rd.str(), op.str); break;
      }
    }
    EXPECT_TRUE(rd.done());
  }
}

TEST(SerializeFuzz, TruncatedPrefixesOfValidStreamsThrowOrStayInBounds) {
  // Every strict prefix of a valid stream, re-read with the same op
  // sequence, must end in a clean runtime_error (never an overrun).
  cms::Rng rng(0x71E44ull);
  for (int i = 0; i < 100; ++i) {
    ByteWriter w;
    const int n = 1 + static_cast<int>(rng.below(8));
    for (int k = 0; k < n; ++k) w.varint(rng.next_u64() >> rng.below(64));
    w.str("tail");
    const std::vector<std::uint8_t>& full = w.bytes();
    // below(size+1) includes the no-truncation case: the full stream must
    // round-trip, every strict prefix must throw.
    const auto cut = static_cast<std::size_t>(rng.below(full.size() + 1));
    ByteReader rd(full.data(), cut, "fuzz-prefix");
    bool threw = false;
    try {
      for (int k = 0; k < n; ++k) rd.varint();
      const std::string s = rd.str();
      EXPECT_EQ(s, "tail");  // only reachable when the cut spared it all
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw || cut == full.size());
    EXPECT_LE(rd.pos(), cut);
  }
}

TEST(Serialize, WriterTakeMovesBufferOut) {
  ByteWriter w;
  w.str("payload");
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace cms::serialize
