// Simplified MPEG2-like video codec ("m2v"): I/P frames, 16x16
// macroblocks with full-pel motion compensation, per-8x8-block DCT +
// flat quantization + zigzag + exp-Golomb run/level entropy coding.
//
// The encoder (with a decoder-identical reconstruction loop and a +/-4
// full-search motion estimator) generates the bitstream the 13-task
// MPEG2 decoder KPN consumes; the reference decoder is the functional
// oracle. The paper's MPEG2 content cannot be shipped, so the encoder
// compresses synthetic moving-box sequences.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"
#include "common/image.hpp"

namespace cms::apps {

inline constexpr int kMbDim = 16;
inline constexpr int kM2vSearchRange = 4;       // full-pel
inline constexpr int kM2vIntraSadThreshold = 24;  // per-pixel SAD -> intra

struct M2vStream {
  int width = 0;    // multiple of 16
  int height = 0;   // multiple of 16
  int num_frames = 0;
  int qscale = 8;
  std::vector<std::uint8_t> bytes;          // full container
  std::uint32_t max_frame_payload = 0;      // largest frame payload, bytes

  int mb_wide() const { return width / kMbDim; }
  int mb_high() const { return height / kMbDim; }
  int mbs_per_frame() const { return mb_wide() * mb_high(); }
};

/// Frame header as it appears in the container.
struct M2vFrameHeader {
  std::uint8_t type = 'I';  // 'I' or 'P'
  std::uint32_t payload_bytes = 0;
};

inline constexpr std::size_t kM2vSeqHeaderBytes = 8;
inline constexpr std::size_t kM2vFrameHeaderBytes = 5;

/// Encode a sequence (frame 0 is I, the rest P).
M2vStream m2v_encode(const std::vector<Image>& frames, int qscale);

/// Reference decoder (host-only oracle).
std::vector<Image> m2v_reference_decode(const M2vStream& s);

// --- Parsing helpers shared by the reference decoder and the KPN tasks ---

/// Parse the 8-byte sequence header; returns false on bad magic.
bool m2v_parse_seq_header(const std::uint8_t* b, int& width, int& height,
                          int& num_frames, int& qscale);
/// Parse a 5-byte frame header.
M2vFrameHeader m2v_parse_frame_header(const std::uint8_t* b);

/// One decoded macroblock worth of side info.
struct M2vMbInfo {
  bool intra = true;
  int dx = 0, dy = 0;  // full-pel motion vector (inter only)
};

/// Decode the MB mode/MV bits for one macroblock of a frame of `type`.
M2vMbInfo m2v_decode_mb_info(BitReader& br, std::uint8_t frame_type);

/// Decode one block's quantized levels (zigzag order); EOB = ue(64).
void m2v_decode_block_levels(BitReader& br, std::int16_t zz[64]);

/// Dequantize + inverse-zigzag + IDCT into a residual block.
void m2v_block_to_residual(const std::int16_t zz[64], int qscale,
                           std::int16_t res[64]);

/// Reconstruct: clamp(pred + res).
void m2v_reconstruct(const std::uint8_t pred[64], const std::int16_t res[64],
                     std::uint8_t out[64]);

}  // namespace cms::apps
