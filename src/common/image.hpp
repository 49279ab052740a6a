// Simple 8-bit planar images plus deterministic synthetic content
// generators. The paper's workloads decode pictures; since we cannot ship
// the original Philips test content, our encoders compress synthetic but
// structured images (gradients, texture, moving boxes) generated here.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace cms {

/// One 8-bit grayscale plane with row-major storage.
class Image {
 public:
  Image() = default;
  Image(int width, int height, std::uint8_t fill = 0)
      : width_(width), height_(height),
        pixels_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {}

  int width() const { return width_; }
  int height() const { return height_; }

  std::uint8_t at(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                   static_cast<std::size_t>(x)];
  }
  void set(int x, int y, std::uint8_t v) {
    pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x)] = v;
  }
  /// Clamped read: coordinates outside the image are clamped to the border
  /// (used by the convolution tasks).
  std::uint8_t at_clamped(int x, int y) const;

  const std::vector<std::uint8_t>& pixels() const { return pixels_; }
  std::vector<std::uint8_t>& pixels() { return pixels_; }

  bool operator==(const Image& o) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// Deterministic synthetic test content.
namespace testimg {

/// Smooth diagonal gradient plus low-frequency sinusoidal texture: easy to
/// compress, exercises DC-dominated entropy coding.
Image gradient(int width, int height, std::uint64_t seed);

/// Random blocks of uniform gray over a textured background: edges for the
/// Canny pipeline, AC energy for the DCT codecs.
Image blocks(int width, int height, std::uint64_t seed);

/// Frame `t` of a synthetic video: textured background with moving
/// rectangles (predictable motion for the MPEG2-like codec's P frames).
Image moving_boxes(int width, int height, int t, std::uint64_t seed);

}  // namespace testimg

/// Mean absolute difference between two equally sized images.
double mean_abs_diff(const Image& a, const Image& b);

/// Peak signal-to-noise ratio in dB (infinite for identical images,
/// capped at 99 dB).
double psnr(const Image& a, const Image& b);

}  // namespace cms
