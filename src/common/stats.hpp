// Small statistics helpers used by the simulator and the benchmark
// harnesses: running mean/variance, min/max, and fixed-bucket histograms.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cms {

/// Welford running statistics over a stream of doubles.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram over [lo, hi) with `buckets` equal-width bins plus overflow
/// and underflow counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::uint64_t total() const { return total_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  const std::vector<std::uint64_t>& buckets() const { return counts_; }
  double bucket_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }

  /// Value below which `q` (in [0,1]) of the samples fall, estimated from
  /// bucket boundaries.
  double quantile(double q) const;

  std::string to_string(std::size_t max_rows = 16) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

/// Ratio formatted as "a/b (p%)".
std::string ratio_string(std::uint64_t num, std::uint64_t den);

}  // namespace cms
