#pragma once
// Basic statistics primitives: samplers (mean/stddev/min/max) and
// fixed-bin histograms.  All are plain value types; higher-level probes in
// probes.hpp bind them to simulation objects.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

namespace mpsoc::stats {

/// Streaming sample statistics (Welford).
class Sampler {
 public:
  void add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void reset() { *this = Sampler{}; }

  /// State-manifest hook (src/sim/state.hpp): stats are simulation state —
  /// deep-check replay re-runs evaluate(), so samples added there must roll
  /// back or the second pass double-counts.
  auto simStateMembers() { return std::tie(n_, mean_, m2_, sum_, min_, max_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram over [lo, hi) with uniform bins plus under/overflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {}

  void add(double x) {
    ++total_;
    if (x < lo_) {
      ++underflow_;
    } else if (x >= hi_) {
      ++overflow_;
    } else {
      auto idx = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                          static_cast<double>(counts_.size()));
      idx = std::min(idx, counts_.size() - 1);
      ++counts_[idx];
    }
  }

  /// Accumulate another histogram with identical bounds and bin count.
  void merge(const Histogram& other) {
    if (counts_.size() != other.counts_.size()) return;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  const std::vector<std::uint64_t>& bins() const { return counts_; }
  double binLow(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(counts_.size());
  }

  /// Value below which `q` of the observed in-range samples fall.
  double quantile(double q) const {
    std::uint64_t in_range = total_ - underflow_ - overflow_;
    if (in_range == 0) return lo_;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(in_range));
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      acc += counts_[i];
      if (acc >= target) return binLow(i + 1);
    }
    return hi_;
  }

  /// State-manifest hook (src/sim/state.hpp).  lo_/hi_ are configuration but
  /// ride along: restoring them to themselves is harmless.
  auto simStateMembers() {
    return std::tie(lo_, hi_, counts_, total_, underflow_, overflow_);
  }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace mpsoc::stats
