#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace raidsim {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-resolution log-spaced histogram for latency-like quantities.
/// Buckets cover [min_value, max_value) geometrically; values outside are
/// clamped into the edge buckets. Supports approximate quantiles.
class Histogram {
 public:
  Histogram(double min_value, double max_value, std::size_t buckets);

  void add(double x) { add_to_bucket(bucket_of(x)); }
  void merge(const Histogram& other);

  /// Bucket that add(x) counts x in. Histograms built with the same
  /// bounds agree, so one lookup can feed several of them.
  std::size_t bucket_of(double x) const;
  void add_to_bucket(std::size_t bucket) {
    ++counts_[bucket];
    ++total_;
  }

  std::uint64_t count() const { return total_; }

  /// Approximate q-quantile (q in [0,1]), linear interpolation within the
  /// selected bucket. Returns 0 when empty.
  double quantile(double q) const;

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  double bucket_lower_bound(std::size_t i) const;

 private:
  double min_value_;
  double log_min_;
  double log_step_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Convenience aggregate for a response-time-like metric: streaming
/// moments plus a histogram for percentiles.
class LatencyRecorder {
 public:
  LatencyRecorder();

  void add(double ms);
  /// add(ms) with its histogram bucket already known (bucket_of(ms) of
  /// any recorder; all share the same bounds): a response fed to several
  /// recorders pays for one log().
  void add(double ms, std::size_t bucket);
  std::size_t bucket_of(double ms) const { return hist_.bucket_of(ms); }
  void merge(const LatencyRecorder& other);

  const OnlineStats& stats() const { return stats_; }
  std::uint64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double p50() const { return hist_.quantile(0.50); }
  double p95() const { return hist_.quantile(0.95); }
  double p99() const { return hist_.quantile(0.99); }
  double p999() const { return hist_.quantile(0.999); }
  double max() const { return stats_.max(); }

  const Histogram& histogram() const { return hist_; }

 private:
  OnlineStats stats_;
  Histogram hist_;
};

}  // namespace raidsim
