#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace raidsim {

void OnlineStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double min_value, double max_value, std::size_t buckets)
    : min_value_(min_value),
      log_min_(std::log(min_value)),
      log_step_((std::log(max_value) - std::log(min_value)) /
                static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(min_value > 0.0 && max_value > min_value && buckets > 0);
}

std::size_t Histogram::bucket_of(double x) const {
  std::size_t idx = 0;
  if (x > min_value_) {
    idx = static_cast<std::size_t>((std::log(x) - log_min_) / log_step_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;
  }
  return idx;
}

void Histogram::merge(const Histogram& other) {
  assert(counts_.size() == other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::bucket_lower_bound(std::size_t i) const {
  return std::exp(log_min_ + log_step_ * static_cast<double>(i));
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= target && counts_[i] > 0) {
      // Interpolate within the bucket.
      const double lo = bucket_lower_bound(i);
      const double hi = bucket_lower_bound(i + 1);
      const double within =
          1.0 - static_cast<double>(cum - target) / static_cast<double>(counts_[i]);
      return lo + (hi - lo) * within;
    }
  }
  return bucket_lower_bound(counts_.size());
}

LatencyRecorder::LatencyRecorder() : hist_(0.01, 100000.0, 512) {}

void LatencyRecorder::add(double ms) { add(ms, bucket_of(ms)); }

void LatencyRecorder::add(double ms, std::size_t bucket) {
  stats_.add(ms);
  hist_.add_to_bucket(bucket);
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  stats_.merge(other.stats_);
  hist_.merge(other.hist_);
}

}  // namespace raidsim
