#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace raidsim {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MatchesNaiveMoments) {
  OnlineStats s;
  std::vector<double> xs{1.5, 2.5, -3.0, 7.0, 0.0, 4.25};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(s.min(), -3.0);
  EXPECT_EQ(s.max(), 7.0);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(OnlineStats, MergeEquivalentToSequential) {
  Rng rng(5);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 2.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 3.0);
}

TEST(Histogram, QuantileWithinBucketResolution) {
  Histogram h(0.1, 1000.0, 256);
  Rng rng(9);
  std::vector<double> xs(10000);
  for (auto& x : xs) x = rng.uniform(1.0, 100.0);
  for (double x : xs) h.add(x);
  std::sort(xs.begin(), xs.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.08) << "q=" << q;
  }
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(1.0, 10.0, 4);
  h.add(0.001);
  h.add(1e9);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h(1.0, 10.0, 4);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(1.0, 100.0, 16), b(1.0, 100.0, 16);
  a.add(5.0);
  b.add(5.0);
  b.add(50.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(LatencyRecorder, BasicConsistency) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_NEAR(r.mean(), 50.5, 1e-9);
  EXPECT_NEAR(r.p50(), 50.0, 5.0);
  EXPECT_NEAR(r.p95(), 95.0, 6.0);
  EXPECT_EQ(r.max(), 100.0);
}

TEST(LatencyRecorder, Merge) {
  LatencyRecorder a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.mean(), 2.0, 1e-12);
}

TEST(LatencyRecorder, AddWithPrecomputedBucketIsIdentical) {
  // add(x, bucket_of(x)) on one recorder must leave exactly what add(x)
  // leaves on another, and the bucket may come from a third recorder.
  LatencyRecorder plain, bucketed;
  const LatencyRecorder probe;
  std::vector<double> xs{-1.0, 0.0, 0.005, 0.01, 100000.0, 1e9, 7.25};
  const Histogram& h = probe.histogram();
  for (std::size_t i = 0; i < h.bucket_count(); i += 37) {
    const double edge = h.bucket_lower_bound(i);
    xs.push_back(edge);
    xs.push_back(std::nextafter(edge, 0.0));
    xs.push_back(std::nextafter(edge, 1e300));
  }
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) xs.push_back(std::exp(rng.uniform(-6.0, 13.0)));
  for (double x : xs) {
    plain.add(x);
    bucketed.add(x, probe.bucket_of(x));
  }
  const OnlineStats& a = plain.stats();
  const OnlineStats& b = bucketed.stats();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  ASSERT_EQ(plain.histogram().count(), bucketed.histogram().count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i)
    ASSERT_EQ(plain.histogram().bucket(i), bucketed.histogram().bucket(i))
        << "bucket " << i;
  EXPECT_EQ(plain.p999(), bucketed.p999());
  // The edge values really land in the edge buckets.
  EXPECT_EQ(probe.bucket_of(-1.0), 0u);
  EXPECT_EQ(probe.bucket_of(0.01), 0u);
  EXPECT_EQ(probe.bucket_of(1e9), h.bucket_count() - 1);
}

}  // namespace
}  // namespace raidsim
