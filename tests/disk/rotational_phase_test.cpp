// RotationalPhase must equal std::fmod(t, rot) bit for bit: the disk's
// rotational latency, and so every simulated response time, depends on it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "disk/disk.hpp"
#include "util/rng.hpp"

namespace raidsim {
namespace {

constexpr double kRpms[] = {3600.0, 5400.0, 7200.0, 15000.0};

/// Compares bit patterns, so a -0.0 / +0.0 difference also fails.
::testing::AssertionResult SameAsFmod(const RotationalPhase& phase, double t) {
  const double got = phase(t);
  const double want = std::fmod(t, phase.rotation_ms());
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "t=" << std::hexfloat << t << " rot=" << phase.rotation_ms()
         << " got " << got << " want " << want;
}

/// Probes t and the `ulps` representable neighbours on either side.
void CheckAround(const RotationalPhase& phase, double t, int ulps) {
  double lo = t, hi = t;
  for (int i = 0; i < ulps; ++i) {
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
  }
  for (double x = lo; x <= hi; x = std::nextafter(x, hi + 1.0)) {
    ASSERT_TRUE(SameAsFmod(phase, x));
    if (x == hi) break;
  }
}

TEST(RotationalPhase, MatchesFmodOnLogUniformTimes) {
  Rng rng(20240611);
  for (double rpm : kRpms) {
    const RotationalPhase phase(60000.0 / rpm);
    for (int i = 0; i < 200000; ++i) {
      // [1e-3, 1e13] ms: below, across and above the exact domain.
      const double t = std::pow(10.0, rng.uniform(-3.0, 13.0));
      ASSERT_TRUE(SameAsFmod(phase, t));
    }
  }
}

TEST(RotationalPhase, MatchesFmodAroundWholeRevolutions) {
  // k*rot is where a truncated quotient estimate is most often off by
  // one and the remainder lands next to 0 or rot.
  Rng rng(7);
  for (double rpm : kRpms) {
    const RotationalPhase phase(60000.0 / rpm);
    const double rot = phase.rotation_ms();
    for (std::int64_t k = 1; k < 64; ++k)
      CheckAround(phase, static_cast<double>(k) * rot, 8);
    for (int i = 0; i < 2000; ++i) {
      const auto k = static_cast<double>(rng.uniform_u64(3000000) + 1);
      CheckAround(phase, k * rot, 8);
    }
  }
}

TEST(RotationalPhase, MatchesFmodAtBothDomainEdges) {
  for (double rpm : kRpms) {
    const RotationalPhase phase(60000.0 / rpm);
    const double rot = phase.rotation_ms();
    // Just under 8*rot (fallback) through just above it (exact path).
    CheckAround(phase, 8.0 * rot, 16);
    // The top: quotients near 2^26, on both sides of the bound.
    CheckAround(phase, 67108864.0 * rot, 16);
    for (std::int64_t k = 67108864 - 4; k <= 67108864 + 4; ++k)
      CheckAround(phase, static_cast<double>(k) * rot, 8);
    EXPECT_TRUE(SameAsFmod(phase, 0.0));
    EXPECT_TRUE(SameAsFmod(phase, rot));
  }
}

}  // namespace
}  // namespace raidsim
