// Reference outputs at the default seed, one row per replay. A replay
// must match its row to 1e-9 relative: that tolerates the low-bit
// floating-point shifts of a reordered summation but not a model change.
// Regenerate with `replaybench --workload <name> --seed 1 --emit-reference`
// only when a change is meant to move the model, and say so.
#pragma once

#include <cstdint>

namespace replaybench {

struct ReferenceRow {
  const char* workload;
  const char* replay;
  std::uint64_t requests;
  double mean_response_ms;
  double p999_response_ms;
  double read_hit_ratio;
  double write_hit_ratio;
  std::uint64_t disk_ops;
};

inline constexpr ReferenceRow kReference[] = {
    {"t1_cached_raid5", "raid5_cached",
     336251, 18.535309199350412, 101.73967592277363, 0.16434051664320692,
     0.8298765064722512, 437894},
    {"t2_uncached_orgs_2x", "w0/Base",
     62585, 396.64191989425939, 4801.7645406917354, 0, 0, 62585},
    {"t2_uncached_orgs_2x", "w0/Mirror",
     62585, 132.52264579789122, 1891.818209045384, 0, 0, 79945},
    {"t2_uncached_orgs_2x", "w0/RAID5",
     62585, 380.81120711083304, 2908.2753560893525, 0, 0, 151027},
    {"t2_uncached_orgs_2x", "w0/ParStrip",
     62585, 552.53768310834334, 6353.3763853233095, 0, 0, 80321},
    {"t2_uncached_orgs_2x", "w1/Base",
     62585, 395.19685776999444, 4885.2491608618548, 0, 0, 62585},
    {"t2_uncached_orgs_2x", "w1/Mirror",
     62585, 134.09126325361981, 2152.0259458599326, 0, 0, 79943},
    {"t2_uncached_orgs_2x", "w1/RAID5",
     62585, 388.85638970139479, 3274.2977637756026, 0, 0, 150737},
    {"t2_uncached_orgs_2x", "w1/ParStrip",
     62585, 556.47934679838465, 6499.1359123742222, 0, 0, 80316},
    {"t1_uncached_raid5_sharded", "raid5_sharded",
     336251, 29.79765167703194, 153.66407990241282, 0, 0, 488873},
};

}  // namespace replaybench
