#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "bench.hpp"

namespace replaybench {

namespace {

constexpr std::uint64_t kEvents = 450000;
constexpr std::size_t kPending = 16384;
constexpr std::size_t kSlots = std::size_t{1} << 20;  // power of two
constexpr std::size_t kBlocks = std::size_t{1} << 21;
constexpr std::uint32_t kDisks = 130;
constexpr std::size_t kLive = 256;

struct Event {
  double t;
  std::uint32_t disk;
  std::uint32_t req;
};

bool later(const Event& a, const Event& b) { return a.t > b.t; }

}  // namespace

struct SpeedProbe::State {
  std::vector<Event> heap;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> values;
  std::vector<double> head;
  std::vector<std::unique_ptr<std::uint64_t[]>> live;
  std::uint64_t checksum = 0;

  State()
      : keys(kSlots), values(kSlots), head(kDisks), live(kLive) {
    heap.reserve(kPending + 1);
  }

  void run() {
    std::fill(keys.begin(), keys.end(), 0);
    std::fill(values.begin(), values.end(), 0);
    std::fill(head.begin(), head.end(), 0.0);
    heap.clear();
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto next = [&rng] {  // xorshift64
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (std::uint32_t i = 0; i < kPending; ++i) {
      heap.push_back({static_cast<double>(next() % 1000), i % kDisks, i});
      std::push_heap(heap.begin(), heap.end(), later);
    }
    std::size_t used = 0;
    for (std::uint64_t e = 0; e < kEvents; ++e) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const Event ev = heap.back();
      heap.pop_back();
      const std::uint64_t block = next() % kBlocks + 1;
      std::size_t h = (block * 0x9e3779b97f4a7c15ULL) >> 44;
      while (keys[h] != 0 && keys[h] != block) h = (h + 1) & (kSlots - 1);
      if (keys[h] == 0 && used < kSlots / 2) {
        keys[h] = block;
        ++used;
      }
      values[h] += ev.req;
      const double cylinder = static_cast<double>(block % 1260);
      const double distance = std::fabs(cylinder - head[ev.disk]);
      head[ev.disk] = cylinder;
      const double service = 2.0 + 0.46 * std::sqrt(distance) +
                             static_cast<double>(next() % 1667) * 0.01;
      if ((e & 7) == 0) {
        auto& slot = live[(e >> 3) % kLive];
        slot.reset(new std::uint64_t[8]);
        slot[0] = e;
      }
      heap.push_back({ev.t + service,
                      static_cast<std::uint32_t>(next() % kDisks), ev.req + 1});
      std::push_heap(heap.begin(), heap.end(), later);
    }
    checksum = used;
    for (std::size_t i = 0; i < kSlots; i += 4093) checksum += values[i];
    for (const Event& ev : heap)
      checksum = checksum * 31 + static_cast<std::uint64_t>(ev.t * 100.0);
  }
};

SpeedProbe::SpeedProbe() : state_(std::make_unique<State>()) {}

SpeedProbe::~SpeedProbe() = default;

double SpeedProbe::run() {
  const auto start = Clock::now();
  state_->run();
  const double wall = seconds_since(start);
  if (checksum_ == 0) checksum_ = state_->checksum;
  if (state_->checksum != checksum_)
    throw std::logic_error("speed probe checksum changed between runs");
  return wall;
}

}  // namespace replaybench
