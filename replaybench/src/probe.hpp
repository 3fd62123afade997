// Host-speed probe: a fixed kernel, owned by the benchmark and independent
// of raidsim's code, timed next to every timed replay and setup so that
// host time can be expressed at a reference host speed.
#pragma once

#include <cstdint>
#include <memory>

namespace replaybench {

/// Probe wall time on the machine the benchmark was tuned on (4-vCPU
/// Intel Xeon VM, GCC 12 Release) in its fast state: the reference speed
/// the host metrics are expressed at.
constexpr double kProbeReferenceS = 0.07;

/// A small discrete-event loop shaped like a replay: a binary heap of
/// pending events, an open-addressed block table of 12 MB, a seek-curve
/// square root per event, and a small allocation every eighth event. It
/// runs the same events on every call, on the calling thread, and takes
/// about kProbeReferenceS on the reference machine.
class SpeedProbe {
 public:
  SpeedProbe();
  ~SpeedProbe();

  /// Run the kernel once; its wall seconds. Throws std::logic_error if a
  /// run's checksum differs from the first run's, which would mean the
  /// kernel is not doing fixed work.
  double run();

 private:
  struct State;
  std::unique_ptr<State> state_;
  std::uint64_t checksum_ = 0;
};

/// Host seconds `s` at the reference speed, given the probe's wall time
/// just before and just after them.
inline double at_reference_speed(double s, double probe_before,
                                 double probe_after) {
  return s * kProbeReferenceS / (0.5 * (probe_before + probe_after));
}

}  // namespace replaybench
