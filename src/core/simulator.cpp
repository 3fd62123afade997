#include "core/simulator.hpp"

namespace raidsim {

Simulator::Simulator(const SimulationConfig& config,
                     const TraceGeometry& geometry)
    : ReplayEngine(config, geometry, /*per_shard_artifacts=*/false),
      kernel_(config_, geometry_, 0, 1, EngineKind::kClassic) {
  kernels_.push_back(&kernel_);
  kernel_.start_sampler();
}

Simulator::~Simulator() = default;

void Simulator::submit(const TraceRecord& record,
                       std::function<void(SimTime)> on_complete) {
  validate_record(record);
  if (on_complete) {
    dispatch(record, std::move(on_complete));
  } else {
    dispatch(record);
  }
}

void Simulator::pump(TraceStream& trace) {
  auto record = trace.next();
  if (!record) {
    kernel_.finish_input();
    return;
  }
  if (validate_records_) validate_record(*record);
  arrival_time_ += record->delta_ms;
  kernel_.eq().schedule_at(arrival_time_, [this, rec = *record, &trace] {
    dispatch(rec);
    pump(trace);
  });
}

Metrics Simulator::run(TraceStream& trace) {
  begin_run(trace);
  validate_records_ = !trace.prevalidated();
  progress_total_ = trace.size_hint();
  pump(trace);
  drive(kernel_);
  return finish();
}

Metrics Simulator::drain_and_finalize() {
  claim_run();
  // Let in-flight work (and background destage of it) complete; the
  // periodic timers stop as soon as nothing is outstanding.
  kernel_.finish_input();
  while (kernel_.eq().step()) {
  }
  return EngineKernel::merge(kernels_);
}

Metrics run_simulation(const SimulationConfig& config, TraceStream& trace) {
  Simulator simulator(config, trace.geometry());
  return simulator.run(trace);
}

}  // namespace raidsim
