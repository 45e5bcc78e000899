// Multi-operator pipeline composition over SimEngine stages.
//
// Models a chained topology (e.g. the streaming TPC-H Q5 plan: three join
// stages feeding an aggregation): in steady state the whole pipeline is
// throttled by its slowest stage (backpushing, Fig. 1 of the paper), and
// end-to-end latency is the sum of per-stage latencies.
#pragma once

#include <memory>
#include <vector>

#include "engine/sim_engine.h"

namespace skewless {

struct PipelineMetrics {
  IntervalId interval = 0;
  /// Head-of-pipeline tuple rate after global backpressure.
  double throughput_tps = 0.0;
  double offered_tps = 0.0;
  /// Sum of stage latencies.
  double end_to_end_latency_ms = 0.0;
  /// Index of the stage with the lowest admitted fraction this interval.
  std::size_t bottleneck_stage = 0;
  /// Per-stage interval reports for drill-down.
  std::vector<IntervalReport> stages;
};

class SimPipeline {
 public:
  explicit SimPipeline(std::vector<std::unique_ptr<SimEngine>> stages);

  PipelineMetrics step();
  std::vector<PipelineMetrics> run(int intervals);

  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }
  [[nodiscard]] SimEngine& stage(std::size_t i) { return *stages_[i]; }

 private:
  std::vector<std::unique_ptr<SimEngine>> stages_;
  IntervalId interval_ = 0;
};

}  // namespace skewless
