#include "engine/sim_pipeline.h"

#include <algorithm>

#include "common/assert.h"

namespace skewless {

SimPipeline::SimPipeline(std::vector<std::unique_ptr<SimEngine>> stages)
    : stages_(std::move(stages)) {
  SKW_EXPECTS(!stages_.empty());
  for (const auto& s : stages_) SKW_EXPECTS(s != nullptr);
}

PipelineMetrics SimPipeline::step() {
  PipelineMetrics pm;
  pm.interval = interval_++;
  pm.stages.reserve(stages_.size());

  double min_alpha = 1.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    IntervalReport sm = stages_[i]->step();
    const double offered_tps =
        static_cast<double>(sm.emitted) / (sm.wall_ms / 1000.0);
    const double alpha =
        offered_tps > 0.0 ? sm.throughput_tps / offered_tps : 1.0;
    if (alpha < min_alpha) {
      min_alpha = alpha;
      pm.bottleneck_stage = i;
    }
    pm.end_to_end_latency_ms += sm.avg_latency_ms;
    if (i == 0) pm.offered_tps = offered_tps;
    pm.stages.push_back(std::move(sm));
  }
  pm.throughput_tps = pm.offered_tps * min_alpha;
  return pm;
}

std::vector<PipelineMetrics> SimPipeline::run(int intervals) {
  std::vector<PipelineMetrics> out;
  out.reserve(static_cast<std::size_t>(intervals));
  for (int i = 0; i < intervals; ++i) out.push_back(step());
  return out;
}

}  // namespace skewless
