// Fig. 18 (appendix) — routing-table size versus the number of balance
// adjustments when running MinMig (no table bound), K = 10^4.
//
// Expected shape (paper): smaller θmax grows the table faster; all θmax
// curves converge toward K · (N_D − 1) / N_D (~9000 entries at N_D = 10)
// after many adjustments, because an unbounded MinMig eventually routes
// almost every key explicitly.
#include "bench_common.h"
#include "common/consistent_hash.h"
#include "core/controller.h"
#include "core/planners.h"
#include "workload/synthetic.h"

using namespace skewless;
using namespace skewless::bench;

namespace {

constexpr std::uint64_t kNumKeys = 10'000;
constexpr InstanceId kInstances = 10;

std::vector<std::pair<int, std::size_t>> run(double theta,
                                             int max_adjustments) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = kNumKeys;
  opts.skew = 0.85;
  opts.tuples_per_interval = 500'000;
  opts.fluctuation = 1.0;
  opts.seed = 37;
  ZipfFluctuatingSource source(opts);

  ControllerConfig cfg;
  cfg.planner.theta_max = theta;
  cfg.planner.max_table_entries = 0;  // MinMig cannot bound the table
  Controller controller(
      AssignmentFunction(ConsistentHashRing(kInstances, 128, 21), 0),
      std::make_unique<MinMigPlanner>(), cfg, kNumKeys);

  std::vector<std::pair<int, std::size_t>> growth;
  int adjustments = 0;
  int guard = 0;
  while (adjustments < max_adjustments && guard < max_adjustments * 4) {
    ++guard;
    const auto load = source.next_interval();
    for (std::size_t k = 0; k < load.counts.size(); ++k) {
      if (load.counts[k] == 0) continue;
      controller.stats().record(static_cast<KeyId>(k),
                                static_cast<double>(load.counts[k]),
                                8.0 * static_cast<double>(load.counts[k]));
    }
    if (controller.end_interval().has_value()) {
      ++adjustments;
      if ((adjustments & (adjustments - 1)) == 0) {  // powers of two
        growth.emplace_back(adjustments,
                            controller.assignment().table().size());
      }
    }
  }
  return growth;
}

}  // namespace

int main() {
  constexpr int kMaxAdjustments = 1024;
  ResultTable table(
      "Fig 18 routing-table size vs #adjustments (MinMig, K=1e4)",
      {"adjustments", "theta=0.02", "theta=0.08", "theta=0.15",
       "theta=0.30"});
  const auto g002 = run(0.02, kMaxAdjustments);
  const auto g008 = run(0.08, kMaxAdjustments);
  const auto g015 = run(0.15, kMaxAdjustments);
  const auto g030 = run(0.30, kMaxAdjustments);
  const auto value_at = [](const std::vector<std::pair<int, std::size_t>>& g,
                           int adj) -> std::string {
    for (const auto& [a, size] : g) {
      if (a == adj) return std::to_string(size);
    }
    return "-";
  };
  for (int adj = 1; adj <= kMaxAdjustments; adj *= 2) {
    table.add_row({std::to_string(adj), value_at(g002, adj),
                   value_at(g008, adj), value_at(g015, adj),
                   value_at(g030, adj)});
  }
  table.print();
  std::printf("convergence bound K*(ND-1)/ND = %.0f entries\n",
              static_cast<double>(kNumKeys) * (kInstances - 1) / kInstances);
  return 0;
}
