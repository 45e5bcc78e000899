// CPU topology for pinning: which logical CPUs are distinct physical
// cores vs SMT siblings. Parsed once from /sys; falls back to the
// identity order when sysfs is unavailable so --pin never breaks.
#pragma once

#include <cstddef>
#include <vector>

namespace skewless {

struct CpuTopology {
  /// std::thread::hardware_concurrency() (≥ 1).
  unsigned hardware_threads = 1;
  /// Number of distinct (package, core) pairs seen in sysfs.
  unsigned physical_cores = 1;
  /// True when hardware_threads > physical_cores (SMT siblings exist).
  bool smt = false;
  /// Logical CPU ids ordered for pinning: the first CPU of every
  /// distinct physical core (in CPU-index order), then the remaining
  /// SMT siblings. Pinning thread i to pin_order[i % size] spreads work
  /// across physical cores before doubling up on hyperthreads.
  std::vector<int> pin_order;
};

/// The host topology, probed once (thread-safe static init).
[[nodiscard]] const CpuTopology& cpu_topology();

}  // namespace skewless
