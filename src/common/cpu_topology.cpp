#include "common/cpu_topology.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>

namespace skewless {
namespace {

/// Reads a small integer sysfs attribute; returns -1 on any failure.
int read_sysfs_int(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return -1;
  int value = -1;
  const int got = std::fscanf(f, "%d", &value);
  std::fclose(f);
  return got == 1 ? value : -1;
}

CpuTopology probe_topology() {
  CpuTopology topo;
  topo.hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

  // (package, core) → first logical CPU claims the physical core; the
  // rest are SMT siblings.
  std::set<std::pair<int, int>> seen_cores;
  std::vector<int> primaries;
  std::vector<int> siblings;
  bool parsed_any = false;
  for (unsigned cpu = 0; cpu < topo.hardware_threads; ++cpu) {
    char path[128];
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/cpu/cpu%u/topology/core_id", cpu);
    const int core = read_sysfs_int(path);
    std::snprintf(
        path, sizeof(path),
        "/sys/devices/system/cpu/cpu%u/topology/physical_package_id", cpu);
    const int pkg = read_sysfs_int(path);
    if (core < 0 || pkg < 0) {
      parsed_any = false;
      break;
    }
    parsed_any = true;
    if (seen_cores.insert({pkg, core}).second) {
      primaries.push_back(static_cast<int>(cpu));
    } else {
      siblings.push_back(static_cast<int>(cpu));
    }
  }

  if (parsed_any && !primaries.empty()) {
    topo.physical_cores = static_cast<unsigned>(primaries.size());
    topo.pin_order = std::move(primaries);
    topo.pin_order.insert(topo.pin_order.end(), siblings.begin(),
                          siblings.end());
  } else {
    // sysfs unavailable (non-Linux, sandbox): identity order — same
    // behavior --pin had before topology awareness.
    topo.physical_cores = topo.hardware_threads;
    topo.pin_order.resize(topo.hardware_threads);
    for (unsigned i = 0; i < topo.hardware_threads; ++i) {
      topo.pin_order[i] = static_cast<int>(i);
    }
  }
  topo.smt = topo.hardware_threads > topo.physical_cores;
  return topo;
}

}  // namespace

const CpuTopology& cpu_topology() {
  static const CpuTopology topo = probe_topology();
  return topo;
}

}  // namespace skewless
