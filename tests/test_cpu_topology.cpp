// The worker-placement building blocks: the FirstTouchArray the worker
// slabs live in, and the CPU-topology pin order.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <utility>

#include "common/cpu_topology.h"
#include "common/first_touch.h"

namespace skewless {
namespace {

// ---------------------------------------------------------------------
// FirstTouchArray — the lazily-mapped backing store the first-touch
// placement relies on.

TEST(FirstTouchArrayTest, ResetZeroPrefaultAndMoveSemantics) {
  FirstTouchArray<double> arr;
  EXPECT_TRUE(arr.empty());
  EXPECT_EQ(arr.size(), 0u);

  arr.reset(1000);
  ASSERT_EQ(arr.size(), 1000u);
  ASSERT_NE(arr.data(), nullptr);
  EXPECT_GE(arr.memory_bytes(), 1000 * sizeof(double));
  // Fresh mappings read as zero without any explicit initialization.
  for (std::size_t i = 0; i < arr.size(); ++i) ASSERT_EQ(arr[i], 0.0);

  for (std::size_t i = 0; i < arr.size(); ++i) {
    arr[i] = static_cast<double>(i);
  }
  // prefault() is value-neutral: committing pages must not disturb
  // already-written contents.
  arr.prefault();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    ASSERT_EQ(arr[i], static_cast<double>(i));
  }
  arr.zero();
  for (std::size_t i = 0; i < arr.size(); ++i) ASSERT_EQ(arr[i], 0.0);

  arr[7] = 42.0;
  FirstTouchArray<double> moved = std::move(arr);
  ASSERT_EQ(moved.size(), 1000u);
  EXPECT_EQ(moved[7], 42.0);
  EXPECT_TRUE(arr.empty());  // NOLINT(bugprone-use-after-move): specified

  // reset() replaces the mapping: new extent, zeroed content again.
  moved.reset(64);
  ASSERT_EQ(moved.size(), 64u);
  for (std::size_t i = 0; i < moved.size(); ++i) ASSERT_EQ(moved[i], 0.0);
}

// ---------------------------------------------------------------------
// CPU topology — the worker pin order.

TEST(CpuTopologyTest, PinOrderIsAPermutationCoveringEveryHardwareThread) {
  const CpuTopology& topo = cpu_topology();
  EXPECT_GE(topo.hardware_threads, 1u);
  EXPECT_GE(topo.physical_cores, 1u);
  EXPECT_LE(topo.physical_cores, topo.hardware_threads);
  EXPECT_EQ(topo.smt, topo.hardware_threads > topo.physical_cores);

  ASSERT_EQ(topo.pin_order.size(), topo.hardware_threads);
  std::set<int> seen;
  for (const int cpu : topo.pin_order) {
    EXPECT_GE(cpu, 0);
    EXPECT_TRUE(seen.insert(cpu).second) << "duplicate cpu " << cpu;
  }
  // Physical-core primaries occupy the first physical_cores slots: a
  // worker fleet no larger than the core count never lands on an SMT
  // sibling. (With the identity fallback physical_cores ==
  // hardware_threads and the property holds trivially.)
  std::set<int> primaries(topo.pin_order.begin(),
                          topo.pin_order.begin() +
                              static_cast<std::ptrdiff_t>(topo.physical_cores));
  EXPECT_EQ(primaries.size(), topo.physical_cores);
}

}  // namespace
}  // namespace skewless
