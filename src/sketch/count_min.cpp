#include "sketch/count_min.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace skewless {
namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CountMinSketch::CountMinSketch(Params params) : seed_(params.seed) {
  SKW_EXPECTS(params.epsilon > 0.0 && params.epsilon < 1.0);
  SKW_EXPECTS(params.delta > 0.0 && params.delta < 1.0);
  const double e = std::exp(1.0);
  width_ = next_pow2(static_cast<std::size_t>(std::ceil(e / params.epsilon)));
  depth_ = static_cast<std::size_t>(std::ceil(std::log(1.0 / params.delta)));
  depth_ = std::max<std::size_t>(depth_, 1);
  cells_.assign(depth_ * width_, 0.0);
}

void CountMinSketch::add(KeyId key, double amount) {
  add(amount, probe(key));
}

void CountMinSketch::add(double amount, const KeyProbe& p) {
  SKW_EXPECTS(amount >= 0.0);
  for (std::size_t row = 0; row < depth_; ++row) {
    cells_[row * width_ + cell_index(p, row)] += amount;
  }
  total_ += amount;
}

double CountMinSketch::estimate(KeyId key) const {
  const KeyProbe p = probe(key);
  double est = cells_[cell_index(p, 0)];
  for (std::size_t row = 1; row < depth_; ++row) {
    est = std::min(est, cells_[row * width_ + cell_index(p, row)]);
  }
  return est;
}

void CountMinSketch::add_sketch(const CountMinSketch& other) {
  SKW_EXPECTS(other.width_ == width_ && other.depth_ == depth_ &&
              other.seed_ == seed_);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] += other.cells_[i];
  }
  total_ += other.total_;
}

void CountMinSketch::add_fused(CountMinSketch& first, CountMinSketch& second,
                               const double* pairs, std::size_t width,
                               std::size_t depth, double first_total,
                               double second_total) {
  SKW_EXPECTS(&first != &second);
  SKW_EXPECTS(width == first.width_ && depth == first.depth_);
  SKW_EXPECTS(width == second.width_ && depth == second.depth_);
  // The boundary-merge inner loop, run once per sealed slab: all three
  // arrays stream sequentially, and every source byte read is used.
  double* a = first.cells_.data();
  double* b = second.cells_.data();
  const std::size_t n = first.cells_.size();
  for (std::size_t i = 0; i < n; ++i) {
    a[i] += pairs[2 * i];
    b[i] += pairs[2 * i + 1];
  }
  first.total_ += first_total;
  second.total_ += second_total;
}

void CountMinSketch::subtract_sketch(const CountMinSketch& other) {
  SKW_EXPECTS(other.width_ == width_ && other.depth_ == depth_ &&
              other.seed_ == seed_);
  // Clamps tiny float residue at 0.0; cells are sums of non-negative
  // amounts.
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] = std::max(0.0, cells_[i] - other.cells_[i]);
  }
  total_ = std::max(0.0, total_ - other.total_);
}

void CountMinSketch::clear() {
  std::fill(cells_.begin(), cells_.end(), 0.0);
  total_ = 0.0;
}

double CountMinSketch::effective_epsilon() const {
  return std::exp(1.0) / static_cast<double>(width_);
}

std::size_t CountMinSketch::memory_bytes() const {
  return sizeof(*this) + cells_.capacity() * sizeof(double);
}

}  // namespace skewless
