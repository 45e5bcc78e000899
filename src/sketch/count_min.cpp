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

void CountMinSketch::add_conservative(KeyId key, double amount) {
  add_conservative(amount, probe(key));
}

void CountMinSketch::add(double amount, const KeyProbe& p) {
  SKW_EXPECTS(amount >= 0.0);
  for (std::size_t row = 0; row < depth_; ++row) {
    cells_[row * width_ + cell_index(p, row)] += amount;
  }
  total_ += amount;
}

void CountMinSketch::add_conservative(double amount, const KeyProbe& p) {
  SKW_EXPECTS(amount >= 0.0);
  const double target = row_min(p) + amount;
  for (std::size_t row = 0; row < depth_; ++row) {
    double& cell = cells_[row * width_ + cell_index(p, row)];
    cell = std::max(cell, target);
  }
  total_ += amount;
}

double CountMinSketch::estimate(KeyId key) const {
  return row_min(probe(key));
}

double CountMinSketch::row_min(const KeyProbe& p) const {
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

void CountMinSketch::add_interleaved(const double* cells, std::size_t stride,
                                     std::size_t width, std::size_t depth,
                                     double total) {
  SKW_EXPECTS(width == width_ && depth == depth_);
  // The boundary-merge inner loop, run once per quantity per sealed
  // slab: dst streams sequentially, and the strided source is
  // read-prefetched one stripe of kAhead cells ahead.
  constexpr std::size_t kAhead = 64;
  const std::size_t n = cells_.size();
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kAhead < n) {
      __builtin_prefetch(cells + (i + kAhead) * stride, /*rw=*/0,
                         /*locality=*/2);
    }
#endif
    cells_[i] += cells[i * stride];
  }
  total_ += total;
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
