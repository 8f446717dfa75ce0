#include "util/histogram.h"

#include <algorithm>

namespace vlease {

std::int64_t SparseCounter::at(std::int64_t bucket) const {
  auto it = counts_.find(bucket);
  return it == counts_.end() ? 0 : it->second;
}

std::int64_t SparseCounter::totalCount() const {
  std::int64_t total = 0;
  for (const auto& [bucket, n] : counts_) total += n;
  return total;
}

std::int64_t SparseCounter::maxValue() const {
  std::int64_t best = 0;
  for (const auto& [bucket, n] : counts_) best = std::max(best, n);
  return best;
}

std::vector<std::int64_t> SparseCounter::cumulativeAtLeast() const {
  std::int64_t top = maxValue();
  std::vector<std::int64_t> atLeast(static_cast<std::size_t>(top), 0);
  if (top == 0) return atLeast;
  // Count buckets with exactly v, then suffix-sum.
  for (const auto& [bucket, n] : counts_) {
    if (n >= 1) atLeast[static_cast<std::size_t>(n) - 1] += 1;
  }
  for (std::size_t i = atLeast.size(); i-- > 1;) {
    atLeast[i - 1] += atLeast[i];
  }
  return atLeast;
}

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

}  // namespace vlease
