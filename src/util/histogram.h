// Histogram utilities used by the metrics layer and the figure benches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vlease {

/// Sparse integer-keyed counter: maps a bucket index (e.g. a whole-second
/// timestamp) to a count. Used for the per-second server-load series
/// behind Figs. 8 and 9 -- traces span ~10^7 seconds but most buckets are
/// empty, so a dense array would be wasteful.
class SparseCounter {
 public:
  SparseCounter() = default;
  // The hot-bucket memo points into counts_; it must not follow a copy
  // or move to a different map.
  SparseCounter(const SparseCounter& other) : counts_(other.counts_) {}
  SparseCounter(SparseCounter&& other) noexcept
      : counts_(std::move(other.counts_)) {
    other.hot_ = nullptr;
  }
  SparseCounter& operator=(const SparseCounter& other) {
    counts_ = other.counts_;
    hot_ = nullptr;
    return *this;
  }
  SparseCounter& operator=(SparseCounter&& other) noexcept {
    counts_ = std::move(other.counts_);
    hot_ = nullptr;
    other.hot_ = nullptr;
    return *this;
  }

  void add(std::int64_t bucket, std::int64_t n = 1) {
    // Samples arrive in bursts against one bucket (virtual time moves
    // forward slowly relative to message rate), so memoize the node last
    // touched -- std::map nodes are address-stable.
    if (hot_ != nullptr && hot_->first == bucket) {
      hot_->second += n;
      return;
    }
    auto [it, inserted] = counts_.try_emplace(bucket, 0);
    it->second += n;
    hot_ = &*it;
  }

  std::int64_t at(std::int64_t bucket) const;
  std::int64_t totalCount() const;
  std::size_t nonEmptyBuckets() const { return counts_.size(); }
  std::int64_t maxValue() const;

  const std::map<std::int64_t, std::int64_t>& buckets() const {
    return counts_;
  }

  /// Cumulative histogram in the paper's Fig. 8 form: for each load level
  /// x in [1, maxValue], how many buckets held a value >= x. Returned as
  /// result[x-1] = #buckets with value >= x.
  std::vector<std::int64_t> cumulativeAtLeast() const;

  void clear() {
    counts_.clear();
    hot_ = nullptr;
  }

 private:
  std::map<std::int64_t, std::int64_t> counts_;
  std::pair<const std::int64_t, std::int64_t>* hot_ = nullptr;
};

/// Simple streaming summary: count / mean / min / max / sum.
class Summary {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace vlease
