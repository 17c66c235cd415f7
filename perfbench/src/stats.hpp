// Order statistics for the benchmark's reported timings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The tail a sample supports: the highest percentile that still has
/// `kTailBeyond` samples strictly above its rank.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in (0, 100)
  std::size_t samples = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

/// Throws std::invalid_argument when fewer than kTailBeyond + 1 samples
/// exist: no percentile has ten samples beyond it.
inline Tail tail(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < kTailBeyond + 1)
    throw std::invalid_argument("tail needs at least 11 samples");
  std::sort(values.begin(), values.end());
  const std::size_t rank = n - kTailBeyond;  // 1-based rank of the value
  return Tail{values[rank - 1],
              100.0 * static_cast<double>(rank) / static_cast<double>(n), n};
}

/// Blocks per tail group (see grouped_tail).
inline constexpr std::size_t kTailGroup = 160;

/// The tail of a run's blocks, in run order: the blocks are cut into
/// `groups` consecutive groups of at least kTailGroup blocks each (one
/// group when there are fewer), and the median of the groups' tails is
/// returned.  A run's single tail would be its 11th-largest block, which
/// rare host stalls decide; the median of fixed-size groups' tails is not
/// moved by a stall that lands in one group.  `samples` and `percentile`
/// are those of the smallest group.
struct GroupedTail {
  Tail tail;
  std::size_t groups = 0;
};

inline GroupedTail grouped_tail(const std::vector<double>& values) {
  const std::size_t n = values.size();
  const std::size_t groups = std::max<std::size_t>(1, n / kTailGroup);
  GroupedTail out;
  out.groups = groups;
  std::vector<double> tails;
  for (std::size_t g = 0; g < groups; ++g) {
    const Tail t = tail(std::vector<double>(
        values.begin() + static_cast<std::ptrdiff_t>(n * g / groups),
        values.begin() + static_cast<std::ptrdiff_t>(n * (g + 1) / groups)));
    if (g == 0 || t.samples < out.tail.samples) out.tail = t;
    tails.push_back(t.value);
  }
  out.tail.value = median(tails);
  return out;
}

}  // namespace perfbench
