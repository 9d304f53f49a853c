#include "runtime/trace.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace saris {

std::string ascii_activity_strip(const std::vector<u32>& series,
                                 u32 buckets) {
  SARIS_CHECK(buckets > 0, "need at least one bucket");
  std::string out;
  if (series.empty()) return out;
  std::size_t n = series.size();
  for (u32 b = 0; b < buckets; ++b) {
    std::size_t lo = n * b / buckets;
    std::size_t hi = std::max(lo + 1, n * (b + 1) / buckets);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi && i < n; ++i) {
      sum += series[i];
    }
    double avg = sum / static_cast<double>(hi - lo);
    out += static_cast<char>('0' + std::min(8, static_cast<int>(avg + 0.5)));
  }
  return out;
}

}  // namespace saris
