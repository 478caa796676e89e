// Order statistics over measured samples.

#ifndef LACB_PERFBENCH_STATS_H_
#define LACB_PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

/// \brief q-quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values);

double Sum(const std::vector<double>& values);

}  // namespace perfbench

#endif  // LACB_PERFBENCH_STATS_H_
