#pragma once

/** @file Order statistics over wall-clock samples. */

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/** Linear-interpolated percentile @p p in [0, 100]; 0 when empty. */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo))
                            * (values[hi] - values[lo]);
}

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/** Geometric mean of positive values; 0 when empty. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace perfbench
