#pragma once

/**
 * @file report.hpp
 * Metric records, the output format (one human-readable line per
 * metric, then one JSON object as the last line of standard output), and
 * the host clock and median shared with the repository's benches.
 */

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace e2e {

using pruner::bench::median;
using pruner::bench::nowSeconds;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Free-form context for the human-readable line only (sample
     *  counts, what a zero means). */
    std::string note;
};

/** Linear-interpolated percentile @p p in [0, 100] (0 when empty). */
double percentile(std::vector<double> xs, double p);

/** Print "  name = value unit  (note)" for every metric. */
void printMetrics(const char* heading, const std::vector<Metric>& metrics);

/** The final result line: {"correct", "attempted", "failed", "metrics"}.
 *  Values print with 17 significant digits. */
std::string resultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

} // namespace e2e
