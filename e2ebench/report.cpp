#include "report.hpp"

#include <algorithm>
#include <cstdio>

namespace e2e {

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

void
printMetrics(const char* heading, const std::vector<Metric>& metrics)
{
    std::printf("%s\n", heading);
    for (const Metric& m : metrics) {
        std::printf("  %-36s = %-14.6g %s%s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.empty() ? "" : "  (",
                    m.note.c_str(), m.note.empty() ? "" : ")");
    }
}

std::string
resultJson(bool correct, size_t attempted, size_t failed,
           const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace e2e
