#pragma once

/**
 * @file trace_fold.hpp
 * Folds a Tracer's Chrome trace (exported with capture_wall on) into
 * per-span-name host-time totals. A span's self time is its wall
 * duration minus the part its child spans cover. The main and io tracks
 * both run on the tuning thread, so they share one stack (an io span
 * inside "tune" is a child of it); the trainer track is folded on its
 * own stack.
 */

#include <map>
#include <string>
#include <vector>

namespace e2e {

/** Host-time totals of every span with one name. */
struct SpanTotals
{
    size_t count = 0;
    double total_s = 0.0; ///< summed wall durations
    double self_s = 0.0;  ///< summed durations minus child coverage
    std::vector<double> durations_s; ///< one per closed span, in order
    /** Numeric span args (e.g. "drafted"), summed over the spans. */
    std::map<std::string, double> arg_sums;

    /** Summed arg @p key; 0 when no span carried it. */
    double
    argSum(const std::string& key) const
    {
        const auto it = arg_sums.find(key);
        return it == arg_sums.end() ? 0.0 : it->second;
    }
};

struct FoldedTrace
{
    std::map<std::string, SpanTotals> spans;

    /** Totals for @p name (all zero when the trace has no such span). */
    const SpanTotals& span(const std::string& name) const;
};

/** Parse Tracer::chromeTrace(true) output. Throws std::runtime_error on
 *  malformed JSON, a missing wall_us stamp, or unbalanced spans. */
FoldedTrace foldChromeTrace(const std::string& json);

} // namespace e2e
