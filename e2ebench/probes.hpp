#pragma once

/**
 * @file probes.hpp
 * Layer probes: timed calls into the public functions of layers that
 * have no span in the tuner's trace (feature, nn, sched, sim, db, replay,
 * the core MoA update), plus per-call costs of the cost models, the LSE
 * explorer and the Symbol-based Analyzer. Inputs are shaped like the
 * workload: its most compute-heavy task, a draft of 512 LSE candidates
 * plus 32 random and 32 incumbent mutants, and a 768-record training
 * window measured over all of its tasks.
 */

#include <string>
#include <vector>

#include "pruner.hpp"
#include "report.hpp"

namespace e2e {

struct ProbeContext
{
    const pruner::Workload* workload = nullptr;
    const pruner::DeviceSpec* device = nullptr;
    uint64_t seed = 1;
    /** Scratch directory for the probes' stores and files. */
    std::string dir;
    /** A checkpoint the workload's tune() wrote. */
    std::string checkpoint_path;
    /** Host seconds the probes may take together. Each timed probe keeps
     *  calling its function for an equal share (at least 50 ms), and
     *  makes at least three timed calls after one warm-up. */
    double seconds = 3.0;
};

/** Run every probe; one metric per probe, in a fixed order. */
std::vector<Metric> runProbes(const ProbeContext& ctx);

} // namespace e2e
