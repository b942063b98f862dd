#pragma once

/**
 * @file workloads.hpp
 * The benchmark's named tune() workloads. Each one builds its inputs from
 * the workload seed during set-up (timed separately) and then runs any
 * number of fresh, identical tune() calls: every repetition gets a new
 * policy object and, where the workload persists, a fresh copy of the
 * artifact store seeded during set-up.
 */

#include <memory>
#include <string>
#include <vector>

#include "pruner.hpp"

namespace e2e {

/** Observability and IO hooks of one repetition. */
struct RunHooks
{
    pruner::obs::Tracer* tracer = nullptr;
    pruner::obs::MetricsRegistry* metrics = nullptr;
    /** Write a checkpoint after the final round even when the workload
     *  does not checkpoint on its own (feeds the checkpoint-save probe). */
    bool final_checkpoint = false;
};

/** One timed tune() call. */
struct Rep
{
    pruner::TuneResult result;
    double wall_s = 0.0; ///< host seconds inside tune()
    double cpu_s = 0.0;  ///< process CPU seconds inside tune()
    /** Last checkpoint the run wrote ("" when it wrote none). Lives in
     *  the workload's directory until the next repetition. */
    std::string checkpoint_path;
};

/** How a workload's tune() calls are configured (see workloads.cpp). */
enum class WorkloadKind { PrunerOnline, Ansor, MoaShardedPersist };

class BenchWorkload
{
  public:
    /** The workload called @p name; nullptr when there is none. */
    static std::unique_ptr<BenchWorkload> make(const std::string& name);

    /** Names of every workload, in BENCHMARK.json order. */
    static std::vector<std::string> names();

    /** Build every input from @p seed under the private directory
     *  @p dir (created when needed). May be called repeatedly; the last
     *  call's inputs are the ones run() uses. */
    void setup(uint64_t seed, const std::string& dir);

    /** One fresh tune() call on the set-up inputs. */
    Rep run(const RunHooks& hooks);

    const pruner::Workload& workload() const { return workload_; }
    const pruner::DeviceSpec& device() const { return device_; }

  private:
    explicit BenchWorkload(WorkloadKind kind) : kind_(kind) {}

    void setupMoA(uint64_t seed, const std::string& dir);
    pruner::TuneOptions options(uint64_t seed) const;
    std::unique_ptr<pruner::SearchPolicy> makePolicy(uint64_t seed) const;

    WorkloadKind kind_;
    uint64_t seed_ = 0;
    std::string dir_;
    pruner::DeviceSpec device_ = pruner::DeviceSpec::a100();
    pruner::Workload workload_;
    std::vector<double> pretrained_; ///< MoA: Siamese init
    std::string store_;              ///< MoA: store seeded during set-up
    /** The policy the next run() uses; built by setup() so that set-up
     *  time covers everything before the first tune() call. */
    std::unique_ptr<pruner::SearchPolicy> policy_;
};

} // namespace e2e
