#include "workloads.hpp"

#include <sys/resource.h>

#include <filesystem>

#include "bench_common.hpp"
#include "report.hpp"
#include "support/logging.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace pruner;

namespace {

struct Spec
{
    const char* name;
    WorkloadKind kind;
};

constexpr Spec kSpecs[] = {
    {"pruner-online-r50", WorkloadKind::PrunerOnline},
    {"ansor-r50", WorkloadKind::Ansor},
    {"moa-sharded-persist-bbase", WorkloadKind::MoaShardedPersist},
};

// 48 rounds size one tune() call to one to four host seconds on a
// 4-core x86 box, so a run fits several repetitions (see README.md).
constexpr int kRounds = 48;

// MoA set-up: the K80 pre-training dataset and the store-seeding run.
constexpr size_t kPretrainSchedulesPerTask = 32;
constexpr int kPretrainEpochs = 4;
constexpr int kSeedingRounds = 4;
// 3 workers plus the tuning thread fit a 4-core box; the simulated clock
// is pinned to 3 lanes, so it does not depend on the host.
constexpr int kMoaWorkers = 3;
constexpr int kMoaTasksPerRound = 3;
constexpr int kMoaCheckpointInterval = 4;

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

} // namespace

std::unique_ptr<BenchWorkload>
BenchWorkload::make(const std::string& name)
{
    for (const Spec& spec : kSpecs) {
        if (name == spec.name) {
            return std::unique_ptr<BenchWorkload>(
                new BenchWorkload(spec.kind));
        }
    }
    return nullptr;
}

std::vector<std::string>
BenchWorkload::names()
{
    std::vector<std::string> out;
    for (const Spec& spec : kSpecs) {
        out.emplace_back(spec.name);
    }
    return out;
}

void
BenchWorkload::setup(uint64_t seed, const std::string& dir)
{
    seed_ = seed;
    dir_ = dir;
    device_ = DeviceSpec::a100();
    workload_ = kind_ == WorkloadKind::MoaShardedPersist
                    ? workloads::bertBase()
                    : workloads::resnet50();
    pretrained_.clear();
    store_.clear();
    if (kind_ == WorkloadKind::MoaShardedPersist) {
        setupMoA(seed, dir);
    }
    policy_ = makePolicy(seed);
}

void
BenchWorkload::setupMoA(uint64_t seed, const std::string& dir)
{
    // Siamese init: pre-train PaCM on a simulated K80 dataset.
    pretrained_ = bench::pretrainPaCM(
        DeviceSpec::k80(), device_, {workload_}, kPretrainSchedulesPerTask,
        kPretrainEpochs, hashCombine(seed, 0x97E7));
    // Seed the artifact store with a short run under another seed: the
    // timed runs warm-start their records and measure cache from it.
    store_ = (fs::path(dir) / "store").string();
    const uint64_t seeding_seed = hashCombine(seed, 0x5EED);
    TuneOptions opts = options(seeding_seed);
    opts.rounds = kSeedingRounds;
    opts.artifact_db_path = store_;
    opts.warm_start_records = false;
    makePolicy(seeding_seed)->tune(workload_, opts);
}

Rep
BenchWorkload::run(const RunHooks& hooks)
{
    const fs::path rep_dir = fs::path(dir_) / "rep";
    fs::remove_all(rep_dir);
    fs::create_directories(rep_dir);
    TuneOptions opts = options(seed_);
    opts.tracer = hooks.tracer;
    opts.metrics = hooks.metrics;
    if (kind_ == WorkloadKind::MoaShardedPersist) {
        // Every repetition starts from the same store: appends from an
        // earlier repetition would change the warm start.
        const fs::path store = rep_dir / "store";
        fs::copy(store_, store, fs::copy_options::recursive);
        opts.artifact_db_path = store.string();
        opts.checkpoint_interval = kMoaCheckpointInterval;
    }
    if (hooks.final_checkpoint && opts.checkpoint_interval == 0) {
        opts.checkpoint_interval = opts.rounds;
    }
    Rep rep;
    if (opts.checkpoint_interval > 0) {
        opts.checkpoint_path = (rep_dir / "checkpoint").string();
        rep.checkpoint_path = opts.checkpoint_path;
    }
    // tune() trains the policy's model, so every call needs a new one.
    const std::unique_ptr<SearchPolicy> policy =
        policy_ != nullptr ? std::move(policy_) : makePolicy(seed_);
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    rep.result = policy->tune(workload_, opts);
    rep.wall_s = nowSeconds() - t0;
    rep.cpu_s = processCpuSeconds() - cpu0;
    return rep;
}

TuneOptions
BenchWorkload::options(uint64_t seed) const
{
    TuneOptions opts;
    opts.rounds = kRounds;
    opts.seed = seed;
    opts.constants = CostConstants::forDevice(device_.name);
    if (kind_ == WorkloadKind::MoaShardedPersist) {
        opts.measure_workers = kMoaWorkers;
        opts.clock_lanes = kMoaWorkers;
        opts.tasks_per_round = kMoaTasksPerRound;
        opts.warm_start_records = true;
    }
    return opts;
}

std::unique_ptr<SearchPolicy>
BenchWorkload::makePolicy(uint64_t seed) const
{
    switch (kind_) {
      case WorkloadKind::PrunerOnline:
        return std::make_unique<PrunerPolicy>(device_, PrunerConfig{},
                                              hashCombine(seed, 0x9ACC));
      case WorkloadKind::Ansor:
        return baselines::makeAnsor(device_, hashCombine(seed, 0xA550));
      case WorkloadKind::MoaShardedPersist: {
        PrunerConfig config;
        config.use_moa = true;
        config.pretrained = pretrained_;
        return std::make_unique<PrunerPolicy>(device_, std::move(config),
                                              hashCombine(seed, 0x9ACC));
      }
    }
    PRUNER_FATAL("unknown workload kind");
}

} // namespace e2e
