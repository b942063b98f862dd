#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/latent_explorer.hpp"
#include "core/moa.hpp"
#include "cost/mlp_cost_model.hpp"
#include "cost/pacm_model.hpp"
#include "feature/dataflow_features.hpp"
#include "feature/statement_features.hpp"
#include "nn/matrix.hpp"
#include "replay/checkpoint.hpp"
#include "sched/mutator.hpp"
#include "sched/sampler.hpp"
#include "sim/gpu_simulator.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace pruner;

namespace {

constexpr size_t kDraftRandom = 32;
constexpr size_t kDraftMutants = 32;
constexpr size_t kWindowRecords = 768;
constexpr size_t kHidden = 64; // PaCM / MLP hidden width
constexpr int kMoaEpochs = 2;  // train_epochs x moa_train_every
constexpr size_t kTimedProbes = 12; // probes that share ctx.seconds

/** Median host seconds of one call to @p fn: one untimed warm-up call,
 *  then calls until @p budget_s has passed and at least three ran. */
template <typename Fn>
double
medianCallSeconds(Fn&& fn, double budget_s)
{
    fn();
    std::vector<double> calls;
    const double start = nowSeconds();
    while (calls.size() < 3 ||
           (nowSeconds() - start < budget_s && calls.size() < 10000)) {
        const double t0 = nowSeconds();
        fn();
        calls.push_back(nowSeconds() - t0);
    }
    return median(std::move(calls));
}

/** The task with the largest weighted FLOP count. */
const SubgraphTask&
heaviestTask(const Workload& workload)
{
    const TaskInstance* best = &workload.tasks.front();
    for (const TaskInstance& inst : workload.tasks) {
        if (inst.weight * inst.task.totalFlops() >
            best->weight * best->task.totalFlops()) {
            best = &inst;
        }
    }
    return best->task;
}

/** Deterministic finite operand in [0, 1). */
std::vector<double>
operand(size_t n, Rng& rng)
{
    std::vector<double> v(n);
    for (double& x : v) {
        x = rng.uniform();
    }
    return v;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    return std::string(std::istreambuf_iterator<char>(in), {});
}

} // namespace

std::vector<Metric>
runProbes(const ProbeContext& ctx)
{
    const DeviceSpec& device = *ctx.device;
    const Workload& workload = *ctx.workload;
    const SubgraphTask& task = heaviestTask(workload);
    const double budget =
        std::max(0.05, ctx.seconds / static_cast<double>(kTimedProbes));
    Rng rng(hashCombine(ctx.seed, 0x9B0B));
    std::vector<Metric> out;
    uint64_t sink = 0; // keeps probed results observable

    // --- Draft stage: LSE explore, SA scoring, mutation -----------------
    const LatentScheduleExplorer lse(device);
    const LseConfig lse_config;
    const Rng explore_rng = rng;
    std::vector<ScoredSchedule> spec;
    const double explore_s = medianCallSeconds(
        [&] {
            Rng r = explore_rng; // same walk on every call
            size_t evals = 0;
            spec = lse.explore(task, lse_config, {}, r, &evals);
        },
        budget);
    out.push_back({"core.lse_explore.ms_per_call", explore_s * 1e3, "ms",
                   std::to_string(lse_config.population) + " x " +
                       std::to_string(lse_config.n_steps) + " GA on " +
                       task.key});

    std::vector<Schedule> draft;
    for (const ScoredSchedule& s : spec) {
        draft.push_back(s.sch);
    }
    const auto random_part =
        ScheduleSampler(task, device).sampleMany(rng, kDraftRandom);
    draft.insert(draft.end(), random_part.begin(), random_part.end());
    const ScheduleMutator mutator(task, device);
    for (size_t m = 0; m < kDraftMutants; ++m) {
        draft.push_back(mutator.mutate(draft.front(), rng));
    }
    const double n_draft = static_cast<double>(draft.size());
    const std::string draft_note =
        std::to_string(draft.size()) + "-candidate draft";

    const double sa_s = medianCallSeconds(
        [&] {
            double acc = 0.0;
            for (const Schedule& sch : draft) {
                acc += lse.analyzer().score(task, sch);
            }
            sink += static_cast<uint64_t>(std::isfinite(acc));
        },
        budget);
    out.push_back({"core.sa_score.ns_per_candidate", sa_s / n_draft * 1e9,
                   "ns", draft_note});

    const double mutate_s = medianCallSeconds(
        [&] {
            for (const Schedule& sch : draft) {
                sink ^= mutator.mutate(sch, rng).hash();
            }
        },
        budget);
    out.push_back({"sched.mutate.ns_per_call", mutate_s / n_draft * 1e9,
                   "ns", draft_note});

    // --- Verify stage: features, GEMM, cost-model inference -------------
    Matrix stmt_feats, flow_feats;
    SegmentTable stmt_segs, flow_segs;
    const double features_s = medianCallSeconds(
        [&] {
            extractStatementFeaturesBatch(task, draft, device, stmt_feats,
                                          stmt_segs);
            extractDataflowFeaturesBatch(task, draft, device, flow_feats,
                                         flow_segs);
        },
        budget);
    out.push_back({"feature.extract.us_per_candidate",
                   features_s / n_draft * 1e6, "us",
                   "statement + dataflow, " + draft_note});

    {
        // One hidden layer of the statement branch over the draft's
        // packed statement rows: [rows, 64] x [64, 64] + bias, ReLU.
        const size_t rows = stmt_segs.totalRows();
        const auto a = operand(rows * kHidden, rng);
        const auto w = operand(kHidden * kHidden, rng);
        const auto bias = operand(kHidden, rng);
        std::vector<double> c(rows * kHidden);
        const double gemm_s = medianCallSeconds(
            [&] {
                nnkernel::matmul(a.data(), rows, kHidden, kHidden, w.data(),
                                 kHidden, kHidden, c.data(), kHidden,
                                 bias.data(), true);
            },
            budget);
        out.push_back({"nn.gemm_fwd.gflops",
                       2.0 * static_cast<double>(rows * kHidden * kHidden) /
                           gemm_s * 1e-9,
                       "GFLOP/s",
                       std::to_string(rows) + "x64x64, tier " +
                           nnkernel::kernelTiers().matmul});
    }

    PaCMModel pacm(device, hashCombine(ctx.seed, 0x9ACC));
    const double pacm_s = medianCallSeconds(
        [&] { sink += pacm.predict(task, draft).size(); }, budget);
    out.push_back({"cost.pacm_predict.us_per_candidate",
                   pacm_s / n_draft * 1e6, "us",
                   draft_note + " pass = " + std::to_string(pacm_s * 1e3) +
                       " ms"});

    const MlpCostModel mlp(device, hashCombine(ctx.seed, 0xA550));
    const double mlp_s = medianCallSeconds(
        [&] { sink += mlp.predict(task, draft).size(); }, budget);
    out.push_back({"cost.mlp_predict.us_per_candidate",
                   mlp_s / n_draft * 1e6, "us", draft_note});

    // --- Measurement: the simulator --------------------------------------
    const GpuSimulator sim(device);
    const double sim_s = medianCallSeconds(
        [&] {
            for (const Schedule& sch : draft) {
                sink += static_cast<uint64_t>(
                    std::isfinite(sim.measure(task, sch, rng)));
            }
        },
        budget);
    out.push_back({"sim.measure.us_per_trial", sim_s / n_draft * 1e6, "us",
                   draft_note});

    // --- Training: a 768-record window over every task -------------------
    std::vector<ScheduleSampler> samplers;
    for (const TaskInstance& inst : workload.tasks) {
        samplers.emplace_back(inst.task, device);
    }
    std::vector<MeasuredRecord> window;
    for (size_t t = 0; window.size() < kWindowRecords; ++t) {
        const size_t idx = t % workload.tasks.size();
        const SubgraphTask& wt = workload.tasks[idx].task;
        const Schedule sch = samplers[idx].sample(rng);
        const double lat = sim.measure(wt, sch, rng);
        if (std::isfinite(lat)) {
            window.push_back({wt, sch, lat});
        }
    }
    const std::string window_note =
        std::to_string(window.size()) + "-record window";

    PaCMModel trainee(device, hashCombine(ctx.seed, 0x7A1));
    const double epoch_s =
        medianCallSeconds([&] { trainee.train(window, 1); }, budget);
    out.push_back({"cost.pacm_train.ms_per_epoch", epoch_s * 1e3, "ms",
                   window_note});

    {
        // Segment-blocked dW of one hidden layer over the window's packed
        // statement rows (one segment per record).
        std::vector<size_t> seg_rows;
        for (const MeasuredRecord& rec : window) {
            seg_rows.push_back(
                extractStatementFeatures(rec.task, rec.sch, device).rows());
        }
        size_t rows = 0;
        for (const size_t r : seg_rows) {
            rows += r;
        }
        const auto a = operand(rows * kHidden, rng);
        const auto b = operand(rows * kHidden, rng);
        std::vector<double> c(kHidden * kHidden, 0.0);
        const double dw_s = medianCallSeconds(
            [&] {
                nnkernel::matmulTNSegBlocked(a.data(), kHidden, b.data(),
                                             kHidden, seg_rows.data(),
                                             seg_rows.size(), kHidden,
                                             kHidden, c.data(), kHidden);
            },
            budget);
        out.push_back({"nn.gemm_dw.gflops",
                       2.0 * static_cast<double>(rows * kHidden * kHidden) /
                           dw_s * 1e-9,
                       "GFLOP/s",
                       std::to_string(rows) + " rows in " +
                           std::to_string(seg_rows.size()) +
                           " segments, tier " +
                           nnkernel::kernelTiers().matmul_tn_seg});
    }

    PaCMModel moa_target(device, hashCombine(ctx.seed, 0x30A));
    MoAAdapter moa(&moa_target);
    moa.initializeFromPretrained(moa_target.getParams());
    const double moa_s = medianCallSeconds(
        [&] { moa.roundUpdate(window, kMoaEpochs); }, budget);
    out.push_back({"core.moa_update.ms", moa_s * 1e3, "ms",
                   std::to_string(kMoaEpochs) + " epochs, " + window_note});

    // --- Persistence -----------------------------------------------------
    // A fresh store per call (stored pairs are not re-appended); only
    // the append is timed, opening the store is a per-run cost.
    std::vector<double> appends;
    for (int k = 0; k < 5; ++k) {
        const std::string store =
            (fs::path(ctx.dir) / ("store-" + std::to_string(k))).string();
        ArtifactDb db(store);
        const double t0 = nowSeconds();
        sink += db.appendRecords(window);
        appends.push_back(nowSeconds() - t0);
        fs::remove_all(store);
    }
    out.push_back({"db.append.us_per_record",
                   median(appends) / static_cast<double>(window.size()) *
                       1e6,
                   "us", window_note + " into a fresh store"});

    const TuningCheckpoint checkpoint =
        decodeCheckpoint(readFile(ctx.checkpoint_path));
    const std::string ckpt_copy = (fs::path(ctx.dir) / "checkpoint").string();
    const double save_s = medianCallSeconds(
        [&] { sink += saveCheckpoint(ckpt_copy, checkpoint) ? 1 : 0; },
        budget);
    fs::remove(ckpt_copy);
    out.push_back({"replay.checkpoint_save.ms", save_s * 1e3, "ms",
                   "checkpoint after round " +
                       std::to_string(checkpoint.next_round)});

    if (sink == 0) {
        throw std::runtime_error("probes produced no results");
    }
    return out;
}

} // namespace e2e
