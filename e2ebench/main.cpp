/**
 * @file main.cpp
 * End-to-end tune() benchmark.
 *
 *   e2e_tune --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--work-dir <dir>] [--reference <BENCH_PR10.json>]
 *
 * --trace 0: alternate set-ups and untraced tune() calls for --seconds
 *   and report the end-to-end metrics (host times as the fastest sample,
 *   see runBenchmark; the simulated-clock and quality numbers are
 *   deterministic per seed).
 * --trace 1: set up once, alternate untraced and traced tune() calls,
 *   fold the traced runs' wall-stamped spans into per-stage self times,
 *   read the run's metrics registry, then run the layer probes; report the
 *   per-layer metrics.
 *
 * Every repetition's result is checked (see checkResult) and must be
 * byte-identical to the first one, traced or not. The last line of
 * standard output is one JSON object; any failed check makes it
 * "correct": false and the exit code 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "json.hpp"
#include "nn/matrix.hpp"
#include "probes.hpp"
#include "replay/checkpoint.hpp"
#include "report.hpp"
#include "trace_fold.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace pruner;
using e2e::median;
using e2e::nowSeconds;

namespace {

// One setup_s sample times back-to-back set-ups until kSetupSampleS has
// passed and divides by their count: a ResNet-50 set-up takes about a
// millisecond, below what one timer reading resolves on a shared host.
constexpr double kSetupSampleS = 0.05;
// Set-up + untraced tune() repetitions of a --trace 0 run (at least;
// more while --seconds lasts).
constexpr size_t kMinReps = 3;
// --trace 1: share of --seconds spent on untraced/traced pairs (at least
// one pair, at most kMaxPairs); the rest goes to the probes.
constexpr double kPairShare = 0.6;
constexpr size_t kMaxPairs = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string work_dir = ".bench_build/e2ebench/work";
    std::string reference = "BENCH_PR10.json";
};

[[noreturn]] void
usage(const std::string& error)
{
    std::fprintf(stderr,
                 "e2e_tune: %s\nusage: e2e_tune --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--reference <file>]\nworkloads:",
                 error.c_str());
    for (const auto& name : e2e::BenchWorkload::names()) {
        std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            args.trace = std::atoi(value.c_str());
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else if (flag == "--reference") {
            args.reference = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    if (args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1)) {
        usage("--seconds must be positive and --trace 0 or 1");
    }
    return args;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * The physical roofline of @p task: its FLOPs at the device's peak rate or
 * its unique bytes at peak DRAM bandwidth, whichever takes longer. No
 * schedule can run faster. (GpuSimulator::idealLatency is the roofline at
 * realistic efficiency plus launch latency, which a tuned memory-bound
 * kernel of the simulator can beat by ~10%, so it is no floor.)
 */
double
rooflineFloor(const SubgraphTask& task, const DeviceSpec& device)
{
    double peak = device.peak_flops;
    if (task.dtype == DType::Fp16Tc) {
        peak = device.has_tensorcore ? device.tc_peak_flops
                                     : device.peak_flops * 2.0;
    }
    return std::max(task.totalFlops() / peak,
                    task.uniqueBytes() / device.peak_bandwidth);
}

/** Number @p key of object @p section in a BENCH_PR<N>.json ledger; -1
 *  when the file or the entry is missing. */
double
ledgerValue(const std::string& path, const char* section, const char* key)
{
    std::ifstream in(path);
    if (!in) {
        return -1.0;
    }
    const e2e::Json doc =
        e2e::parseJson(std::string(std::istreambuf_iterator<char>(in), {}));
    const e2e::Json* group = doc.get(section);
    const e2e::Json* value = group != nullptr ? group->get(key) : nullptr;
    return value != nullptr && value->type == e2e::Json::Type::Number
               ? value->number
               : -1.0;
}

/** Collects failed output checks; a run with any is not correct. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string& what)
    {
        if (!ok) {
            std::printf("CHECK FAILED: %s\n", what.c_str());
            failures_.push_back(what);
        }
    }
    size_t count() const { return failures_.size(); }

  private:
    std::vector<std::string> failures_;
};

/** Output checks of one repetition; returns false when any failed. The
 *  first repetition's signature becomes @p signature. */
bool
checkResult(const TuneResult& r, const e2e::BenchWorkload& wl,
            std::string& signature, Checks& checks)
{
    const size_t before = checks.count();
    checks.expect(!r.failed, "tune() failed: " + r.failure_reason);
    checks.expect(std::isfinite(r.final_latency),
                  "final_latency is not finite");
    checks.expect(r.trials > 0, "no trials measured");
    const Workload& w = wl.workload();
    checks.expect(r.best_per_task.size() == w.tasks.size(),
                  "best_per_task has the wrong size");
    if (r.best_per_task.size() == w.tasks.size()) {
        checks.expect(w.endToEndLatency(r.best_per_task) == r.final_latency,
                      "final_latency differs from the weighted "
                      "best_per_task");
        // The bound comes from the device, not from the tuner.
        for (size_t i = 0; i < w.tasks.size(); ++i) {
            checks.expect(r.best_per_task[i] >=
                              rooflineFloor(w.tasks[i].task, wl.device()),
                          "best latency of " + w.tasks[i].task.key +
                              " beats the roofline");
        }
    }
    const std::string sig = resultSignature(r);
    if (signature.empty()) {
        signature = sig;
    }
    checks.expect(sig == signature,
                  "result differs from the first repetition");
    return checks.count() == before;
}

/** Smallest sample (0 when empty). */
double
fastest(const std::vector<double>& xs)
{
    return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

void
printSamples(const char* label, const std::vector<double>& xs)
{
    std::printf("%s", label);
    for (const double x : xs) {
        std::printf(" %.4g", x);
    }
    std::printf("\n");
}

std::string
kernelTierLine()
{
    const nnkernel::KernelTiers t = nnkernel::kernelTiers();
    return std::string("matmul=") + t.matmul + " nt=" + t.matmul_nt +
           " tn_acc=" + t.matmul_tn_acc +
           " tn_add_partial=" + t.matmul_tn_add_partial +
           " tn_seg=" + t.matmul_tn_seg;
}

/** Per-stage numbers of one traced repetition. */
struct TracedRep
{
    double wall_s = 0.0;
    e2e::FoldedTrace trace;
    obs::MetricsSnapshot metrics;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<e2e::Metric>
layerMetrics(const std::vector<TracedRep>& traced,
             const std::vector<double>& untraced_walls,
             const std::vector<double>& cpu_per_wall)
{
    // Times: median over traced repetitions. Counts: deterministic, so
    // the first repetition's.
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> round_ms;
    for (const TracedRep& t : traced) {
        auto self = [&](const char* name) {
            return t.trace.span(name).self_s;
        };
        const double io = self("warm_start") + self("db_finish");
        const double named = self("draft") + self("verify") +
                             self("measure_round") + self("train") +
                             self("round") + io;
        const e2e::SpanTotals& train = t.trace.span("train");
        const double drafted = t.trace.span("draft").argSum("drafted");
        samples["cost.train.self_s"].push_back(self("train"));
        samples["cost.train.ms_per_update"].push_back(
            ratio(train.total_s, static_cast<double>(train.count)) * 1e3);
        samples["cost.verify.self_s"].push_back(self("verify"));
        samples["cost.verify.us_per_candidate"].push_back(
            ratio(self("verify"), drafted) * 1e6);
        samples["core.draft.self_s"].push_back(self("draft"));
        samples["search.round.self_s"].push_back(self("round"));
        samples["db.io.self_s"].push_back(io);
        samples["search.measure.self_s"].push_back(self("measure_round"));
        samples["trace.coverage"].push_back(ratio(named, t.wall_s));
        samples["trace.wall_s"].push_back(t.wall_s);
        for (const double d : t.trace.span("round").durations_s) {
            round_ms.push_back(d * 1e3);
        }
    }
    const obs::MetricsSnapshot& reg = traced.front().metrics;
    auto count = [&](const char* name) {
        return static_cast<double>(reg.counterValue(name));
    };
    const std::string rounds_note = std::to_string(round_ms.size()) +
                                    " rounds over " +
                                    std::to_string(traced.size()) +
                                    " traced runs";
    const double traced_wall = median(samples["trace.wall_s"]);
    const double untraced_wall = median(untraced_walls);
    auto med = [&](const char* name) {
        return median(samples[name]);
    };
    const std::string pairs_note =
        "median of " + std::to_string(traced.size()) + " traced runs";
    return {
        {"cost.train.self_s", med("cost.train.self_s"), "s", pairs_note},
        {"cost.train.ms_per_update", med("cost.train.ms_per_update"), "ms",
         ""},
        {"cost.verify.self_s", med("cost.verify.self_s"), "s",
         "0 = no verify stage"},
        {"cost.verify.us_per_candidate", med("cost.verify.us_per_candidate"),
         "us", "verify self / drafted"},
        {"core.draft.self_s", med("core.draft.self_s"), "s", ""},
        {"search.round.self_s", med("search.round.self_s"), "s",
         "scheduling, record appends, checkpoint saves"},
        {"db.io.self_s", med("db.io.self_s"), "s",
         "warm start + final store writes; 0 = no store"},
        {"search.measure.self_s", med("search.measure.self_s"), "s", ""},
        {"search.round.wall_ms.p50", e2e::percentile(round_ms, 50.0), "ms",
         rounds_note},
        {"search.round.wall_ms.p90", e2e::percentile(round_ms, 90.0), "ms",
         rounds_note},
        {"trace.coverage", med("trace.coverage"), "ratio",
         "named stage self / traced tune() wall"},
        {"trace.overhead", ratio(traced_wall, untraced_wall), "ratio",
         "traced / untraced tune() wall"},
        {"support.pool.cpu_per_wall", median(cpu_per_wall), "ratio",
         "process CPU s / untraced tune() wall"},
        {"search.evo_evaluations", count("evo_evaluations_total"), "count",
         ""},
        {"core.sa_evaluations", count("lse_sa_evaluations_total"), "count",
         ""},
        {"cost.infer_candidates", count("model_infer_candidates_total"),
         "count", ""},
        {"cost.train_records", count("model_train_records_total"), "count",
         ""},
        {"search.cache_hit_ratio",
         ratio(count("measure_cache_hits_total"),
               count("measure_trials_total")),
         "ratio", ""},
        {"cost.verify_keep_ratio",
         ratio(count("measure_trials_total"),
               count("model_infer_candidates_total")),
         "ratio", "measured / cost-model-scored candidates"},
    };
}

int
runBenchmark(const Args& args)
{
    auto wl = e2e::BenchWorkload::make(args.workload);
    if (wl == nullptr) {
        usage("unknown workload '" + args.workload + "'");
    }
    fs::remove_all(args.work_dir);
    fs::create_directories(args.work_dir);
    const fs::path work(args.work_dir);
    Checks checks;
    size_t attempted = 0;
    size_t failed = 0;
    std::string signature;

    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace);
    std::printf("kernel tiers: %s\n", kernelTierLine().c_str());
    checks.expect(nnkernel::kernelTierDemotions() == 0,
                  "a GEMM kernel tier was demoted at start-up");

    // --- Set-up; the last one's inputs are used --------------------------
    int setups_made = 0;
    int setups_dropped = 0;
    auto setupDir = [&](int k) {
        return (work / ("setup-" + std::to_string(k))).string();
    };
    // One setup_s sample, in seconds per set-up; older set-ups' files are
    // dropped.
    auto setupSample = [&] {
        const double t0 = nowSeconds();
        int n = 0;
        double elapsed = 0.0;
        do {
            wl->setup(args.seed, setupDir(setups_made++));
            ++n;
            elapsed = nowSeconds() - t0;
        } while (elapsed < kSetupSampleS);
        for (; setups_dropped + 1 < setups_made; ++setups_dropped) {
            fs::remove_all(setupDir(setups_dropped));
        }
        return elapsed / n;
    };

    auto record = [&](const e2e::Rep& rep) {
        ++attempted;
        if (!checkResult(rep.result, *wl, signature, checks)) {
            ++failed;
        }
    };

    const double start = nowSeconds();
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> cpu_per_wall;
    TuneResult first;
    std::vector<e2e::Metric> reported;
    if (args.trace == 0) {
        // Set-up and tune() alternate, so that setup_s samples the host
        // over the whole run, as tune_wall_s does.
        for (;;) {
            setups.push_back(setupSample());
            const e2e::Rep rep = wl->run({});
            record(rep);
            if (walls.empty()) {
                first = rep.result;
            }
            walls.push_back(rep.wall_s);
            cpus.push_back(rep.cpu_s);
            const double elapsed = nowSeconds() - start;
            const double per_rep = elapsed / static_cast<double>(walls.size());
            if (walls.size() >= kMinReps && elapsed + per_rep > args.seconds) {
                break;
            }
        }
    } else {
        setupSample();
        std::vector<TracedRep> traced;
        std::string checkpoint;
        std::string det_metrics;
        while (traced.size() < kMaxPairs) {
            const e2e::Rep plain = wl->run({});
            record(plain);
            if (walls.empty()) {
                first = plain.result;
            }
            walls.push_back(plain.wall_s);
            cpu_per_wall.push_back(ratio(plain.cpu_s, plain.wall_s));

            obs::Tracer tracer(/*capture_wall=*/true);
            obs::MetricsRegistry registry;
            const e2e::Rep rep = wl->run({&tracer, &registry});
            record(rep);
            checkpoint = rep.checkpoint_path;
            TracedRep t{rep.wall_s,
                        e2e::foldChromeTrace(tracer.chromeTrace(true)),
                        registry.snapshot()};
            checks.expect(t.trace.span("tune").count == 1,
                          "traced run has no single tune span");
            checks.expect(t.metrics.counterValue(
                              "kernel_tier_demotions_total") == 0,
                          "kernel_tier_demotions_total is not 0");
            // The deterministic registry view repeats exactly.
            const std::string det = t.metrics.renderText(true);
            if (det_metrics.empty()) {
                det_metrics = det;
            }
            checks.expect(det == det_metrics,
                          "deterministic metrics differ between traced "
                          "runs");
            traced.push_back(std::move(t));
            const double elapsed = nowSeconds() - start;
            const double pair_s = elapsed / static_cast<double>(traced.size());
            if (elapsed + pair_s > kPairShare * args.seconds) {
                break;
            }
        }
        if (checkpoint.empty()) {
            // The workload does not checkpoint: one more untraced run
            // writes a checkpoint after its final round for the probe.
            const e2e::Rep rep = wl->run({nullptr, nullptr, true});
            record(rep);
            checkpoint = rep.checkpoint_path;
        }
        reported = layerMetrics(traced, walls, cpu_per_wall);

        e2e::ProbeContext probe;
        probe.workload = &wl->workload();
        probe.device = &wl->device();
        probe.seed = args.seed;
        probe.dir = (work / "probes").string();
        fs::create_directories(probe.dir);
        probe.checkpoint_path = checkpoint;
        probe.seconds = args.seconds - (nowSeconds() - start);
        for (e2e::Metric& m : e2e::runProbes(probe)) {
            reported.push_back(std::move(m));
        }
    }

    // Every call and set-up of a run does byte-identical work (see
    // checkResult), so their spread is host interference alone, which on
    // a shared host comes and goes over seconds to minutes. The fastest
    // sample is the estimate least moved by it; the median is printed.
    auto timing = [](const std::vector<double>& xs, const char* what) {
        return "fastest of " + std::to_string(xs.size()) + " " + what +
               ", median " + std::to_string(median(xs));
    };
    const std::vector<e2e::Metric> end_to_end = {
        {"tune_wall_s", fastest(walls), "s",
         timing(walls, "untraced calls")},
        {"setup_s", fastest(setups), "s",
         setups.empty() ? std::string("not sampled under --trace 1")
                        : timing(setups, "samples")},
        {"peak_rss_mb", peakRssMb(), "MB", ""},
        {"sim_search_s", first.total_time_s, "sim_s",
         "simulated clock, deterministic"},
        {"final_latency_ms", first.final_latency * 1e3, "ms",
         "weighted end-to-end"},
        // trial_fail_ratio is 0 on every workload, so the gated metric is
        // its complement.
        {"trial_success_ratio",
         1.0 - ratio(static_cast<double>(first.failed_trials),
                     static_cast<double>(first.trials)),
         "ratio",
         "trial_fail_ratio = " + std::to_string(first.failed_trials) +
             " failed of " + std::to_string(first.trials) + " trials"},
    };
    std::printf("%zu tasks on %s, %d set-ups\n", wl->workload().tasks.size(),
                wl->device().name.c_str(), setups_made);
    e2e::printMetrics("end-to-end:", end_to_end);
    if (!setups.empty()) {
        printSamples("set-up time samples (s per set-up):", setups);
    }
    printSamples("untraced tune() walls (s):", walls);
    if (!cpus.empty()) {
        printSamples("untraced tune() process CPU (s):", cpus);
    }
    {
        const Workload& w = wl->workload();
        double tightest = 0.0;
        std::string task;
        for (size_t i = 0; i < first.best_per_task.size(); ++i) {
            const double share =
                first.best_per_task[i] /
                rooflineFloor(w.tasks[i].task, wl->device());
            if (task.empty() || share < tightest) {
                tightest = share;
                task = w.tasks[i].task.key;
            }
        }
        std::printf("tightest best latency / roofline: %.4f (%s)\n",
                    tightest, task.c_str());
    }
    if (args.trace == 1) {
        e2e::printMetrics("per-layer:", reported);
        const double pacm_ref =
            ledgerValue(args.reference, "inference_pacm", "batched_ms");
        const double epoch_ref = ledgerValue(args.reference, "training_pacm",
                                             "per_group_epoch_ms");
        std::printf("reference (not gated) BENCH_PR10.json: "
                    "inference_pacm.batched_ms = %g (512 candidates), "
                    "training_pacm.per_group_epoch_ms = %g\n",
                    pacm_ref, epoch_ref);
    } else {
        reported = end_to_end;
    }
    for (const e2e::Metric& m : reported) {
        checks.expect(std::isfinite(m.value), m.name + " is not finite");
    }
    fs::remove_all(args.work_dir);
    const bool correct = checks.count() == 0;
    std::printf("%s\n", e2e::resultJson(correct, attempted, failed, reported)
                            .c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return runBenchmark(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_tune: %s\n", e.what());
        std::error_code ec;
        fs::remove_all(args.work_dir, ec);
        return 1;
    }
}
