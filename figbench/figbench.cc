/**
 * @file
 * figbench — the figure-regeneration benchmark.
 *
 * What a user of alewife-sim waits for is the host time to regenerate
 * the paper's Figure 8 and Figure 10 sweeps, and, with the one-run
 * predictor, how much of that a capture plus analytic solves can save
 * and how accurate it is. This program measures exactly that, from
 * outside the simulator: every number comes from timing calls into
 * the library's public functions (core::runApp, exp::SweepEngine::run,
 * the App interface through a decorator, a directly constructed
 * Machine and EventQueue, obs::CritPathRecorder and obs::Predictor) or
 * from what those calls return (RunResult, the metrics registry that
 * EngineOptions::obs.metricsOut writes). Nothing under src/ knows it
 * is being measured.
 *
 * Usage (run.py builds this binary and adds the stamp arguments):
 *
 *   figbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--scale default|quick] [--work-dir DIR] [--git SHA]
 *            [--src-hash HASH]
 *
 * Sweeps run on min(4, nproc) SweepEngine workers.
 *
 * Workloads (bench_common.hh scale; the seed reaches the workload
 * generators only, through workload::*Params::seed):
 *
 *   fig08_bisection      the Figure 8 campaign: 4 apps x 5 mechanisms x
 *                        6 effective bisections (18 -> 3.5 B/cycle,
 *                        64 B cross-traffic), 120 simulations. Mesh link
 *                        queueing and cross-traffic do the most work.
 *   fig10_ideal_latency  the Figure 10 campaign: SM and SM+PF swept on
 *                        the ideal uniform-latency network at 15..400
 *                        cycles (48 runs), MP-I, MP-P and BULK run once
 *                        each on the regular mesh (12 runs): 60
 *                        simulations. Mesh routing and link queues run
 *                        only in those 12 short MP runs, so a net-layer
 *                        gain moves this workload far less than
 *                        fig08_bisection.
 *   fig08_predict        one CritPathRecorder capture per (app,
 *                        mechanism) at native bisection, then one
 *                        Predictor solve per fig08 point; errors are
 *                        taken against the measured fig08 sweep, which
 *                        set-up simulates.
 *
 * One pass is one whole campaign (or all captures and solves). The
 * run repeats passes until --seconds have been measured and reports
 * medians; set-up is repeated between passes and its median reported
 * as setup_s. The end-to-end host times are CPU times, so time a
 * thread spends preempted or stolen by the hypervisor drops out:
 * cpu_s and setup_s count all threads of the process, and run_ms.*
 * and the per-layer app and sim spans count the thread that ran the
 * simulation. Pass wall time is the per-layer wall_s.
 * --trace 0 prints the end-to-end metrics; --trace 1 is a
 * separate run that alternates untraced and traced passes (traced =
 * metrics registry attached) and prints the per-layer metrics: host
 * times from the untraced passes, simulated counts from the traced
 * ones, and their wall ratio as obs.trace_overhead_x.
 *
 * Failures are counted, never fatal: unverified runs, violated figure
 * shapes, and passes whose simulated digest differs from the first
 * pass's. The digest folds every run's runtime, event count, Fig-4
 * breakdown ticks, Fig-5 volume bytes and checksum (and, on
 * fig08_predict, every predicted runtime), so two commits can be
 * compared bit for bit. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "exp/json.hh"
#include "exp/sweep_engine.hh"
#include "machine/machine.hh"
#include "obs/critpath.hh"
#include "obs/predict.hh"
#include "sim/event_queue.hh"

namespace {

using namespace alewife;
using Clock = std::chrono::steady_clock;

constexpr int kMechs = core::kNumMechanisms;

/** Metric-name key of each mechanism, indexed by the enum value. */
constexpr std::array<const char *, kMechs> kMechKey = {
    "sm", "smpf", "mpi", "mpp", "bulk"};

int
mechIndex(core::Mechanism m)
{
    return static_cast<int>(m);
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** CPU time of the calling thread, in ms. */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3
           + static_cast<double>(ts.tv_nsec) / 1e6;
}

/** CPU time of the whole process (all threads), in seconds. */
double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
           + static_cast<double>(ts.tv_nsec) / 1e9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Simulated-result digest (FNV-1a over the raw bits)
// ---------------------------------------------------------------------

class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    void
    add(const core::RunResult &r)
    {
        add(r.runtimeCycles);
        add(r.simEvents);
        for (Tick t : r.breakdown.ticks)
            add(static_cast<std::uint64_t>(t));
        for (std::uint64_t b : r.volume.bytes)
            add(b);
        add(r.checksum);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------
// App decorator: host-time spans around every App call of one run
// ---------------------------------------------------------------------

/**
 * Host timestamps of one simulation, in CPU time of the thread that
 * runs it (runApp runs a whole simulation on one thread), so time the
 * thread spends preempted or stolen by the hypervisor drops out. gen =
 * the AppFactory call (workload generation + sequential reference);
 * setup = App::setup; sim = first App::program() call to
 * App::checksum(); verify = checksum() + reference(); end = App
 * destroyed, which runApp does after the Machine is gone, so
 * genStart..end is the whole run. wallStart/wallEnd bracket the same
 * run in wall time, for the sweep's worker idle fraction.
 */
struct RunSpan
{
    double genStart = 0, genEnd = 0, setupStart = 0, setupEnd = 0,
           simStart = 0, simEnd = 0, verifyEnd = 0, end = 0;
    Clock::time_point wallStart, wallEnd;
    bool simStarted = false;

    double runMs() const { return end - genStart; }
    double runWallMs() const { return msBetween(wallStart, wallEnd); }
    double genMs() const { return genEnd - genStart; }
    double setupMs() const { return setupEnd - setupStart; }
    double simMs() const { return simEnd - simStart; }
    double verifyMs() const { return verifyEnd - simEnd; }
};

class TimedApp final : public core::App
{
  public:
    TimedApp(std::unique_ptr<core::App> inner, RunSpan &span)
        : inner_(std::move(inner)), span_(span)
    {
    }

    ~TimedApp() override
    {
        inner_.reset();
        span_.end = threadCpuMs();
        span_.wallEnd = Clock::now();
    }

    std::string name() const override { return inner_->name(); }

    void
    setup(Machine &m, core::Mechanism mech) override
    {
        span_.setupStart = threadCpuMs();
        inner_->setup(m, mech);
        span_.setupEnd = threadCpuMs();
    }

    sim::Thread
    program(proc::Ctx &ctx) override
    {
        if (!span_.simStarted) {
            span_.simStarted = true;
            span_.simStart = threadCpuMs();
        }
        return inner_->program(ctx);
    }

    double
    checksum() const override
    {
        span_.simEnd = threadCpuMs();
        return inner_->checksum();
    }

    double
    reference() const override
    {
        const double r = inner_->reference();
        span_.verifyEnd = threadCpuMs();
        return r;
    }

    double tolerance() const override { return inner_->tolerance(); }

    void
    exportMetrics(obs::MetricsRegistry &reg) const override
    {
        inner_->exportMetrics(reg);
    }

  private:
    std::unique_ptr<core::App> inner_;
    RunSpan &span_;
};

/** Wrap @p f so every App it makes stamps @p span (which must outlive
 *  the run). */
core::AppFactory
timed(core::AppFactory f, RunSpan &span)
{
    return [f = std::move(f), &span]() -> std::unique_ptr<core::App> {
        span.wallStart = Clock::now();
        span.genStart = threadCpuMs();
        auto app = f();
        span.genEnd = threadCpuMs();
        return std::make_unique<TimedApp>(std::move(app), span);
    };
}

// ---------------------------------------------------------------------
// Metrics-registry documents (EngineOptions::obs.metricsOut)
// ---------------------------------------------------------------------

/** Registry counters and histograms summed over many runs. */
struct Registry
{
    struct Hist
    {
        std::vector<double> bounds;
        std::vector<std::uint64_t> buckets;
        double max = 0.0; ///< largest observation (overflow bucket edge)
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Hist> hists;

    /** Fold one "alewife-metrics" document in. */
    void
    add(const exp::Json &doc)
    {
        for (const auto &[name, c] : doc.at("counters").items())
            counters[name] += c.at("total").asU64();
        for (const auto &[name, h] : doc.at("histograms").items()) {
            Hist &agg = hists[name];
            const exp::Json &b = h.at("buckets");
            if (agg.buckets.empty()) {
                for (std::size_t i = 0; i < h.at("bounds").size(); ++i)
                    agg.bounds.push_back(h.at("bounds").at(i).asDouble());
                agg.buckets.assign(b.size(), 0);
            }
            for (std::size_t i = 0; i < b.size() && i < agg.buckets.size();
                 ++i)
                agg.buckets[i] += b.at(i).asU64();
            if (h.has("max"))
                agg.max = std::max(agg.max, h.at("max").asDouble());
        }
    }

    std::uint64_t
    counter(const std::string &name) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /**
     * Quantile of a fixed-bucket histogram, interpolated linearly
     * inside the bucket that holds it (bucket 0 starts at 0, the
     * overflow bucket ends at the observed max). Deterministic.
     */
    double
    quantile(const std::string &name, double q) const
    {
        const auto it = hists.find(name);
        if (it == hists.end())
            return 0.0;
        const Hist &h = it->second;
        std::uint64_t total = 0;
        for (std::uint64_t b : h.buckets)
            total += b;
        if (total == 0)
            return 0.0;
        const double target = q * static_cast<double>(total);
        double cum = 0.0;
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            const double n = static_cast<double>(h.buckets[i]);
            if (n > 0.0 && cum + n >= target) {
                const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
                const double hi =
                    i < h.bounds.size() ? h.bounds[i] : std::max(lo, h.max);
                return lo + (target - cum) / n * (hi - lo);
            }
            cum += n;
        }
        return h.max;
    }
};

/** Parse a JSON file; null on any error. */
exp::Json
readJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return exp::Json();
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    return exp::Json::parse(ss.str(), &err);
}

// ---------------------------------------------------------------------
// Configuration and inputs
// ---------------------------------------------------------------------

enum class Workload
{
    Fig08,
    Fig10,
    Predict,
};

struct Options
{
    Workload workload = Workload::Fig08;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** SweepEngine workers: min(4, nproc), fixed. */
    int jobs = 1;
    bench::Scale scale = bench::Scale::Default;
    std::string workDir = ".";
    std::string git = "none";
    std::string srcHash = "none";
};

/** splitmix64: a distinct, well-mixed generator seed per app. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct AppInput
{
    std::string name;
    core::AppFactory factory;
};

/** The four paper apps at bench scale, generators seeded from @p seed. */
std::vector<AppInput>
paperInputs(bench::Scale s, std::uint64_t seed)
{
    auto em3d = bench::em3dParams(s);
    em3d.graph.seed = mixSeed(seed, 1);
    auto unstruc = bench::unstrucParams(s);
    unstruc.mesh.seed = mixSeed(seed, 2);
    auto iccg = bench::iccgParams(s);
    iccg.matrix.seed = mixSeed(seed, 3);
    auto moldyn = bench::moldynParams(s);
    moldyn.box.seed = mixSeed(seed, 4);
    return {
        {"em3d", apps::Em3d::factory(em3d)},
        {"unstruc", apps::Unstruc::factory(unstruc)},
        {"iccg", apps::Iccg::factory(iccg)},
        {"moldyn", apps::Moldyn::factory(moldyn)},
    };
}

/** The swept points of bench/fig08_bisection_sweep.cc. */
std::vector<double>
bisectionPoints(bench::Scale s)
{
    if (s == bench::Scale::Quick)
        return {18.0, 10.0, 5.0};
    return {18.0, 14.0, 10.0, 7.0, 5.0, 3.5};
}

/** The swept points of bench/fig10_latency_ideal.cc. */
std::vector<double>
latencyPoints(bench::Scale s)
{
    if (s == bench::Scale::Quick)
        return {15.0, 100.0, 400.0};
    return {15.0, 30.0, 50.0, 100.0, 200.0, 400.0};
}

core::SweepPlan
campaignPlan(const MachineConfig &base, Workload w, bench::Scale s)
{
    core::SweepRequest req;
    req.mechs = bench::allMechs();
    if (w == Workload::Fig10) {
        req.kind = core::SweepKind::IdealLatency;
        req.points = latencyPoints(s);
    } else {
        req.kind = core::SweepKind::Bisection;
        req.points = bisectionPoints(s);
        req.crossMsgBytes = 64;
    }
    return core::planSweep(base, req);
}

// ---------------------------------------------------------------------
// Figure-shape checks (counted as failures, never fatal)
// ---------------------------------------------------------------------

const core::MechSeries *
findSeries(const std::vector<core::MechSeries> &series, core::Mechanism m)
{
    for (const auto &s : series)
        if (s.mech == m)
            return &s;
    return nullptr;
}

/** Runtime growth from the first to the last point of a curve. */
double
growth(const core::MechSeries *s)
{
    if (s == nullptr || s->points.size() < 2)
        return 0.0;
    return ratio(s->points.back().result.runtimeCycles,
                 s->points.front().result.runtimeCycles);
}

/** Runtime added per unit of the swept parameter, first to last point. */
double
slope(const core::MechSeries *s)
{
    if (s == nullptr || s->points.size() < 2)
        return 0.0;
    const auto &a = s->points.front();
    const auto &z = s->points.back();
    return ratio(z.result.runtimeCycles - a.result.runtimeCycles, z.x - a.x);
}

/**
 * Number of violated shape checks for one app's curves. Figure 8: SM
 * slows down more than MP-I from native to lowest bisection (as
 * GoldenFig8 asserts). Figure 10: SM has the steepest slope (DESIGN.md
 * section 5), i.e. it rises with latency and at least as steeply as
 * SM+PF. The message-passing curves are flat by construction
 * (core::planSweep runs each once and repeats it across the axis), so
 * they are not checked.
 */
int
shapeFailures(Workload w, const std::string &app,
              const std::vector<core::MechSeries> &series)
{
    using core::Mechanism;
    int failed = 0;
    auto check = [&](bool ok, const std::string &what) {
        if (!ok) {
            std::cerr << "figbench: shape check failed for " << app << ": "
                      << what << "\n";
            ++failed;
        }
    };
    const auto *sm = findSeries(series, Mechanism::SharedMemory);
    if (w == Workload::Fig10) {
        const double smSlope = slope(sm);
        const double pfSlope =
            slope(findSeries(series, Mechanism::SharedMemoryPrefetch));
        check(smSlope > 0.0 && smSlope >= pfSlope,
              "SM slope " + std::to_string(smSlope)
                  + " not positive and at least SM+PF's "
                  + std::to_string(pfSlope));
    } else {
        const double smGrowth = growth(sm);
        const double mpiGrowth =
            growth(findSeries(series, Mechanism::MpInterrupt));
        check(smGrowth > mpiGrowth,
              "SM slowdown " + std::to_string(smGrowth)
                  + " not above MP-I's " + std::to_string(mpiGrowth));
    }
    return failed;
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/** One simulation of a pass, with its host spans. */
struct RunRecord
{
    RunSpan span;
    core::RunResult result;
};

/** Everything one pass measured. */
struct Pass
{
    double wallS = 0.0;
    /** CPU seconds of all threads over the pass. */
    double cpuS = 0.0;
    std::vector<RunRecord> runs;
    /** Per-app SweepEngine batch wall, in input order. */
    std::vector<double> batchS;
    /** Sum of per-run walls and of jobs x batch wall (idle fraction). */
    double busyS = 0.0;
    double capacityS = 0.0;
    std::uint64_t digest = 0;
    int attempted = 0;
    int failed = 0;
    /** Registry totals (traced passes only). */
    Registry reg;
    /** fig08_predict only. */
    std::vector<double> solveMs;
    double graphMb = 0.0;
    std::array<std::vector<double>, kMechs> errPct;
    /** Measured series per app (campaigns). */
    std::vector<std::vector<core::MechSeries>> series;
};

/** Shared state of one benchmark run. */
struct Bench
{
    Options opt;
    MachineConfig base;
    std::vector<AppInput> inputs;
    core::SweepPlan plan;
    /** fig08_predict: the measured fig08 sweep made in set-up. */
    Pass reference;
    std::vector<double> bisections;
    int attempted = 0;
    int failed = 0;
};

/** Run one sweep campaign through SweepEngine, one batch per app. */
Pass
campaignPass(const Bench &b, Workload w, bool traced,
             const std::string &tag)
{
    Pass p;
    Digest digest;
    const auto t0 = Clock::now();
    const double cpu0 = processCpuS();
    for (const AppInput &in : b.inputs) {
        const std::size_t n = b.plan.specs.size();
        std::vector<RunSpan> spans(n);
        std::vector<exp::Job> jobs;
        jobs.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            jobs.push_back({timed(in.factory, spans[i]), b.plan.specs[i],
                            ""});

        exp::EngineOptions eo;
        eo.jobs = b.opt.jobs;
        eo.verifyFatal = false;
        const std::string metricsPath =
            b.opt.workDir + "/" + tag + "-" + in.name + ".json";
        if (traced)
            eo.obs.metricsOut = metricsPath;

        const auto bt0 = Clock::now();
        const auto results = exp::SweepEngine(eo).run(jobs);
        const double batchS = msBetween(bt0, Clock::now()) / 1e3;
        p.batchS.push_back(batchS);
        p.capacityS +=
            batchS * std::min<double>(b.opt.jobs, static_cast<double>(n));

        if (traced) {
            const exp::Json merged = readJson(metricsPath);
            const exp::Json *runs =
                merged.isNull() ? nullptr : merged.find("runs");
            if (runs == nullptr || runs->size() != n) {
                std::cerr << "figbench: metrics registry for " << in.name
                          << " missing runs\n";
                ++p.failed;
            } else {
                for (std::size_t i = 0; i < runs->size(); ++i)
                    p.reg.add(runs->at(i).at("metrics"));
            }
        }

        for (std::size_t i = 0; i < n; ++i) {
            const core::RunResult &r = results[i];
            ++p.attempted;
            if (!r.verified) {
                std::cerr << "figbench: unverified run " << in.name << " "
                          << core::mechanismShortName(r.mechanism) << "\n";
                ++p.failed;
            }
            digest.add(r);
            p.busyS += spans[i].runWallMs() / 1e3;
            p.runs.push_back({spans[i], r});
        }
        auto series = core::seriesFromPlan(b.plan, results);
        p.failed += shapeFailures(w, in.name, series);
        p.series.push_back(std::move(series));
    }
    p.wallS = msBetween(t0, Clock::now()) / 1e3;
    p.cpuS = processCpuS() - cpu0;
    p.digest = digest.value();
    return p;
}

obs::PredictTarget
bisectionTarget(const MachineConfig &base, double bisection)
{
    obs::PredictTarget t;
    t.machine = base;
    t.crossBytesPerCycle = base.bisectionBytesPerCycle() - bisection;
    t.crossMessageBytes = 64;
    return t;
}

/**
 * One capture per (app, mechanism) at native bisection, then one solve
 * per fig08 point, scored against the measured set-up sweep. Captures
 * run serially on this thread, as `fig08_bisection_sweep --predict`
 * runs them.
 */
Pass
predictPass(const Bench &b, bool traced, const std::string &tag)
{
    Pass p;
    Digest digest;
    const auto t0 = Clock::now();
    const double cpu0 = processCpuS();
    for (std::size_t a = 0; a < b.inputs.size(); ++a) {
        const AppInput &in = b.inputs[a];
        for (const core::MechSeries &measured : b.reference.series[a]) {
            const core::Mechanism mech = measured.mech;
            RunRecord rec;
            core::RunSpec spec;
            spec.machine = b.base;
            spec.mechanism = mech;
            const std::string metricsPath = b.opt.workDir + "/" + tag + "-"
                                            + in.name + "-"
                                            + kMechKey[mechIndex(mech)]
                                            + ".json";
            if (traced)
                spec.obs.metricsOut = metricsPath;

            obs::CritPathRecorder capture;
            rec.result = core::runApp(timed(in.factory, rec.span), spec,
                                      /*verify_fatal=*/false, nullptr,
                                      nullptr, &capture);
            ++p.attempted;
            const core::RunResult &r = rec.result;
            const core::RunResult &meas0 = measured.points[0].result;
            if (!r.verified || r.runtimeCycles != meas0.runtimeCycles
                || r.simEvents != meas0.simEvents) {
                std::cerr << "figbench: capture of " << in.name << " "
                          << core::mechanismShortName(mech)
                          << " unverified or differs from the plain run\n";
                ++p.failed;
            }
            if (traced) {
                const exp::Json doc = readJson(metricsPath);
                if (doc.isNull()) {
                    std::cerr << "figbench: metrics registry for " << in.name
                              << " " << core::mechanismShortName(mech)
                              << " missing\n";
                    ++p.failed;
                } else {
                    p.reg.add(doc);
                }
            }
            digest.add(r);

            const obs::DepGraph &g = capture.graph();
            p.graphMb = std::max(
                p.graphMb, static_cast<double>(g.memoryBytes()) / 1e6);
            const obs::Predictor predictor(g);
            for (std::size_t j = 0; j < b.bisections.size(); ++j) {
                const auto s0 = Clock::now();
                const double pred = predictor.predictRuntimeCycles(
                    bisectionTarget(b.base, b.bisections[j]));
                p.solveMs.push_back(msBetween(s0, Clock::now()));
                digest.add(pred);
                const double meas = measured.points[j].result.runtimeCycles;
                if (j == 0) {
                    // Identity anchor: the base point replays the
                    // captured run and must match it exactly.
                    if (pred != meas) {
                        std::cerr << "figbench: base-point prediction "
                                  << pred << " != measured " << meas
                                  << " for " << in.name << " "
                                  << core::mechanismShortName(mech) << "\n";
                        ++p.failed;
                    }
                    continue;
                }
                p.errPct[mechIndex(mech)].push_back(
                    100.0 * std::abs(pred - meas) / meas);
            }
            p.runs.push_back(std::move(rec));
        }
    }
    p.wallS = msBetween(t0, Clock::now()) / 1e3;
    p.cpuS = processCpuS() - cpu0;
    p.digest = digest.value();
    return p;
}

Pass
runPass(const Bench &b, bool traced, const std::string &tag)
{
    return b.opt.workload == Workload::Predict
               ? predictPass(b, traced, tag)
               : campaignPass(b, b.opt.workload, traced, tag);
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/**
 * Make the inputs and plans, and generate every app's workload once so
 * a seed that cannot build a workload fails before measuring. On
 * fig08_predict also simulate the measured fig08 sweep the predictions
 * are scored against. Returns the digest of what set-up produced.
 */
std::uint64_t
setUp(Bench &b)
{
    b.inputs = paperInputs(b.opt.scale, b.opt.seed);
    b.bisections = bisectionPoints(b.opt.scale);
    const Workload planKind =
        b.opt.workload == Workload::Fig10 ? Workload::Fig10 : Workload::Fig08;
    b.plan = campaignPlan(b.base, planKind, b.opt.scale);

    Digest digest;
    for (const AppInput &in : b.inputs)
        digest.add(in.factory()->reference());
    if (b.opt.workload == Workload::Predict) {
        b.reference = campaignPass(b, Workload::Fig08, false, "reference");
        digest.add(b.reference.digest);
    }
    return digest.value();
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/** Median host time to construct a default 32-node Machine directly,
 *  cycling through every mechanism's sync style and receive mode. */
double
machineBuildMs()
{
    const MachineConfig cfg;
    std::vector<double> ms;
    for (int i = 0; i < 40; ++i) {
        const auto mech = static_cast<core::Mechanism>(i % kMechs);
        const auto t0 = Clock::now();
        {
            Machine m(cfg, core::syncStyle(mech), core::recvMode(mech));
        }
        ms.push_back(msBetween(t0, Clock::now()));
    }
    return median(ms);
}

/** Self-rescheduling event: the kernel's schedule+fire path alone. */
struct Chain
{
    EventQueue *eq;
    std::uint64_t *remaining;
    Tick stride;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        eq->schedule(eq->now() + stride, Chain{eq, remaining, stride});
    }
};

/**
 * Steady-state ns per schedule+fire on one directly constructed
 * EventQueue: 64 interleaved chains, the queue reused across rounds so
 * its event pool is warm; construction is excluded (a fresh queue per
 * few thousand events would mostly time pool growth). Median of rounds.
 */
double
queueNsPerEvent()
{
    constexpr std::uint64_t kEvents = 200'000;
    EventQueue eq;
    std::vector<double> ns;
    for (int round = 0; round < 11; ++round) {
        std::uint64_t remaining = kEvents;
        for (int a = 0; a < 64; ++a)
            eq.schedule(eq.now() + static_cast<Tick>(a + 1),
                        Chain{&eq, &remaining,
                              static_cast<Tick>(5 + a % 7)});
        const std::uint64_t before = eq.eventsExecuted();
        const auto t0 = Clock::now();
        eq.run();
        const double dt = msBetween(t0, Clock::now()) * 1e6;
        if (round > 0) // the first round grows the pool
            ns.push_back(dt / static_cast<double>(eq.eventsExecuted()
                                                  - before));
    }
    return median(ns);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<Metric>
endToEnd(const Bench &b, const std::vector<Pass> &passes,
         const std::vector<double> &setupS)
{
    // The runs of a pass differ in size by more than 10x, so a
    // percentile of the pooled run times lands between size classes and
    // jumps with the seed; the slowest run of a pass does not.
    std::vector<double> cpu;
    std::vector<double> slowest;
    for (const Pass &p : passes) {
        cpu.push_back(p.cpuS);
        double most = 0.0;
        for (const RunRecord &r : p.runs)
            most = std::max(most, r.span.runMs());
        slowest.push_back(most);
    }
    return {
        {"cpu_s", median(cpu), "s"},
        {"run_ms.slowest", median(slowest), "ms"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"verified_frac",
         1.0 - ratio(b.failed, std::max(1, b.attempted)), "ratio"},
    };
}

std::vector<Metric>
perLayer(const Bench &b, const std::vector<Pass> &plain,
         const std::vector<Pass> &traced, double machineMs, double queueNs,
         double captureOverheadX)
{
    std::vector<Metric> m;
    std::vector<double> gen, setup, verify, walls, tracedWalls, idle;
    std::array<std::vector<double>, kMechs> simMs;
    std::array<double, kMechs> simMsSum{};
    std::array<double, kMechs> simEvents{};
    std::vector<std::vector<double>> batch(b.inputs.size());
    std::vector<double> runMs, solve;
    for (const Pass &p : plain) {
        walls.push_back(p.wallS);
        for (const RunRecord &r : p.runs) {
            gen.push_back(r.span.genMs());
            setup.push_back(r.span.setupMs());
            verify.push_back(r.span.verifyMs());
            const int k = mechIndex(r.result.mechanism);
            simMs[k].push_back(r.span.simMs());
            simMsSum[k] += r.span.simMs();
            simEvents[k] += static_cast<double>(r.result.simEvents);
            runMs.push_back(r.span.runMs());
        }
        solve.insert(solve.end(), p.solveMs.begin(), p.solveMs.end());
        for (std::size_t a = 0; a < p.batchS.size(); ++a)
            batch[a].push_back(p.batchS[a]);
        idle.push_back(1.0 - ratio(p.busyS, p.capacityS));
    }
    for (const Pass &p : traced)
        tracedWalls.push_back(p.wallS);

    m.push_back({"wall_s", median(walls), "s"});
    m.push_back({"run_ms.p50", quantile(runMs, 0.5), "ms"});
    m.push_back({"run_ms.p90", quantile(runMs, 0.9), "ms"});
    m.push_back({"workload.gen_ms", median(gen), "ms"});
    m.push_back({"machine.build_ms", machineMs, "ms"});
    m.push_back({"apps.setup_ms", median(setup), "ms"});
    m.push_back({"apps.verify_ms", median(verify), "ms"});
    for (int k = 0; k < kMechs; ++k)
        m.push_back({std::string("core.sim_ms.") + kMechKey[k],
                     median(simMs[k]), "ms"});
    for (int k = 0; k < kMechs; ++k)
        m.push_back({std::string("core.ns_per_event.") + kMechKey[k],
                     ratio(simMsSum[k] * 1e6, simEvents[k]), "ns"});

    // Simulated counts: every pass is bit-identical (digest-checked),
    // so the first untraced pass and the first traced pass stand for
    // all of them.
    const Pass &p0 = plain.front();
    const Registry &reg = traced.front().reg;
    MachineCounters c;
    std::array<double, 4> breakdown{};
    double events = 0.0;
    for (const RunRecord &r : p0.runs) {
        c += r.result.counters;
        events += static_cast<double>(r.result.simEvents);
        for (int i = 0; i < 4; ++i)
            breakdown[i] += r.result.avgCycles(static_cast<TimeCat>(i));
    }
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    m.push_back({"sim.events", events, "count"});
    m.push_back({"sim.queue_ns_per_event", queueNs, "ns"});

    m.push_back({"net.packets_injected",
                 count(reg.counter("net.packets_injected")), "count"});
    m.push_back({"net.hops", count(reg.counter("net.hops")), "count"});
    m.push_back({"net.link_wait_cycles.p50",
                 reg.quantile("link_wait_cycles", 0.5), "cycles"});
    m.push_back({"net.link_wait_cycles.p90",
                 reg.quantile("link_wait_cycles", 0.9), "cycles"});
    m.push_back({"net.packet_transit_cycles.p50",
                 reg.quantile("packet_transit_cycles", 0.5), "cycles"});
    m.push_back({"net.packet_transit_cycles.p90",
                 reg.quantile("packet_transit_cycles", 0.9), "cycles"});
    // The registry counts packets at the mesh; RunResult::counters
    // carries MachineCounters::packetsInjected. Reported, not gated.
    std::uint64_t resultPackets = 0;
    for (const RunRecord &r : traced.front().runs)
        resultPackets += r.result.counters.packetsInjected;
    m.push_back({"net.packets_counter_gap",
                 count(reg.counter("net.packets_injected"))
                     - count(resultPackets),
                 "count"});

    m.push_back({"mem.cache_fills", count(reg.counter("mem.cache_fills")),
                 "count"});
    m.push_back({"mem.invalidations",
                 count(reg.counter("mem.invalidations")), "count"});
    m.push_back({"mem.cache_hit_ratio",
                 ratio(count(c.cacheHits),
                       count(c.cacheHits) + count(c.cacheMisses)),
                 "ratio"});

    m.push_back({"coh.proto_sends", count(reg.counter("coh.proto_sends")),
                 "count"});
    m.push_back({"coh.txn_cycles.p50", reg.quantile("coh_txn_cycles", 0.5),
                 "cycles"});
    m.push_back({"coh.txn_cycles.p90", reg.quantile("coh_txn_cycles", 0.9),
                 "cycles"});
    m.push_back({"coh.remote_miss_cycles.p50",
                 reg.quantile("remote_miss_cycles", 0.5), "cycles"});
    m.push_back({"coh.remote_miss_cycles.p90",
                 reg.quantile("remote_miss_cycles", 0.9), "cycles"});
    m.push_back({"coh.limitless_traps", count(c.limitlessTraps), "count"});

    m.push_back({"msg.interrupts", count(c.interruptsTaken), "count"});
    m.push_back({"msg.polled", count(c.messagesPolled), "count"});
    m.push_back({"msg.dma_transfers", count(c.dmaTransfers), "count"});
    m.push_back({"msg.handler_run_cycles.p50",
                 reg.quantile("handler_run_cycles", 0.5), "cycles"});
    m.push_back({"msg.ni_full_stalls", count(c.niQueueFullStalls),
                 "count"});

    m.push_back({"proc.compute_cycles", breakdown[0], "cycles"});
    m.push_back({"proc.memwait_cycles", breakdown[1], "cycles"});
    m.push_back({"proc.msg_overhead_cycles", breakdown[2], "cycles"});
    m.push_back({"proc.sync_cycles", breakdown[3], "cycles"});
    m.push_back({"proc.barrier_wait_cycles.p50",
                 reg.quantile("barrier_wait_cycles", 0.5), "cycles"});
    m.push_back({"proc.prefetch_useful_ratio",
                 ratio(count(c.prefetchesUseful),
                       count(c.prefetchesIssued)),
                 "ratio"});
    m.push_back({"proc.lock_retries", count(c.lockRetries), "count"});

    // fig08_predict's sweep layer is its set-up sweep.
    if (b.opt.workload == Workload::Predict) {
        for (std::size_t a = 0; a < batch.size(); ++a)
            batch[a] = {b.reference.batchS[a]};
        idle = {1.0 - ratio(b.reference.busyS, b.reference.capacityS)};
    }
    for (std::size_t a = 0; a < b.inputs.size(); ++a)
        m.push_back({"exp.sweep_s." + b.inputs[a].name, median(batch[a]),
                     "s"});
    m.push_back({"exp.worker_idle_frac", median(idle), "ratio"});

    // The obs layer runs only on fig08_predict; elsewhere it reads 0.
    const bool predict = b.opt.workload == Workload::Predict;
    std::vector<double> allErr;
    std::array<double, kMechs> mechErr{};
    for (int k = 0; k < kMechs; ++k) {
        const auto &e = p0.errPct[k];
        double sum = 0.0;
        for (double v : e)
            sum += v;
        mechErr[k] = e.empty() ? 0.0 : sum / static_cast<double>(e.size());
        allErr.insert(allErr.end(), e.begin(), e.end());
    }
    double errSum = 0.0;
    for (double v : allErr)
        errSum += v;
    m.push_back({"obs.capture_ms", predict ? median(runMs) : 0.0, "ms"});
    m.push_back({"obs.capture_overhead_x", captureOverheadX, "x"});
    m.push_back({"obs.graph_mb", p0.graphMb, "MB"});
    m.push_back({"obs.solve_ms", median(solve), "ms"});
    for (int k = 0; k < kMechs; ++k)
        m.push_back({std::string("obs.err_pct.") + kMechKey[k], mechErr[k],
                     "%"});
    m.push_back({"obs.mape_pct",
                 allErr.empty()
                     ? 0.0
                     : errSum / static_cast<double>(allErr.size()),
                 "%"});
    m.push_back({"obs.max_err_pct",
                 allErr.empty()
                     ? 0.0
                     : *std::max_element(allErr.begin(), allErr.end()),
                 "%"});
    m.push_back({"obs.trace_overhead_x",
                 ratio(median(tracedWalls), median(walls)), "x"});
    return m;
}

/**
 * Host cost of a capture against a plain run of the same 20 base
 * configurations, run back to back, serially: sum over sum.
 */
double
captureOverheadX(Bench &b)
{
    double plainMs = 0.0;
    double captureMs = 0.0;
    for (const AppInput &in : b.inputs) {
        for (core::Mechanism mech : bench::allMechs()) {
            core::RunSpec spec;
            spec.machine = b.base;
            spec.mechanism = mech;
            auto t0 = Clock::now();
            const auto plain = core::runApp(in.factory, spec, false);
            plainMs += msBetween(t0, Clock::now());
            obs::CritPathRecorder capture;
            t0 = Clock::now();
            const auto captured = core::runApp(
                in.factory, spec, false, nullptr, nullptr, &capture);
            captureMs += msBetween(t0, Clock::now());
            b.attempted += 2;
            b.failed += !plain.verified + !captured.verified;
        }
    }
    return ratio(captureMs, plainMs);
}

void
printResult(bool correct, int attempted, int failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "figbench: " << error
              << "\nusage: figbench --workload "
                 "fig08_bisection|fig10_ideal_latency|fig08_predict "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--scale default|quick] [--work-dir DIR] [--git SHA] "
                 "[--src-hash HASH]\n";
    std::exit(2);
}

/** Apply one "--name value" pair to @p o; throws on a malformed number. */
void
parseOne(Options &o, const std::string &a, const std::string &v)
{
    if (a == "--workload")
        o.workloadName = v;
    else if (a == "--seed")
        o.seed = std::stoull(v);
    else if (a == "--seconds")
        o.seconds = std::stod(v);
    else if (a == "--trace" && (v == "0" || v == "1"))
        o.trace = v == "1";
    else if (a == "--scale" && (v == "default" || v == "quick"))
        o.scale = v == "quick" ? bench::Scale::Quick
                               : bench::Scale::Default;
    else if (a == "--work-dir")
        o.workDir = v;
    else if (a == "--git")
        o.git = v;
    else if (a == "--src-hash")
        o.srcHash = v;
    else
        usage("bad argument " + a + " " + v);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.jobs = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            parseOne(o, a, v);
        } catch (const std::exception &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workloadName == "fig08_bisection")
        o.workload = Workload::Fig08;
    else if (o.workloadName == "fig10_ideal_latency")
        o.workload = Workload::Fig10;
    else if (o.workloadName == "fig08_predict")
        o.workload = Workload::Predict;
    else
        usage("unknown workload '" + o.workloadName + "'");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Bench b;
    b.opt = parseArgs(argc, argv);
    const Options &o = b.opt;

    const std::string buildType = FIGBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    if (buildType != "Release" || asserts)
        std::cerr << "figbench: WARNING: built as '" << buildType << "'"
                  << (asserts ? " with assertions" : "")
                  << ", not Release; host times are not comparable\n";

    // Registry files go to a private directory, removed at exit.
    b.opt.workDir += "/figbench-tmp-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::create_directories(o.workDir, ec);
    if (ec)
        usage("cannot create work dir " + o.workDir);

    // Set-up runs once before anything else and again before every
    // later pass, so its median samples the host over the whole run as
    // cpu_s does, not over the first instant only. Every repeat must
    // reproduce the first.
    const int setupsPerPass = o.workload == Workload::Predict ? 1 : 3;
    std::vector<double> setupS;
    std::uint64_t setupDigest = 0;
    auto timedSetUp = [&] {
        const double t0 = processCpuS();
        const std::uint64_t d = setUp(b);
        setupS.push_back(processCpuS() - t0);
        b.attempted += b.reference.attempted;
        b.failed += b.reference.failed;
        if (setupS.size() == 1)
            setupDigest = d;
        else if (d != setupDigest) {
            std::cerr << "figbench: set-up " << setupS.size() - 1
                      << " digest differs from the first\n";
            ++b.failed;
        }
    };
    timedSetUp();

    double machineMs = 0.0;
    double queueNs = 0.0;
    double overheadX = 0.0;
    if (o.trace) {
        machineMs = machineBuildMs();
        queueNs = queueNsPerEvent();
        if (o.workload == Workload::Predict)
            overheadX = captureOverheadX(b);
    }

    // Measured passes; with --trace 1 untraced and traced alternate.
    std::vector<Pass> plain;
    std::vector<Pass> traced;
    std::uint64_t digest = 0;
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        for (int k = 0; i > 0 && k < setupsPerPass; ++k)
            timedSetUp();
        const bool t = o.trace && i % 2 == 1;
        Pass p = runPass(b, t, "pass" + std::to_string(i));
        b.attempted += p.attempted;
        b.failed += p.failed;
        if (i == 0)
            digest = p.digest;
        else if (p.digest != digest) {
            std::cerr << "figbench: pass " << i
                      << " digest differs from pass 0\n";
            ++b.failed;
        }
        std::cerr << "figbench: pass " << i << (t ? " traced" : "")
                  << " wall " << p.wallS << " s cpu " << p.cpuS << " s\n";
        (t ? traced : plain).push_back(std::move(p));
        const bool enough =
            msBetween(start, Clock::now()) / 1e3 >= o.seconds;
        if (enough && (!o.trace || !traced.empty()))
            break;
    }
    std::filesystem::remove_all(o.workDir, ec);

    std::cout << "figbench: workload=" << o.workloadName
              << " seed=" << o.seed << " scale="
              << (o.scale == bench::Scale::Quick ? "quick" : "default")
              << " jobs=" << o.jobs
              << " nproc=" << std::thread::hardware_concurrency()
              << " build=" << buildType << " git=" << o.git
              << " src=" << o.srcHash << " trace=" << (o.trace ? 1 : 0)
              << " passes=" << plain.size() + traced.size() << "\n";
    char hex[64];
    std::snprintf(hex, sizeof hex, "digest=%016llx setup_digest=%016llx",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(setupDigest));
    std::cout << "figbench: " << hex << "\n";

    const std::vector<Metric> metrics =
        o.trace ? perLayer(b, plain, traced, machineMs, queueNs, overheadX)
                : endToEnd(b, plain, setupS);
    bool finite = true;
    for (const Metric &m : metrics)
        finite = finite && std::isfinite(m.value);
    printResult(finite && b.failed == 0, b.attempted, b.failed, metrics);
    return 0;
}
