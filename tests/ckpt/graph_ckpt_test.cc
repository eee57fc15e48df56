/**
 * @file
 * Checkpoint/restore coverage for the graph workload family: the
 * resume-equals-straight-run golden and the crash-tolerance path on
 * irregular point-to-point traffic, the warm-start early-fork
 * equivalence, and the untagged-schedule-site diagnostic raised from
 * inside a graph run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <ostream>

#include "apps/graph/catalog.hh"
#include "ckpt/ckpt.hh"
#include "ckpt/driver.hh"
#include "core/runner.hh"
#include "exp/warm_start.hh"

namespace alewife::ckpt {
namespace {

using core::Mechanism;

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Small instance on the default 32-node machine. */
core::AppFactory
graphFactory(const std::string &name)
{
    apps::graph::GraphAppParams p;
    p.graph.vertices = 400;
    p.graph.avgDegree = 5;
    p.graph.family = workload::GraphFamily::RMat;
    p.graph.seed = 11;
    p.iters = 2;
    return apps::graph::makeApp(name, p);
}

void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.volume.total(), b.volume.total());
    EXPECT_EQ(a.counters.packetsInjected, b.counters.packetsInjected);
    EXPECT_EQ(a.counters.packetsDelivered, b.counters.packetsDelivered);
    EXPECT_EQ(a.counters.cacheHits, b.counters.cacheHits);
    EXPECT_EQ(a.counters.cacheMisses, b.counters.cacheMisses);
    for (std::size_t i = 0; i < a.breakdown.ticks.size(); ++i)
        EXPECT_EQ(a.breakdown.ticks[i], b.breakdown.ticks[i]);
    EXPECT_TRUE(b.verified);
}

struct GoldenCase
{
    const char *app;
    Mechanism mech;
};

/** Names the case in gtest's listing, which becomes the ctest test
 *  name. The default raw-byte dump would print the app pointer, which
 *  moves with address-space randomization on every run. */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.app << '/' << core::mechanismShortName(c.mech);
}

class GraphResumeGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GraphResumeGolden, ResumeEqualsStraightRun)
{
    const GoldenCase c = GetParam();
    const auto factory = graphFactory(c.app);
    core::RunSpec spec;
    spec.mechanism = c.mech;
    spec.audit = true; // InvariantAuditor on for every golden run

    const auto gold = core::runApp(factory, spec);
    ASSERT_GT(gold.simEvents, 100u);

    ForkPointDriver fork(gold.simEvents / 2);
    const auto forked = core::runApp(factory, spec, true, nullptr, &fork);
    ASSERT_TRUE(fork.snapshot().has_value());
    expectIdentical(gold, forked);

    const std::string path =
        tmpPath(std::string("alewife-ckpt-graph-") + c.app + "-"
                + std::to_string(static_cast<int>(c.mech)) + ".json");
    saveFile(*fork.snapshot(), path);
    CheckpointDriver resumeDriver({path, 0.0, /*resume=*/true,
                                   /*deleteOnSuccess=*/true});
    const auto resumed =
        core::runApp(factory, spec, true, nullptr, &resumeDriver);
    EXPECT_TRUE(resumeDriver.resumed());
    expectIdentical(gold, resumed);
    EXPECT_FALSE(std::filesystem::exists(path));
}

INSTANTIATE_TEST_SUITE_P(
    GraphApps, GraphResumeGolden,
    ::testing::Values(GoldenCase{"bfs", Mechanism::SharedMemory},
                      GoldenCase{"bfs", Mechanism::MpInterrupt},
                      GoldenCase{"pagerank-push", Mechanism::MpPolling},
                      GoldenCase{"sssp", Mechanism::BulkTransfer}),
    [](const auto &info) {
        std::string app = info.param.app;
        for (char &ch : app)
            if (ch == '-')
                ch = '_';
        switch (info.param.mech) {
          case Mechanism::SharedMemory: return app + "_SM";
          case Mechanism::MpInterrupt: return app + "_MPI";
          case Mechanism::MpPolling: return app + "_MPP";
          default: return app + "_BULK";
        }
    });

TEST(GraphCrashResume, PeriodicSnapshotResumesIdentically)
{
    const auto factory = graphFactory("sssp");
    core::RunSpec spec;
    spec.mechanism = Mechanism::MpPolling;
    spec.audit = true;
    const std::string path = tmpPath("alewife-ckpt-graph-crash.json");
    std::filesystem::remove(path);

    CheckpointDriver first({path, /*intervalCycles=*/2000.0,
                            /*resume=*/false,
                            /*deleteOnSuccess=*/false});
    const auto a = core::runApp(factory, spec, true, nullptr, &first);
    EXPECT_GT(first.snapshotsSaved(), 0u);
    ASSERT_TRUE(std::filesystem::exists(path));

    CheckpointDriver second({path, 2000.0, true, true});
    const auto b = core::runApp(factory, spec, true, nullptr, &second);
    EXPECT_TRUE(second.resumed());
    expectIdentical(a, b);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(GraphWarmStart, EarlyForkMatchesColdStartExactly)
{
    // Forked before any network activity, each warm-started variant
    // must be bit-identical to a cold run under the variant config.
    const auto factory = graphFactory("bfs");
    exp::WarmStartSweep sweep;
    sweep.base.mechanism = Mechanism::MpInterrupt;
    sweep.forkEvents = 2;
    MachineConfig slow = sweep.base.machine;
    slow.linkMBps /= 2;
    MachineConfig lat = sweep.base.machine;
    lat.hopNs *= 4;
    sweep.variants = {slow, lat};

    const auto results = exp::runWarmStartSweep(factory, sweep);
    ASSERT_EQ(results.size(), 3u);

    expectIdentical(core::runApp(factory, sweep.base), results[0]);
    core::RunSpec coldSlow = sweep.base;
    coldSlow.machine = slow;
    expectIdentical(core::runApp(factory, coldSlow), results[1]);
    core::RunSpec coldLat = sweep.base;
    coldLat.machine = lat;
    expectIdentical(core::runApp(factory, coldLat), results[2]);
}

/** Runs a workload, invoking a probe on the paused machine mid-run. */
struct MidRunProbe : core::RunDriver
{
    std::uint64_t at;
    std::function<void(Machine &)> probe;

    MidRunProbe(std::uint64_t at_, std::function<void(Machine &)> p)
        : at(at_), probe(std::move(p))
    {
    }

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        m.start(f);
        if (m.stepUntilEvents(at))
            probe(m);
        while (m.stepOne()) {
        }
        return m.finishRun();
    }
};

TEST(GraphCapture, FailsOnUntaggedEventNamingTheSite)
{
    // An untagged raw schedule during a graph run is legal for the
    // simulator but must make a mid-run capture fail loudly, naming
    // this file as the schedule site.
    bool probed = false;
    MidRunProbe driver(400, [&](Machine &m) {
        probed = true;
        m.eq().schedule(m.eq().now() + 100, [] {});
        const CaptureResult r = capture(m);
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error.find("untagged"), std::string::npos)
            << r.error;
        EXPECT_NE(r.error.find("graph_ckpt_test.cc"),
                  std::string::npos)
            << r.error;
    });
    core::RunSpec spec;
    spec.mechanism = Mechanism::MpPolling;
    core::runApp(graphFactory("pagerank"), spec, true, nullptr,
                 &driver);
    EXPECT_TRUE(probed);
}

} // namespace
} // namespace alewife::ckpt
