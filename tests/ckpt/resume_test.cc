/**
 * @file
 * Resume-equals-straight-run goldens: a run saved mid-flight and
 * resumed in a fresh process-worth of state must finish bit-identical
 * to the uninterrupted run — across workloads, mechanisms, schedule
 * perturbation (RNG streams), and the periodic crash-tolerance path.
 * All golden runs execute with the invariant auditor attached.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>

#include "apps/em3d.hh"
#include "apps/iccg.hh"
#include "apps/stream.hh"
#include "ckpt/driver.hh"
#include "core/runner.hh"

namespace alewife::ckpt {
namespace {

using core::Mechanism;

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

core::AppFactory
factoryFor(const std::string &app)
{
    if (app == "stream") {
        apps::Stream::Params p;
        p.valuesPerIter = 16;
        p.iters = 2;
        return apps::Stream::factory(p);
    }
    if (app == "em3d") {
        apps::Em3d::Params p;
        p.graph.nodesPerSide = 256;
        p.graph.degree = 4;
        p.iters = 2;
        return apps::Em3d::factory(p);
    }
    apps::Iccg::Params p;
    p.matrix.rows = 400;
    return apps::Iccg::factory(p);
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

class ResumeGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(ResumeGolden, ResumeEqualsStraightRun)
{
    const GoldenCase c = GetParam();
    const auto factory = factoryFor(c.app);
    core::RunSpec spec;
    spec.mechanism = c.mech;
    spec.audit = true; // InvariantAuditor on for every golden run

    const auto gold = core::runApp(factory, spec);
    ASSERT_GT(gold.simEvents, 100u);

    // Fork midway; capturing must not perturb the run itself.
    ForkPointDriver fork(gold.simEvents / 2);
    const auto forked = core::runApp(factory, spec, true, nullptr, &fork);
    ASSERT_TRUE(fork.snapshot().has_value());
    expectIdentical(gold, forked);

    // Resume from the file in a fresh machine: bit-identical finish.
    const std::string path = tmpPath(std::string("alewife-ckpt-golden-")
                                     + c.app + "-"
                                     + core::mechanismShortName(c.mech)
                                     + ".json");
    saveFile(*fork.snapshot(), path);
    CheckpointDriver resumeDriver({path, 0.0, /*resume=*/true,
                                   /*deleteOnSuccess=*/true});
    const auto resumed =
        core::runApp(factory, spec, true, nullptr, &resumeDriver);
    EXPECT_TRUE(resumeDriver.resumed());
    expectIdentical(gold, resumed);
    // Successful completion removes the job-done marker.
    EXPECT_FALSE(std::filesystem::exists(path));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ResumeGolden,
    ::testing::Values(GoldenCase{"stream", Mechanism::SharedMemory},
                      GoldenCase{"stream", Mechanism::MpInterrupt},
                      GoldenCase{"em3d", Mechanism::SharedMemory},
                      GoldenCase{"em3d", Mechanism::MpInterrupt},
                      GoldenCase{"iccg", Mechanism::SharedMemory},
                      GoldenCase{"iccg", Mechanism::MpInterrupt}),
    [](const auto &info) {
        return std::string(info.param.app) + "_"
               + (info.param.mech == Mechanism::SharedMemory ? "SM"
                                                             : "MPI");
    });

TEST(CrashResume, PeriodicSnapshotResumesIdentically)
{
    const auto factory = factoryFor("stream");
    core::RunSpec spec;
    spec.audit = true;
    const std::string path = tmpPath("alewife-ckpt-crash.json");
    std::filesystem::remove(path);

    // First run saves periodically and keeps the last snapshot around,
    // standing in for a worker killed after its final save.
    CheckpointDriver first({path, /*intervalCycles=*/500.0,
                            /*resume=*/false, /*deleteOnSuccess=*/false});
    const auto a = core::runApp(factory, spec, true, nullptr, &first);
    EXPECT_GT(first.snapshotsSaved(), 0u);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Second run resumes from that mid-run snapshot and must finish
    // exactly like the uninterrupted run.
    CheckpointDriver second({path, 500.0, true, true});
    const auto b = core::runApp(factory, spec, true, nullptr, &second);
    EXPECT_TRUE(second.resumed());
    expectIdentical(a, b);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CrashResume, ConfigMismatchFallsBackToColdStart)
{
    const auto factory = factoryFor("stream");
    const std::string path = tmpPath("alewife-ckpt-mismatch.json");

    core::RunSpec spec;
    ForkPointDriver fork(200);
    core::runApp(factory, spec, true, nullptr, &fork);
    ASSERT_TRUE(fork.snapshot().has_value());
    saveFile(*fork.snapshot(), path);

    // A different machine must ignore the snapshot (warn + cold
    // start), not resume into a wrong configuration.
    core::RunSpec other;
    other.machine.cacheBytes *= 2;
    CheckpointDriver driver({path, 0.0, true, true});
    const auto r = core::runApp(factory, other, true, nullptr, &driver);
    EXPECT_FALSE(driver.resumed());
    EXPECT_TRUE(r.verified);
    std::filesystem::remove(path);
}

TEST(CrashResume, UnreadableSnapshotFallsBackToColdStart)
{
    const auto factory = factoryFor("stream");
    const std::string path = tmpPath("alewife-ckpt-garbage.json");
    {
        std::ofstream out(path);
        out << "{ not a snapshot";
    }
    core::RunSpec spec;
    CheckpointDriver driver({path, 0.0, true, true});
    const auto r = core::runApp(factory, spec, true, nullptr, &driver);
    EXPECT_FALSE(driver.resumed());
    EXPECT_TRUE(r.verified);
    std::filesystem::remove(path);
}

// --------------------------------------------------------------------
// RNG stream capture (satellite): the kernel tie-break stream and the
// mesh jitter stream must restore so the *subsequent* sequence is
// bit-identical — pinned end-to-end by resuming perturbed runs, whose
// schedules consume both streams continuously.
// --------------------------------------------------------------------

class ResumePerturbed : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ResumePerturbed, PerturbedRunResumesBitIdentical)
{
    const auto factory = factoryFor("stream");
    core::RunSpec spec;
    spec.audit = true;
    spec.perturb.seed = GetParam();
    spec.perturb.tieBreak = true;
    spec.perturb.hopJitterFrac = 0.2;

    const auto gold = core::runApp(factory, spec);
    ASSERT_GT(gold.simEvents, 100u);

    ForkPointDriver fork(gold.simEvents / 2);
    const auto forked = core::runApp(factory, spec, true, nullptr, &fork);
    ASSERT_TRUE(fork.snapshot().has_value());
    expectIdentical(gold, forked);

    const std::string path =
        tmpPath("alewife-ckpt-perturb-"
                + std::to_string(GetParam()) + ".json");
    saveFile(*fork.snapshot(), path);
    CheckpointDriver resumeDriver({path, 0.0, true, true});
    const auto resumed =
        core::runApp(factory, spec, true, nullptr, &resumeDriver);
    EXPECT_TRUE(resumeDriver.resumed());
    expectIdentical(gold, resumed);
}

INSTANTIATE_TEST_SUITE_P(PerturbSeeds, ResumePerturbed,
                         ::testing::Values(1u, 7u, 1234567u));

TEST(ResumeRng, DifferentSeedsActuallyDiverge)
{
    // Sanity for the suite above: the perturbed schedules depend on the
    // seed, so stream restoration is load-bearing, not vacuous.
    const auto factory = factoryFor("stream");
    core::RunSpec a;
    a.perturb.seed = 1;
    a.perturb.tieBreak = true;
    a.perturb.hopJitterFrac = 0.2;
    core::RunSpec b = a;
    b.perturb.seed = 2;
    const auto ra = core::runApp(factory, a);
    const auto rb = core::runApp(factory, b);
    EXPECT_NE(ra.runtimeCycles, rb.runtimeCycles);
}

} // namespace
} // namespace alewife::ckpt
