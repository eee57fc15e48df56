/**
 * @file
 * Message-ownership tests: every pooled packet is back in its mesh's
 * pool when a run ends (NI reject/retry and cross-traffic drain
 * included), the machine's packet counters are the mesh's own counts,
 * and repeating a run in one process reproduces its result exactly.
 */

#include <gtest/gtest.h>

#include "apps/em3d.hh"
#include "core/runner.hh"
#include "exp/serialize.hh"

namespace alewife {
namespace {

using core::Mechanism;

/** What the mesh looked like right after Machine::run returned. */
struct MeshAfterRun
{
    std::size_t live = 0;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t rejects = 0;
};

/** Runs the machine like runApp would, then reads the mesh. */
class RecordingDriver : public core::RunDriver
{
  public:
    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        const Tick t = m.run(f);
        after.live = m.mesh().packetsLive();
        after.injected = m.mesh().packetsInjected();
        after.delivered = m.mesh().packetsDelivered();
        after.rejects = m.mesh().niRejects();
        return t;
    }

    MeshAfterRun after;
};

apps::Em3d::Params
smallEm3d()
{
    apps::Em3d::Params p;
    p.graph.nodesPerSide = 320;
    p.graph.degree = 5;
    p.iters = 2;
    return p;
}

core::RunResult
run(Mechanism mech, const MachineConfig &cfg, double cross,
    RecordingDriver *driver = nullptr)
{
    apps::Em3d app(smallEm3d());
    core::RunSpec spec;
    spec.machine = cfg;
    spec.mechanism = mech;
    spec.crossTraffic.bytesPerCycle = cross;
    return core::runApp(app, spec, true, nullptr, driver);
}

TEST(PacketOwnership, NoPacketLiveAfterCrossTrafficDrain)
{
    RecordingDriver d;
    const auto r = run(Mechanism::SharedMemory, MachineConfig{}, 10.0, &d);
    ASSERT_TRUE(r.verified);
    EXPECT_GT(d.after.injected, 0u);
    EXPECT_EQ(d.after.live, 0u);
    EXPECT_EQ(d.after.delivered, d.after.injected);
}

TEST(PacketOwnership, NoPacketLiveAfterNiRejectsAndRetries)
{
    // A one-slot NI queue under interrupt-driven message passing makes
    // the mesh park and redeliver packets.
    MachineConfig cfg;
    cfg.niInputQueueSlots = 1;
    RecordingDriver d;
    const auto r = run(Mechanism::MpInterrupt, cfg, 0.0, &d);
    ASSERT_TRUE(r.verified);
    EXPECT_GT(d.after.rejects, 0u);
    EXPECT_EQ(d.after.live, 0u);
    EXPECT_EQ(d.after.delivered, d.after.injected);
}

TEST(PacketOwnership, CountersAreTheMeshCounts)
{
    for (Mechanism mech : {Mechanism::SharedMemory, Mechanism::MpPolling}) {
        RecordingDriver d;
        const auto r = run(mech, MachineConfig{}, 5.0, &d);
        ASSERT_TRUE(r.verified);
        EXPECT_GT(r.counters.packetsInjected, 0u);
        EXPECT_EQ(r.counters.packetsInjected, d.after.injected);
        EXPECT_EQ(r.counters.packetsDelivered, d.after.delivered);
    }
}

TEST(PacketOwnership, RepeatedRunInOneProcessIsIdentical)
{
    // The second run starts with a warm heap (the first machine's pool
    // went back to it); nothing may depend on where packets land.
    for (Mechanism mech :
         {Mechanism::SharedMemoryPrefetch, Mechanism::BulkTransfer}) {
        const auto a = run(mech, MachineConfig{}, 10.0);
        const auto b = run(mech, MachineConfig{}, 10.0);
        EXPECT_EQ(exp::resultToJson(a).dump(), exp::resultToJson(b).dump());
        EXPECT_EQ(a.simEvents, b.simEvents);
    }
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif

TEST(PacketOwnershipDeath, UseAfterReleaseIsCaughtUnderAsan)
{
    if (!kAsan)
        GTEST_SKIP() << "released packets are poisoned only under ASan";
    EventQueue eq;
    MachineConfig cfg;
    net::Mesh mesh(eq, cfg);
    net::Packet *p = mesh.acquire();
    mesh.release(p);
    EXPECT_DEATH(
        {
            volatile NodeId *src = &p->src;
            (void)*src;
        },
        "use-after-poison");
}

} // namespace
} // namespace alewife
