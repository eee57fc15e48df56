/**
 * @file
 * Tests for the contended 2D mesh.
 */

#include <gtest/gtest.h>

#include "machine/config.hh"
#include "net/mesh.hh"

namespace alewife::net {
namespace {

MachineConfig
testConfig()
{
    MachineConfig c;
    c.meshX = 8;
    c.meshY = 4;
    return c;
}

Packet *
makePkt(Mesh &mesh, NodeId src, NodeId dst, std::uint32_t bytes)
{
    Packet *p = mesh.acquire();
    p->src = src;
    p->dst = dst;
    p->kind = PacketKind::CrossTraffic;
    p->addBytes(VolCat::Data, bytes);
    return p;
}

TEST(Mesh, HopCountIsManhattan)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    EXPECT_EQ(mesh.hopCount(0, 0), 0);
    EXPECT_EQ(mesh.hopCount(0, 7), 7);
    EXPECT_EQ(mesh.hopCount(0, 31), 10); // (7,3) from (0,0)
    EXPECT_EQ(mesh.hopCount(9, 10), 1);
}

TEST(Mesh, DeliversToSink)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    int got = 0;
    mesh.setSink([&](Packet &) { return ++got, true; });
    mesh.send(makePkt(mesh, 0, 5, 24));
    eq.run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(mesh.packetsDelivered(), 1u);
}

TEST(Mesh, LatencyMatchesModel)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    Tick arrival = 0;
    mesh.setSink([&](Packet &) { return arrival = eq.now(), true; });
    const int hops = mesh.hopCount(0, 5);
    mesh.send(makePkt(mesh, 0, 5, 24));
    eq.run();
    const double expect = c.netFixedCycles() + hops * c.hopCycles()
                          + 24.0 / c.linkBytesPerCycle();
    EXPECT_NEAR(ticksToCycles(arrival), expect, 0.1);
}

TEST(Mesh, ContentionDelaysSecondPacket)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    std::vector<Tick> arrivals;
    mesh.setSink([&](Packet &) {
        arrivals.push_back(eq.now());
        return true;
    });
    // Two large packets on the same route back to back.
    mesh.send(makePkt(mesh, 0, 7, 512));
    mesh.send(makePkt(mesh, 0, 7, 512));
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    const Tick gap = arrivals[1] - arrivals[0];
    // The second must trail by at least one serialization time.
    EXPECT_GE(ticksToCycles(gap), 512.0 / c.linkBytesPerCycle() - 1.0);
}

TEST(Mesh, DisjointRoutesDoNotInterfere)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    std::vector<Tick> arrivals(c.nodes(), 0);
    mesh.setSink([&](Packet &p) {
        arrivals[static_cast<std::size_t>(p.dst)] = eq.now();
        return true;
    });
    mesh.send(makePkt(mesh, 0, 1, 512));  // row 0
    mesh.send(makePkt(mesh, 8, 9, 512));  // row 1 — different links
    eq.run();
    EXPECT_EQ(arrivals[1], arrivals[9]);
}

TEST(Mesh, RejectedDeliveryRetries)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    int attempts = 0;
    mesh.setSink([&](Packet &) { return ++attempts >= 3; });
    mesh.send(makePkt(mesh, 0, 2, 24));
    eq.run();
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(mesh.niRejects(), 2u);
    EXPECT_EQ(mesh.packetsDelivered(), 1u);
}

TEST(Mesh, IdealModeUsesUniformLatency)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    c.idealNet = true;
    c.idealNetLatencyCycles = 100.0;
    Mesh mesh(eq, c);
    std::vector<Tick> arrivals;
    mesh.setSink([&](Packet &) {
        arrivals.push_back(eq.now());
        return true;
    });
    mesh.send(makePkt(mesh, 0, 1, 8));     // 1 hop
    mesh.send(makePkt(mesh, 0, 31, 4096)); // 10 hops, huge
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], arrivals[1]);
    EXPECT_NEAR(ticksToCycles(arrivals[0]), 100.0, 0.01);
}

TEST(Mesh, VolumeAccountingByCategory)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    mesh.setSink([](Packet &) { return true; });
    Packet *p = mesh.acquire();
    p->src = 0;
    p->dst = 3;
    p->kind = PacketKind::Coherence;
    p->addBytes(VolCat::Headers, 8);
    p->addBytes(VolCat::Data, 16);
    mesh.send(p);
    eq.run();
    EXPECT_EQ(mesh.volume().get(VolCat::Headers), 8u);
    EXPECT_EQ(mesh.volume().get(VolCat::Data), 16u);
    EXPECT_EQ(mesh.volume().total(), 24u);
}

TEST(Mesh, CrossTrafficExcludedFromVolume)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    mesh.setSink([](Packet &) { return true; });
    auto p = makePkt(mesh, 0, 3, 64);
    p->countInVolume = false;
    mesh.send(p);
    eq.run();
    EXPECT_EQ(mesh.volume().total(), 0u);
}

TEST(Mesh, BisectionBytesTracked)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    mesh.setSink([](Packet &) { return true; });
    mesh.send(makePkt(mesh, 0, 7, 100));  // crosses the vertical cut
    mesh.send(makePkt(mesh, 0, 1, 100));  // does not
    eq.run();
    EXPECT_EQ(mesh.bisectionBytes(), 100u);
}

TEST(Mesh, SameSourceDestinationPairStaysOrdered)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    std::vector<int> order;
    mesh.setSink([&](Packet &p) {
        order.push_back(static_cast<int>(p.sizeBytes));
        return true;
    });
    // Different sizes would reorder in a latency-only model.
    mesh.send(makePkt(mesh, 0, 7, 1024));
    mesh.send(makePkt(mesh, 0, 7, 8));
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1024);
    EXPECT_EQ(order[1], 8);
}

} // namespace
} // namespace alewife::net
