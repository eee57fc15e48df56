#include "net/mesh.hh"

#include <algorithm>
#include <cmath>

#include "check/hooks.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace alewife::net {

Mesh::Mesh(EventQueue &eq, const MachineConfig &cfg) : eq_(eq), cfg_(cfg)
{
    // Four unidirectional links per node (E, W, N, S); links off the mesh
    // edge exist but are only used by cross-traffic draining off-edge.
    links_.resize(static_cast<std::size_t>(cfg.nodes()) * 4);
    nodeX_.resize(static_cast<std::size_t>(cfg.nodes()));
    nodeY_.resize(static_cast<std::size_t>(cfg.nodes()));
    for (int n = 0; n < cfg.nodes(); ++n) {
        nodeX_[static_cast<std::size_t>(n)] = n % cfg.meshX;
        nodeY_[static_cast<std::size_t>(n)] = n / cfg.meshX;
    }
    computeDerivedTiming();
}

void
Mesh::computeDerivedTiming()
{
    hopTicks_ = cyclesToTicks(cfg_.hopCycles());
    fixedTicks_ = cyclesToTicks(cfg_.netFixedCycles());
    retryTicks_ = cyclesToTicks(cfg_.niRetryCycles);
    idealTicks_ = cyclesToTicks(cfg_.idealNetLatencyCycles);
    // Memoize serialization times for every packet size up to 4 KiB
    // (covers all protocol/AM/DMA packets; larger sizes fall back to
    // the exact formula). Filled with the exact per-call computation so
    // lookups are bit-identical to the pre-memo behavior.
    serTable_.resize(4096);
    for (std::uint32_t b = 0; b < serTable_.size(); ++b)
        serTable_[b] = serializationTicksExact(b);
}

Tick
Mesh::serializationTicksExact(std::uint32_t bytes) const
{
    return cyclesToTicks(static_cast<double>(bytes)
                         / cfg_.linkBytesPerCycle());
}

Tick
Mesh::serializationTicks(std::uint32_t bytes) const
{
    if (bytes < serTable_.size())
        return serTable_[bytes];
    return serializationTicksExact(bytes);
}

void
Mesh::setHopJitter(double frac, std::uint64_t seed)
{
    jitterFrac_ = frac;
    jitterRng_ = Rng(seed);
}

Tick
Mesh::hopLatency()
{
    if (jitterFrac_ <= 0.0)
        return hopTicks_;
    const double f =
        1.0 + jitterFrac_ * (2.0 * jitterRng_.nextDouble() - 1.0);
    const auto t = static_cast<Tick>(
        std::llround(static_cast<double>(hopTicks_) * f));
    return t < 1 ? 1 : t;
}

int
Mesh::linkIndex(int x, int y, int nx, int ny) const
{
    const int node = y * cfg_.meshX + x;
    int dir;
    if (nx == x + 1 && ny == y)
        dir = 0; // east
    else if (nx == x - 1 && ny == y)
        dir = 1; // west
    else if (ny == y + 1 && nx == x)
        dir = 2; // north
    else if (ny == y - 1 && nx == x)
        dir = 3; // south
    else
        ALEWIFE_PANIC("non-adjacent hop in route");
    return node * 4 + dir;
}

int
Mesh::hopCount(NodeId a, NodeId b) const
{
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    return std::abs(nodeX_[ai] - nodeX_[bi])
           + std::abs(nodeY_[ai] - nodeY_[bi]);
}

Tick
Mesh::send(Packet *pkt)
{
    // Parallel windows: sends mutate mesh-global state (packet ids,
    // link horizons, volume, the jitter RNG), so they run gated — one
    // at a time, in exact serial event order.
    if (gate_) [[unlikely]]
        gate_->gateWait();
    pkt->id = nextId_++;
    ++injected_;
    ALEWIFE_TRACE_EVENT(TraceCat::Net, eq_.now(), "inject #", pkt->id,
                        " ", pkt->src, "->", pkt->dst, " ",
                        pkt->sizeBytes, "B kind ",
                        static_cast<int>(pkt->kind));
    if (pkt->countInVolume) {
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(VolCat::NumCats); ++c) {
            volume_.add(static_cast<VolCat>(c), pkt->volBytes[c]);
        }
    }
    if (hooks_)
        hooks_->onPacketInjected(*pkt);

    const Tick now = eq_.now();

    if (cfg_.idealNet) {
        // Uniform latency, infinite bandwidth, no contention.
        const Tick arrive = now + idealTicks_;
        if (hooks_) {
            check::PacketEdgeCost cost;
            cost.src = pkt->src;
            cost.dst = pkt->dst;
            cost.bytes = pkt->sizeBytes;
            cost.fixedTicks = idealTicks_;
            cost.ideal = true;
            hooks_->onPacketEdgeCost(cost);
        }
        eq_.schedule(arrive,
                     EventMeta{EventTag::MeshDeliverIdeal,
                               reinterpret_cast<std::uintptr_t>(pkt), 0},
                     [this, pkt]() { deliver(pkt, -1); });
        return 0;
    }

    // Dimension-order route, walked arithmetically: the X run along the
    // source row, then the Y run along the destination column. Link
    // index = node * 4 + direction (E, W, N, S), so one hop east or west
    // steps the index by 4 and one hop north or south by 4 * meshX.
    const auto si = static_cast<std::size_t>(pkt->src);
    const auto di = static_cast<std::size_t>(pkt->dst);
    const int sx = nodeX_[si], sy = nodeY_[si];
    const int dx = nodeX_[di], dy = nodeY_[di];
    const int xRun = std::abs(dx - sx);
    const int yRun = std::abs(dy - sy);
    const Tick ser = serializationTicks(pkt->sizeBytes);

    Tick head = now + fixedTicks_;
    Tick first_link_wait = 0;
    Tick hopTicksTotal = 0;
    Tick queueTicksTotal = 0;
    bool first = true;
    int finalLink = -1;
    auto traverse = [&](int li) {
        Link &link = links_[static_cast<std::size_t>(li)];
        const Tick hop = hopLatency();
        const Tick uncontended = head + hop;
        head = std::max(uncontended, link.freeAt + hop);
        const Tick waited = head - uncontended;
        if (first) {
            first_link_wait = waited;
            first = false;
        }
        hopTicksTotal += hop;
        queueTicksTotal += waited;
        link.freeAt = head + ser;
        link.busyTicks += ser;
        link.bytes += pkt->sizeBytes;
        finalLink = li;
        if (hooks_)
            hooks_->onHop(*pkt, li, head, waited);
    };
    {
        const bool east = dx > sx;
        const int step = east ? 4 : -4;
        int li = pkt->src * 4 + (east ? 0 : 1);
        for (int h = 0; h < xRun; ++h, li += step)
            traverse(li);
    }
    {
        const bool north = dy > sy;
        const int step = north ? 4 * cfg_.meshX : -4 * cfg_.meshX;
        int li = (sy * cfg_.meshX + dx) * 4 + (north ? 2 : 3);
        for (int h = 0; h < yRun; ++h, li += step)
            traverse(li);
    }
    // Bisection accounting: the X run crosses the vertical cut between
    // columns bisectX-1 and bisectX at most once.
    const int bisectX = cfg_.meshX / 2;
    if (std::min(sx, dx) < bisectX && std::max(sx, dx) >= bisectX)
        bisectionBytes_ += pkt->sizeBytes;

    const int hops = xRun + yRun;
    // Tail arrives one hop + serialization after the head enters the last
    // link; for the zero-hop (self) case just charge fixed + serialization.
    const Tick arrive = hops == 0 ? now + fixedTicks_ + ser : head + ser;

    if (hooks_) {
        check::PacketEdgeCost cost;
        cost.src = pkt->src;
        cost.dst = pkt->dst;
        cost.bytes = pkt->sizeBytes;
        cost.hops = static_cast<std::uint16_t>(hops);
        cost.xHops = static_cast<std::uint16_t>(xRun);
        cost.fixedTicks = fixedTicks_;
        cost.hopTicksTotal = hopTicksTotal;
        cost.serTicks = ser;
        cost.queueTicks = queueTicksTotal;
        hooks_->onPacketEdgeCost(cost);
    }
    eq_.schedule(arrive,
                 EventMeta{EventTag::MeshDeliver,
                           reinterpret_cast<std::uintptr_t>(pkt),
                           static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(finalLink))},
                 [this, pkt, finalLink]() { deliver(pkt, finalLink); });
    return first_link_wait;
}

void
Mesh::deliver(Packet *pkt, int finalLink)
{
    if (!sink_)
        ALEWIFE_PANIC("no sink registered for node ", pkt->dst);
    if (sink_(*pkt)) {
        ALEWIFE_TRACE_EVENT(TraceCat::Net, eq_.now(), "deliver #",
                            pkt->id, " at ", pkt->dst);
        // Accept path: everything else it touches is destination-node
        // state, so it runs ungated on that node's worker; only this
        // machine-wide counter is shared (sum order is commutative).
        delivered_.fetch_add(1, std::memory_order_relaxed);
        if (hooks_)
            hooks_->onPacketDelivered(*pkt);
        // Cross-traffic drains off the mesh edge; any other packet now
        // belongs to the receiver, which releases it after its handler.
        if (pkt->kind == PacketKind::CrossTraffic)
            release(pkt);
        return;
    }
    ALEWIFE_TRACE_EVENT(TraceCat::Net, eq_.now(), "reject #", pkt->id,
                        " at ", pkt->dst, " (NI full)");

    // Receiver full: park the packet, keep the final link busy, retry.
    // This path mutates the shared link horizon, so gate it like send.
    if (gate_) [[unlikely]]
        gate_->gateWait();
    ++niRejects_;
    if (finalLink >= 0) {
        Link &link = links_[static_cast<std::size_t>(finalLink)];
        link.freeAt = std::max(link.freeAt, eq_.now() + retryTicks_);
        link.busyTicks += retryTicks_;
    }
    eq_.schedule(eq_.now() + retryTicks_,
                 EventMeta{EventTag::MeshRetry,
                           reinterpret_cast<std::uintptr_t>(pkt),
                           static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(finalLink))},
                 [this, pkt, finalLink]() { deliver(pkt, finalLink); });
}

double
Mesh::bisectionUtilization() const
{
    if (eq_.now() == 0)
        return 0.0;
    std::uint64_t worst = 0;
    const int bisectX = cfg_.meshX / 2;
    for (int y = 0; y < cfg_.meshY; ++y) {
        const int east =
            linkIndex(bisectX - 1, y, bisectX, y);
        const int west = linkIndex(bisectX, y, bisectX - 1, y);
        worst = std::max({worst, links_[east].busyTicks,
                          links_[west].busyTicks});
    }
    return static_cast<double>(worst) / static_cast<double>(eq_.now());
}

} // namespace alewife::net
