#include "net/cross_traffic.hh"

#include "sim/logging.hh"

namespace alewife::net {

CrossTraffic::CrossTraffic(EventQueue &eq, Mesh &mesh,
                           CrossTrafficConfig cfg)
    : eq_(eq), mesh_(mesh), cfg_(cfg)
{
    const MachineConfig &mc = mesh.config();
    // One stream per mesh row per direction: left edge -> right edge and
    // right edge -> left edge, matching the 4-injectors-per-side setup of
    // the paper's 8x4 machine.
    for (int y = 0; y < mc.meshY; ++y) {
        const NodeId left = y * mc.meshX;
        const NodeId right = y * mc.meshX + (mc.meshX - 1);
        streams_.push_back({left, right});
        streams_.push_back({right, left});
    }
    if (cfg_.bytesPerCycle > 0.0) {
        const double per_stream =
            cfg_.bytesPerCycle / static_cast<double>(streams_.size());
        const double period_cycles =
            static_cast<double>(cfg_.messageBytes) / per_stream;
        periodTicks_ = cyclesToTicks(period_cycles);
        if (periodTicks_ == 0)
            ALEWIFE_FATAL("cross-traffic rate too high to emulate");
    }
}

void
CrossTraffic::start()
{
    if (running_ || cfg_.bytesPerCycle <= 0.0)
        return;
    running_ = true;
    injectAll();
}

void
CrossTraffic::stop()
{
    running_ = false;
}

void
CrossTraffic::injectAll()
{
    if (!running_)
        return;
    // Parallel engine: behave exactly like a tick after stop() — no
    // injection, no reschedule — iff the serial driver would already
    // have stopped by this event's position in the serial order.
    if (quiesced_ && quiesced_())
        return;
    for (const Stream &s : streams_) {
        Packet *pkt = mesh_.acquire();
        pkt->src = s.src;
        pkt->dst = s.dst;
        pkt->kind = PacketKind::CrossTraffic;
        pkt->sizeBytes = cfg_.messageBytes;
        pkt->countInVolume = false;
        bytesInjected_ += cfg_.messageBytes;
        mesh_.send(pkt);
    }
    eq_.schedule(eq_.now() + periodTicks_,
                 EventMeta{EventTag::CrossTrafficTick, 0, 0},
                 [this]() { injectAll(); });
}

double
CrossTraffic::effectiveBisection() const
{
    const double native = mesh_.config().bisectionBytesPerCycle();
    const double left = native - cfg_.bytesPerCycle;
    return left > 0.0 ? left : 0.0;
}

} // namespace alewife::net
