#include "msg/active_messages.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace alewife::msg {

void
HandlerEnv::send(NodeId dst, HandlerId h,
                 std::span<const std::uint64_t> args,
                 std::span<const std::uint64_t> body, bool bulk)
{
    Outgoing o;
    o.dst = dst;
    o.handler = h;
    o.args.assign(args);
    o.body.assign(body.begin(), body.end());
    o.bulk = bulk;
    outgoing_.push_back(std::move(o));
}

HandlerId
HandlerRegistry::add(HandlerFn fn)
{
    table_.push_back(std::move(fn));
    return static_cast<HandlerId>(table_.size() - 1);
}

void
HandlerRegistry::run(HandlerId id, HandlerEnv &env) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= table_.size())
        ALEWIFE_PANIC("unknown handler id ", id);
    table_[id](env);
}

NetIface::NetIface(NodeId self, EventQueue &eq, const MachineConfig &cfg,
                   proc::Proc &proc, net::Mesh &mesh,
                   HandlerRegistry &handlers, MachineCounters &counters)
    : self_(self), eq_(eq), cfg_(cfg), proc_(proc), mesh_(mesh),
      handlers_(handlers), counters_(counters)
{
}

Tick
NetIface::inject(NodeId dst, HandlerId h,
                 std::span<const std::uint64_t> args,
                 std::span<const std::uint64_t> body, bool bulk, Tick when)
{
    if (args.size() > kAmMaxArgs)
        ALEWIFE_PANIC("active message with ", args.size(),
                      " arguments; the NI holds ", kAmMaxArgs);
    net::Packet *pkt = mesh_.acquire();
    pkt->src = self_;
    pkt->dst = dst;
    pkt->kind = net::PacketKind::ActiveMessage;
    pkt->am = msg::AmHeader{};
    pkt->am.handler = h;
    pkt->am.src = self_;
    pkt->am.bulk = bulk;
    pkt->am.args.assign(args);
    pkt->body.assign(body.begin(), body.end());

    pkt->addBytes(VolCat::Headers, cfg_.amHeaderBytes);
    if (!args.empty())
        pkt->addBytes(VolCat::Data,
                      static_cast<std::uint32_t>(8 * args.size()));
    if (bulk) {
        // (address, length) descriptor plus the body padded to the DMA
        // alignment granularity (the padding loss Figure 5 shows for
        // ICCG's small bulk transfers).
        pkt->addBytes(VolCat::Headers, 8);
        const std::uint32_t raw =
            static_cast<std::uint32_t>(8 * body.size());
        const std::uint32_t align = cfg_.dmaAlignBytes;
        const std::uint32_t padded = (raw + align - 1) / align * align;
        pkt->addBytes(VolCat::Data, padded);
        ++counters_.dmaTransfers;
    } else if (!body.empty()) {
        pkt->addBytes(VolCat::Data,
                      static_cast<std::uint32_t>(8 * body.size()));
    }

    if (when <= eq_.now())
        return mesh_.send(pkt);

    eq_.schedule(when,
                 EventMeta{EventTag::AmPacketLaunch,
                           reinterpret_cast<std::uintptr_t>(pkt), 0},
                 [this, pkt]() { mesh_.send(pkt); });
    return 0;
}

bool
NetIface::receive(net::Packet &pkt)
{
    if (static_cast<int>(inq_.size()) >= cfg_.niInputQueueSlots) {
        ++counters_.niQueueFullStalls;
        return false;
    }
    if (pkt.kind != net::PacketKind::ActiveMessage)
        ALEWIFE_PANIC("non-AM packet delivered to NI at node ", self_);
    inq_.push_back(&pkt);

    if (mode_ == RecvMode::Interrupt && !drainScheduled_) {
        drainScheduled_ = true;
        const Tick at = std::max(eq_.now(), lastHandlerDone_);
        eq_.schedule(at,
                     EventMeta{EventTag::AmDrain,
                               static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(self_)),
                               0},
                     [this]() { drainNext(); });
    }
    // Polling mode: the program discovers the message at its next poll.
    proc_.recheckCond();
    return true;
}

Tick
NetIface::runHandler(net::Packet *pkt)
{
    const msg::AmHeader &hdr = pkt->am;
    AmMessage m;
    m.handler = hdr.handler;
    m.src = hdr.src;
    m.args = hdr.args;
    m.body = pkt->body;
    m.bulk = hdr.bulk;
    ALEWIFE_TRACE_EVENT(TraceCat::Msg, eq_.now(), "handler ",
                        m.handler, " at ", self_, " from ", m.src,
                        " args ", m.args.size(), " body ",
                        m.body.size(),
                        mode_ == RecvMode::Interrupt ? " (int)"
                                                     : " (poll)");
    HandlerEnv env(self_, m, *this);
    handlers_.run(m.handler, env);

    double cost = cfg_.amDispatchCycles
                  + cfg_.amRecvPerWordCycles
                        * static_cast<double>(m.args.size())
                  + env.extraCycles_;
    if (mode_ == RecvMode::Interrupt) {
        cost += cfg_.amInterruptCycles;
        ++counters_.interruptsTaken;
    } else {
        ++counters_.messagesPolled;
    }
    // Replies cost normal send overhead, paid inside the handler.
    for (const auto &o : env.outgoing_) {
        cost += cfg_.amSendCycles
                + cfg_.amSendPerWordCycles
                      * static_cast<double>(o.args.size());
        if (o.bulk)
            cost += cfg_.dmaSetupCycles;
    }

    const Tick done = proc_.chargeHandler(cost, TimeCat::MsgOverhead);

    for (auto &o : env.outgoing_)
        inject(o.dst, o.handler, o.args, o.body, o.bulk, done);

    mesh_.release(pkt);
    ++delivered_;
    proc_.recheckCond();
    return done;
}

void
NetIface::drainNext()
{
    if (inq_.empty()) {
        drainScheduled_ = false;
        return;
    }
    net::Packet *pkt = inq_.front();
    inq_.pop_front();
    lastHandlerDone_ = runHandler(pkt);
    eq_.schedule(lastHandlerDone_,
                 EventMeta{EventTag::AmDrain,
                           static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(self_)),
                           0},
                 [this]() { drainNext(); });
}

int
NetIface::pollDrain()
{
    int n = 0;
    while (!inq_.empty()) {
        net::Packet *pkt = inq_.front();
        inq_.pop_front();
        runHandler(pkt);
        ++n;
    }
    return n;
}

} // namespace alewife::msg
