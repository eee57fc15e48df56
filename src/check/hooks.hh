/**
 * @file
 * Observation points for the runtime invariant auditor.
 *
 * Hooks is an abstract observer that low-level components (event queue,
 * mesh, cache, prefetch buffer, coherence controller) notify about
 * every state transition relevant to cross-layer invariants. Each
 * component stores a nullable Hooks pointer; with no auditor attached
 * the only cost is a pointer null-check per transition, and nothing in
 * this header drags protocol types into the low-level components — all
 * parameters are forward-declared and passed by reference.
 *
 * Every callback has an empty default body so future observation points
 * never break existing observers. See check::InvariantAuditor for the
 * one real implementation.
 */

#ifndef ALEWIFE_CHECK_HOOKS_HH
#define ALEWIFE_CHECK_HOOKS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/line_words.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace alewife::mem {
enum class LineState : std::uint8_t;
}
namespace alewife::coh {
struct ProtoMsg;
struct DirTxn;
}
namespace alewife::net {
struct Packet;
}

namespace alewife::check {

/**
 * Cost decomposition of one network edge, reported by net::Mesh just
 * before it schedules the corresponding deliver (or ideal-deliver)
 * event. All components are in ticks and sum to the edge's total
 * delay, `arrive - now`:
 *
 *   fixedTicks     latency-dependent, per-message (netFixedNs, or the
 *                  full ideal latency on the ideal-network path)
 *   hopTicksTotal  latency-dependent, per-hop (hops x hopNs)
 *   serTicks       bandwidth-dependent (bytes / linkMBps)
 *   queueTicks     contention (head stalled behind earlier traffic)
 *
 * The hop counts let an analytical model re-cost the edge under a
 * different machine config: `hops` scales the hop term, `xHops` counts
 * the east/west links traversed (the ones emulated cross-bisection
 * traffic also occupies — see net::CrossTraffic, whose row streams
 * load every horizontal link of their row, not just the bisection
 * cut).
 */
struct PacketEdgeCost
{
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t bytes = 0;
    /** Mesh links traversed (0 for self-sends and the ideal network). */
    std::uint16_t hops = 0;
    /** Of those, horizontal (east/west) links. */
    std::uint16_t xHops = 0;
    Tick fixedTicks = 0;
    Tick hopTicksTotal = 0;
    Tick serTicks = 0;
    Tick queueTicks = 0;
    /** True when the edge used the contention-free ideal network. */
    bool ideal = false;

    Tick
    totalTicks() const
    {
        return fixedTicks + hopTicksTotal + serTicks + queueTicks;
    }
};

/**
 * Observer interface over every auditable transition of a Machine.
 *
 * Two kinds of consumers exist: check::InvariantAuditor (correctness)
 * and obs::Recorder (metrics / timelines / flight recording). A
 * Machine multiplexes several observers through HookFanout below.
 *
 * Threading contract (parallel engine). Under the serial engine every
 * callback arrives on the one simulation thread, in event order. Under
 * the parallel window engine (sim::ParallelExec):
 *  - per-node callbacks (onProcSpan, onCache*, onPfb*, onMshr*, the
 *    coherence family, ...) fire on the worker thread that owns that
 *    node's LP — concurrently with other workers' callbacks, but each
 *    node's stream stays in that node's event order;
 *  - mesh callbacks (onPacketInjected/onHop and the reject path) fire
 *    under the engine's order gate, i.e. serialized and in exact
 *    serial event order; onPacketDelivered fires on the destination
 *    node's worker;
 *  - onEventExecuted fires on the executing worker with that event's
 *    tick (ticks interleave across workers within a window);
 *  - onParallelWindowCommit fires on the committing thread after all
 *    workers quiesced, in window (time) order — state-summarizing
 *    observers should flush there.
 * An observer that can live with this declares it by overriding
 * parallelCapable(); a Machine refuses to run parallel (silently falls
 * back to serial) while any attached observer is not capable.
 */
class Hooks
{
  public:
    virtual ~Hooks() = default;

    /**
     * True if this observer tolerates the parallel threading contract
     * above. Defaults to false: an observer written for the serial
     * engine (e.g. InvariantAuditor's global event-order checks)
     * forces the machine back to serial execution rather than racing.
     */
    virtual bool parallelCapable() const { return false; }

    /**
     * One parallel window committed; every event before @p bound has
     * executed and its effects are visible on the calling thread.
     * Never called by the serial engine.
     */
    virtual void onParallelWindowCommit(Tick bound) { (void)bound; }

    // --- sim::EventQueue ---

    /** An event finished executing; @p now is its (monotonic) tick. */
    virtual void onEventExecuted(Tick now) { (void)now; }

    // --- net::Mesh ---

    /** A packet entered the network (volume already charged). */
    virtual void onPacketInjected(const net::Packet &pkt) { (void)pkt; }

    /** A packet was accepted by its destination sink. */
    virtual void onPacketDelivered(const net::Packet &pkt) { (void)pkt; }

    /**
     * A packet's head entered one mesh link. @p depart is the tick the
     * head leaves the link's upstream router; @p waited is how long the
     * head stalled behind earlier traffic on this link (queueing).
     */
    virtual void
    onHop(const net::Packet &pkt, int link, Tick depart, Tick waited)
    {
        (void)pkt, (void)link, (void)depart, (void)waited;
    }

    /**
     * Cost decomposition of one network edge, emitted synchronously
     * just before the mesh schedules that edge's deliver event (so a
     * DepListener can attach it to the very next onSchedule). Not
     * emitted for NI-reject retries, whose delay is compute-clocked.
     */
    virtual void onPacketEdgeCost(const PacketEdgeCost &cost)
    {
        (void)cost;
    }

    // --- proc::Proc (per node) ---

    /**
     * A contiguous interval of processor time was attributed to one
     * Figure-4 category (compute burst, memory/NI wait, sync wait...).
     * Adjacent same-category intervals arrive pre-coalesced.
     */
    virtual void
    onProcSpan(NodeId node, TimeCat cat, Tick start, Tick end)
    {
        (void)node, (void)cat, (void)start, (void)end;
    }

    /**
     * A handler / interrupt / software trap stole processor cycles:
     * message handlers, LimitLESS traps, DMA completion.
     */
    virtual void onHandlerRun(NodeId node, Tick start, Tick end)
    {
        (void)node, (void)start, (void)end;
    }

    /** One barrier episode of @p node, in node-local time. */
    virtual void onBarrierEpisode(NodeId node, Tick start, Tick end)
    {
        (void)node, (void)start, (void)end;
    }

    /**
     * Node @p node's program finished. Fires inside the resume event
     * that observed completion; @p extraTicks is how far the node's
     * local clock had run ahead of that event's tick (the machine's
     * finish time is the max over nodes of event tick + extraTicks).
     */
    virtual void onProgramDone(NodeId node, Tick extraTicks)
    {
        (void)node, (void)extraTicks;
    }

    // --- mem::Cache (per node) ---

    virtual void
    onCacheFill(NodeId node, Addr line, mem::LineState st,
                const mem::LineWords &words)
    {
        (void)node, (void)line, (void)st, (void)words;
    }

    /** A valid line was displaced by a fill of a different line. */
    virtual void
    onCacheEvict(NodeId node, Addr line, bool dirty)
    {
        (void)node, (void)line, (void)dirty;
    }

    virtual void
    onCacheInvalidate(NodeId node, Addr line, bool wasModified)
    {
        (void)node, (void)line, (void)wasModified;
    }

    virtual void onCacheDowngrade(NodeId node, Addr line)
    {
        (void)node, (void)line;
    }

    virtual void onCacheUpgrade(NodeId node, Addr line)
    {
        (void)node, (void)line;
    }

    virtual void onCacheRead(NodeId node, Addr a, std::uint64_t v)
    {
        (void)node, (void)a, (void)v;
    }

    virtual void onCacheWrite(NodeId node, Addr a, std::uint64_t v)
    {
        (void)node, (void)a, (void)v;
    }

    // --- proc::PrefetchBuffer (per node) ---

    virtual void
    onPfbInstall(NodeId node, Addr line, mem::LineState st,
                 const mem::LineWords &words)
    {
        (void)node, (void)line, (void)st, (void)words;
    }

    /** Entry removed for any reason (take/invalidate/evict/displace). */
    virtual void onPfbRemove(NodeId node, Addr line)
    {
        (void)node, (void)line;
    }

    virtual void onPfbDowngrade(NodeId node, Addr line)
    {
        (void)node, (void)line;
    }

    // --- coh::CoherenceController (per node) ---

    /** A protocol message left @p src for @p dst (possibly src==dst). */
    virtual void
    onProtoSend(NodeId src, NodeId dst, const coh::ProtoMsg &msg)
    {
        (void)src, (void)dst, (void)msg;
    }

    /** A protocol message's processing began at node @p at. */
    virtual void onProtoProcess(NodeId at, const coh::ProtoMsg &msg)
    {
        (void)at, (void)msg;
    }

    /**
     * The home granted data to a local requester without a ProtoMsg
     * (requester == home short-circuit); pairs with a later onFill.
     */
    virtual void onLocalGrant(NodeId node, Addr line, bool exclusive)
    {
        (void)node, (void)line, (void)exclusive;
    }

    /** A data grant (message or local) was consumed by the MSHR. */
    virtual void onFill(NodeId node, Addr line, bool exclusive)
    {
        (void)node, (void)line, (void)exclusive;
    }

    virtual void onMshrOpen(NodeId node, Addr line, bool exclusive)
    {
        (void)node, (void)line, (void)exclusive;
    }

    virtual void onMshrClose(NodeId node, Addr line)
    {
        (void)node, (void)line;
    }

    /** A home transaction opened on @p line (txn state at open time). */
    virtual void
    onTxnOpen(NodeId home, Addr line, const coh::DirTxn &txn)
    {
        (void)home, (void)line, (void)txn;
    }

    virtual void onTxnClose(NodeId home, Addr line)
    {
        (void)home, (void)line;
    }

    /** A recall/forward overtook our granted data and was stashed. */
    virtual void onRecallStashed(NodeId node, Addr line)
    {
        (void)node, (void)line;
    }

    /** A stashed recall/forward was honoured after the fill. */
    virtual void onRecallHonored(NodeId node, Addr line)
    {
        (void)node, (void)line;
    }
};

/**
 * Multiplexes several observers behind one Hooks pointer. A Machine
 * installs this when more than one observer is attached (e.g. the
 * invariant auditor plus the obs recorder); observers are notified in
 * attachment order. With zero or one observer the fanout is bypassed
 * entirely, so the single-observer cost stays one virtual call and the
 * detached cost stays one null check.
 */
class HookFanout final : public Hooks
{
  public:
    void clear() { obs_.clear(); }
    void add(Hooks *h) { obs_.push_back(h); }
    std::size_t size() const { return obs_.size(); }

    /** The fanout is parallel-capable iff every observer is. */
    bool
    parallelCapable() const override
    {
        for (const Hooks *h : obs_)
            if (!h->parallelCapable())
                return false;
        return true;
    }

    /**
     * Debug enforcement of the threading contract: the parallel
     * engine installs a checker that panics when a per-node callback
     * fires on a thread that does not own that node's LP (null
     * restores no-op). Active only in assertion builds; release
     * builds keep the plain forwarding cost.
     */
    void
    setOwnerCheck(std::function<void(NodeId)> check)
    {
#ifndef NDEBUG
        ownerCheck_ = std::move(check);
#else
        (void)check;
#endif
    }

    void onParallelWindowCommit(Tick bound) override
    {
        for (Hooks *h : obs_)
            h->onParallelWindowCommit(bound);
    }

    void onEventExecuted(Tick now) override
    {
        for (Hooks *h : obs_)
            h->onEventExecuted(now);
    }
    void onPacketInjected(const net::Packet &pkt) override
    {
        for (Hooks *h : obs_)
            h->onPacketInjected(pkt);
    }
    void onPacketDelivered(const net::Packet &pkt) override
    {
        for (Hooks *h : obs_)
            h->onPacketDelivered(pkt);
    }
    void
    onHop(const net::Packet &pkt, int link, Tick depart,
          Tick waited) override
    {
        for (Hooks *h : obs_)
            h->onHop(pkt, link, depart, waited);
    }
    void onPacketEdgeCost(const PacketEdgeCost &cost) override
    {
        for (Hooks *h : obs_)
            h->onPacketEdgeCost(cost);
    }
    void
    onProcSpan(NodeId node, TimeCat cat, Tick start, Tick end) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onProcSpan(node, cat, start, end);
    }
    void onHandlerRun(NodeId node, Tick start, Tick end) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onHandlerRun(node, start, end);
    }
    void onBarrierEpisode(NodeId node, Tick start, Tick end) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onBarrierEpisode(node, start, end);
    }
    void onProgramDone(NodeId node, Tick extraTicks) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onProgramDone(node, extraTicks);
    }
    void
    onCacheFill(NodeId node, Addr line, mem::LineState st,
                const mem::LineWords &words) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onCacheFill(node, line, st, words);
    }
    void onCacheEvict(NodeId node, Addr line, bool dirty) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onCacheEvict(node, line, dirty);
    }
    void
    onCacheInvalidate(NodeId node, Addr line, bool wasModified) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onCacheInvalidate(node, line, wasModified);
    }
    void onCacheDowngrade(NodeId node, Addr line) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onCacheDowngrade(node, line);
    }
    void onCacheUpgrade(NodeId node, Addr line) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onCacheUpgrade(node, line);
    }
    void onCacheRead(NodeId node, Addr a, std::uint64_t v) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onCacheRead(node, a, v);
    }
    void onCacheWrite(NodeId node, Addr a, std::uint64_t v) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onCacheWrite(node, a, v);
    }
    void
    onPfbInstall(NodeId node, Addr line, mem::LineState st,
                 const mem::LineWords &words) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onPfbInstall(node, line, st, words);
    }
    void onPfbRemove(NodeId node, Addr line) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onPfbRemove(node, line);
    }
    void onPfbDowngrade(NodeId node, Addr line) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onPfbDowngrade(node, line);
    }
    void
    onProtoSend(NodeId src, NodeId dst, const coh::ProtoMsg &msg) override
    {
        checkOwner(src);
        for (Hooks *h : obs_)
            h->onProtoSend(src, dst, msg);
    }
    void onProtoProcess(NodeId at, const coh::ProtoMsg &msg) override
    {
        checkOwner(at);
        for (Hooks *h : obs_)
            h->onProtoProcess(at, msg);
    }
    void onLocalGrant(NodeId node, Addr line, bool exclusive) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onLocalGrant(node, line, exclusive);
    }
    void onFill(NodeId node, Addr line, bool exclusive) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onFill(node, line, exclusive);
    }
    void onMshrOpen(NodeId node, Addr line, bool exclusive) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onMshrOpen(node, line, exclusive);
    }
    void onMshrClose(NodeId node, Addr line) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onMshrClose(node, line);
    }
    void
    onTxnOpen(NodeId home, Addr line, const coh::DirTxn &txn) override
    {
        checkOwner(home);
        for (Hooks *h : obs_)
            h->onTxnOpen(home, line, txn);
    }
    void onTxnClose(NodeId home, Addr line) override
    {
        checkOwner(home);
        for (Hooks *h : obs_)
            h->onTxnClose(home, line);
    }
    void onRecallStashed(NodeId node, Addr line) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onRecallStashed(node, line);
    }
    void onRecallHonored(NodeId node, Addr line) override
    {
        checkOwner(node);
        for (Hooks *h : obs_)
            h->onRecallHonored(node, line);
    }

  private:
    void
    checkOwner(NodeId node) const
    {
#ifndef NDEBUG
        if (ownerCheck_)
            ownerCheck_(node);
#else
        (void)node;
#endif
    }

    std::vector<Hooks *> obs_;
#ifndef NDEBUG
    std::function<void(NodeId)> ownerCheck_;
#endif
};

} // namespace alewife::check

#endif // ALEWIFE_CHECK_HOOKS_HH
