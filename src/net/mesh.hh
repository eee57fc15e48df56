/**
 * @file
 * Contended 2D mesh with dimension-order (XY) wormhole routing.
 *
 * The timing model is a standard wormhole approximation: the packet head
 * advances one hop per hopTicks, each traversed unidirectional link is
 * occupied for the packet's serialization time, and a link already busy
 * delays the head (per-link freeAt horizon). Congestion therefore grows
 * nonlinearly with offered load, which is what produces the paper's
 * "congestion dominated" region (Figure 1).
 *
 * Backpressure: a receiver may reject a delivery (network-interface input
 * queue full). The packet then parks, holds its final link busy, and is
 * redelivered after niRetryCycles — modelling the tree saturation the
 * paper observes for message-passing traffic at high rates.
 *
 * An ideal mode (MachineConfig::idealNet) replaces all of this with a
 * uniform one-way latency and infinite bandwidth, used by the Figure 10
 * context-switching latency-emulation experiment.
 */

#ifndef ALEWIFE_NET_MESH_HH
#define ALEWIFE_NET_MESH_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "machine/config.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::sim {
class ParallelExec;
}

namespace alewife::net {

/**
 * The machine interconnect.
 *
 * Packet ownership: take a packet with acquire(), fill it in and hand
 * it to send(). The mesh owns it until delivery. A sink that accepts a
 * coherence or active-message packet takes it over and gives it back
 * with release() once its handler is done (never inside the sink call:
 * the mesh still reads it after the sink returns). Cross-traffic drains
 * off the mesh edge, so the mesh releases it on delivery. A rejected
 * packet stays with the mesh.
 */
class Mesh
{
  public:
    /**
     * Delivery callback for every node (the destination is pkt.dst):
     * return true to accept the packet, false to make the network hold
     * it and retry (NI queue full).
     */
    using Sink = std::function<bool(Packet &)>;

    Mesh(EventQueue &eq, const MachineConfig &cfg);

    /** Register the delivery callback. */
    void setSink(Sink sink) { sink_ = std::move(sink); }

    /** A fresh packet from this mesh's pool. */
    Packet *acquire() { return pool_.acquire(); }

    /** Give a packet back to the pool once its handler is done. */
    void release(Packet *pkt) { pool_.release(pkt); }

    /** Packets acquired and not yet released. */
    std::size_t packetsLive() const { return pool_.live(); }

    /**
     * Inject @p pkt (from acquire()) at time now. The mesh owns it
     * until delivery. pkt->src/dst must be valid node ids.
     * @return ticks the packet waited to enter its first link — the
     *         sender-side back-pressure signal (0 in ideal mode)
     */
    Tick send(Packet *pkt);

    /** Aggregate volume injected (application traffic only). */
    const VolumeBreakdown &volume() const { return volume_; }

    /** Total packets injected / delivered, including cross-traffic. */
    std::uint64_t packetsInjected() const { return injected_; }
    std::uint64_t
    packetsDelivered() const
    {
        return delivered_.load(std::memory_order_relaxed);
    }

    /** Times a delivery was rejected by a full NI queue. */
    std::uint64_t niRejects() const { return niRejects_; }

    /** Bytes that crossed the X-dimension bisection, both directions. */
    std::uint64_t bisectionBytes() const { return bisectionBytes_; }

    /**
     * Utilization [0,1] of the most-loaded bisection link so far, i.e.
     * busy ticks / elapsed ticks. Diagnostic for congestion studies.
     */
    double bisectionUtilization() const;

    /** Number of hops a packet from @p a to @p b traverses. */
    int hopCount(NodeId a, NodeId b) const;

    /**
     * Ticks a packet of @p bytes occupies one link. Memoized for
     * common sizes; bit-identical to computing
     * cyclesToTicks(bytes / linkBytesPerCycle()) directly.
     */
    Tick serializationTicks(std::uint32_t bytes) const;

    /** Observer notified on packet injection/delivery; may be null. */
    void setAuditHooks(check::Hooks *hooks) { hooks_ = hooks; }

    /**
     * Guaranteed minimum latency between a cross-node injection and any
     * effect at the destination — the conservative lookahead of the
     * parallel window engine. Contended mode: the network fixed cost
     * plus one (possibly jittered, floor 1) hop plus the serialization
     * floor from the memoized table; queueing and extra hops only add
     * to it. Ideal mode: the uniform one-way latency. Self-sends
     * (src == dst) stay node-local, so they may undercut this freely.
     */
    Tick
    crossLookahead() const
    {
        if (cfg_.idealNet)
            return idealTicks_;
        const Tick hopMin = jitterFrac_ > 0.0 ? 1 : hopTicks_;
        return fixedTicks_ + hopMin + serTable_[0];
    }

    /**
     * Order gate for parallel windows: while set, send() and the
     * reject/retry half of deliver() — the paths touching mesh-global
     * state (link horizons, packet ids, RNGs, counters) — wait for
     * their turn in the serial event order before proceeding.
     */
    void
    setOrderGate(sim::ParallelExec *gate)
    {
        gate_ = gate;
        // Packets are then also acquired and released on the workers.
        pool_.setShared(gate != nullptr);
    }

    /**
     * Scale each hop's latency by a seeded uniform factor in
     * [1-frac, 1+frac] (fuzzing only; no effect in ideal mode). Link
     * occupancy still serializes packets, so per-route FIFO delivery
     * order is preserved.
     */
    void setHopJitter(double frac, std::uint64_t seed);

    const MachineConfig &config() const { return cfg_; }

    /** One unidirectional link. */
    struct Link
    {
        Tick freeAt = 0;
        std::uint64_t busyTicks = 0;
        std::uint64_t bytes = 0;
    };

    /**
     * Per-link occupancy counters, indexed node*4 + direction
     * (E,W,N,S). Read-only diagnostic for the observability exporter.
     */
    const std::vector<Link> &linkStats() const { return links_; }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;


    /** Index of the unidirectional link leaving (x,y) toward (nx,ny). */
    int linkIndex(int x, int y, int nx, int ny) const;

    /** Schedule delivery (and retry-on-reject) of an arrived packet. */
    void deliver(Packet *pkt, int finalLink);

    /** The un-memoized serialization formula (table fill + fallback). */
    Tick serializationTicksExact(std::uint32_t bytes) const;

    /**
     * (Re)compute every cfg_-derived timing quantity (hop/fixed/retry/
     * ideal ticks and the serialization memo). Called by the ctor and
     * again by ckpt::Access after a warm-start config delta changes a
     * network knob in place.
     */
    void computeDerivedTiming();

    /** Per-hop latency, jittered when hop jitter is enabled. */
    Tick hopLatency();

    EventQueue &eq_;
    const MachineConfig &cfg_;
    Sink sink_;
    PacketPool pool_;
    std::vector<Link> links_;
    /** Mesh column and row of every node (routes walk these, no
     *  divisions on the per-packet path). */
    std::vector<int> nodeX_;
    std::vector<int> nodeY_;
    VolumeBreakdown volume_;
    std::uint64_t injected_ = 0;
    /** Atomic: bumped on the destination worker's accept path, which
     *  is not gated (all other mutable mesh state is gate-serialized). */
    std::atomic<std::uint64_t> delivered_{0};
    std::uint64_t niRejects_ = 0;
    std::uint64_t bisectionBytes_ = 0;
    std::uint64_t nextId_ = 1;
    Tick hopTicks_;
    Tick fixedTicks_;
    Tick retryTicks_;
    Tick idealTicks_;
    /**
     * serializationTicks() memo for common packet sizes, computed once
     * with the exact per-call formula (tests/net/serialization_ticks
     * pins the agreement) so the per-packet double division is gone
     * from the hot path.
     */
    std::vector<Tick> serTable_;
    check::Hooks *hooks_ = nullptr;
    sim::ParallelExec *gate_ = nullptr;
    double jitterFrac_ = 0.0;
    Rng jitterRng_{0};
};

} // namespace alewife::net

#endif // ALEWIFE_NET_MESH_HH
