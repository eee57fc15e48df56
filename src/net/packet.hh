/**
 * @file
 * Network packets, their pool, and volume accounting.
 *
 * A Packet is the unit the mesh moves. Its payload is an inline tagged
 * union chosen by PacketKind: a coherence message or an active-message
 * header (the DMA body of a bulk transfer rides beside it in a vector
 * whose capacity the pool keeps). Each packet also carries its byte
 * contribution to the Figure 5 volume categories so the machine-wide
 * volume breakdown is computed at injection time, exactly like the
 * CMMU statistics counters.
 *
 * Packets come from a PacketPool owned by the Mesh: slabs with a free
 * list, so steady-state messaging never touches the heap and a
 * packet's address stays valid from acquire() to release() — pending
 * events record it in EventMeta::a.
 */

#ifndef ALEWIFE_NET_PACKET_HH
#define ALEWIFE_NET_PACKET_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "coh/proto.hh"
#include "msg/am_header.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ALEWIFE_POISON_PACKET(p) ASAN_POISON_MEMORY_REGION((p), sizeof(Packet))
#define ALEWIFE_UNPOISON_PACKET(p)                                         \
    ASAN_UNPOISON_MEMORY_REGION((p), sizeof(Packet))
#else
#define ALEWIFE_POISON_PACKET(p) ((void)(p))
#define ALEWIFE_UNPOISON_PACKET(p) ((void)(p))
#endif

namespace alewife::net {

/** Coarse packet classification; selects the payload member. */
enum class PacketKind : std::uint8_t
{
    Coherence,     ///< directory-protocol traffic (payload: proto)
    ActiveMessage, ///< user-level active message (payload: am, body)
    CrossTraffic,  ///< I/O cross-traffic used for bisection emulation
};

/** A message in flight. */
struct Packet
{
    Packet() : proto() {}

    NodeId src = -1;
    NodeId dst = -1;
    PacketKind kind = PacketKind::CrossTraffic;
    std::uint32_t sizeBytes = 0;
    std::uint64_t id = 0;

    /** Bytes this packet contributes to each Figure 5 volume category. */
    std::array<std::uint32_t,
               static_cast<std::size_t>(VolCat::NumCats)> volBytes{};

    /** If false, excluded from application volume stats (cross-traffic). */
    bool countInVolume = true;

    union
    {
        coh::ProtoMsg proto;  ///< kind == Coherence
        msg::AmHeader am;     ///< kind == ActiveMessage
    };

    /** DMA body of a bulk active message; empty otherwise. */
    std::vector<std::uint64_t> body;

    /** Add @p bytes to category @p c and to the packet size. */
    void
    addBytes(VolCat c, std::uint32_t bytes)
    {
        volBytes[static_cast<std::size_t>(c)] += bytes;
        sizeBytes += bytes;
    }

  private:
    friend class PacketPool;

    /** Free-list link while the packet sits in its pool. */
    Packet *nextFree_ = nullptr;
};

/**
 * Slab-allocated free list of packets, one per Mesh (so its memory is
 * returned when the machine is destroyed). acquire() hands out a packet
 * with a fresh header; whoever holds it last gives it back with
 * release(). Slabs are never freed before the pool, so addresses are
 * stable. Under AddressSanitizer a released packet is poisoned, so a
 * use after release faults.
 */
class PacketPool
{
  public:
    PacketPool() = default;
    ~PacketPool();

    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** A packet with default header fields and an empty body. */
    Packet *
    acquire()
    {
        if (shared_) [[unlikely]] {
            std::lock_guard<std::mutex> g(mu_);
            return take();
        }
        return take();
    }

    /** Return @p p; it must not be touched afterwards. */
    void
    release(Packet *p)
    {
        if (shared_) [[unlikely]] {
            std::lock_guard<std::mutex> g(mu_);
            give(p);
            return;
        }
        give(p);
    }

    /** Packets acquired and not yet released. */
    std::size_t live() const { return live_; }

    /**
     * Guard acquire/release with a mutex. Set while a parallel engine
     * runs windows: packets are then taken and returned on several
     * worker threads.
     */
    void setShared(bool on) { shared_ = on; }

  private:
    static constexpr std::size_t kSlabPackets = 64;

    Packet *take();
    void give(Packet *p);
    void addSlab();

    std::vector<std::unique_ptr<Packet[]>> slabs_;
    Packet *freeHead_ = nullptr;
    std::size_t live_ = 0;
    bool shared_ = false;
    /** Guards the members above while shared_ is set. */
    std::mutex mu_;
};

inline Packet *
PacketPool::take()
{
    if (!freeHead_)
        addSlab();
    Packet *p = freeHead_;
    ALEWIFE_UNPOISON_PACKET(p);
    freeHead_ = p->nextFree_;
    p->src = -1;
    p->dst = -1;
    p->kind = PacketKind::CrossTraffic;
    p->sizeBytes = 0;
    p->id = 0;
    p->volBytes = {};
    p->countInVolume = true;
    ++live_;
    return p;
}

inline void
PacketPool::give(Packet *p)
{
    p->body.clear(); // keeps the capacity for the next bulk transfer
    p->nextFree_ = freeHead_;
    freeHead_ = p;
    --live_;
    ALEWIFE_POISON_PACKET(p);
}

inline void
PacketPool::addSlab()
{
    slabs_.push_back(std::make_unique<Packet[]>(kSlabPackets));
    Packet *slab = slabs_.back().get();
    for (std::size_t i = kSlabPackets; i-- > 0;) {
        slab[i].nextFree_ = freeHead_;
        freeHead_ = &slab[i];
        ALEWIFE_POISON_PACKET(&slab[i]);
    }
}

inline PacketPool::~PacketPool()
{
    // Slots must be addressable again before their destructors run.
    for (const auto &slab : slabs_) {
        for (std::size_t i = 0; i < kSlabPackets; ++i)
            ALEWIFE_UNPOISON_PACKET(&slab[i]);
    }
}

} // namespace alewife::net

#endif // ALEWIFE_NET_PACKET_HH
