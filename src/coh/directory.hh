/**
 * @file
 * Per-home-node directory state (LimitLESS-style limited directory).
 *
 * The hardware tracks up to MachineConfig::dirHwPointers sharers; beyond
 * that, directory operations trap to software on the home node's
 * processor (see CoherenceController), as on the real Alewife machine.
 * The Directory itself just stores state; all protocol logic lives in
 * the CoherenceController.
 */

#ifndef ALEWIFE_COH_DIRECTORY_HH
#define ALEWIFE_COH_DIRECTORY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coh/proto.hh"
#include "sim/addr_map.hh"
#include "sim/small_vec.hh"
#include "sim/types.hh"

namespace alewife::coh {

/** Stable directory state of one line. */
enum class DirState : std::uint8_t
{
    Uncached,
    Shared,
    Modified,
};

/** An in-progress home transaction on one line. */
struct DirTxn
{
    MsgType request;           ///< GetS or GetX being served
    NodeId requester = -1;
    int pendingAcks = 0;       ///< invalidation acks still outstanding
    bool waitingRecall = false;///< a Recall/RecallX is outstanding
    /** 3-hop variant: data flows owner->requester; the home must not
     *  send its own reply when the confirmation arrives. */
    bool forwarded = false;
    std::uint64_t id = 0;      ///< matches ProtoMsg::txnId
};

/** Directory entry for one line at its home. */
struct DirEntry
{
    /** queueHead/queueTail value of an empty request queue. */
    static constexpr std::uint32_t kNoMsg = 0xffffffffu;

    DirState state = DirState::Uncached;
    /** Valid when state == Shared, in the order sharers joined (the
     *  order invalidations are sent in). */
    sim::SmallVec<NodeId, 8> sharers;
    NodeId owner = -1;           ///< valid when state == Modified
    std::optional<DirTxn> txn;   ///< present while the line is busy
    /** Requests waiting for the line: a FIFO threaded through the
     *  directory's message slots (see Directory::enqueue). */
    std::uint32_t queueHead = kNoMsg;
    std::uint32_t queueTail = kNoMsg;
    std::uint32_t queueLen = 0;

    bool busy() const { return txn.has_value(); }

    bool queueEmpty() const { return queueLen == 0; }

    /** True if @p n is recorded as a sharer. */
    bool hasSharer(NodeId n) const;

    /** Add @p n if absent; returns new sharer count. */
    std::size_t addSharer(NodeId n);
};

/**
 * All directory entries homed at one node. Entries live in slabs (so
 * references stay valid as lines are added) behind a flat hash index;
 * queued requests live in one shared array of message slots.
 */
class Directory
{
  public:
    /** Entry for @p line, default-constructed on first touch. */
    DirEntry &
    entry(Addr line)
    {
        std::uint32_t &slot = index_[line];
        if (slot == 0)
            slot = newEntry();
        return at(slot - 1);
    }

    /** Entry if it exists already. */
    DirEntry *
    find(Addr line)
    {
        const std::uint32_t *slot = index_.find(line);
        return slot ? &at(*slot - 1) : nullptr;
    }

    const DirEntry *
    find(Addr line) const
    {
        return const_cast<Directory *>(this)->find(line);
    }

    /** Number of lines with non-default state (diagnostics). */
    std::size_t linesTracked() const { return index_.size(); }

    /** Call @p f(line, entry) for every entry (unspecified order). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        index_.forEach([&](Addr line, std::uint32_t slot) {
            f(line, const_cast<Directory *>(this)->at(slot - 1));
        });
    }

    /** Append @p m to the request queue of @p e. */
    void enqueue(DirEntry &e, const ProtoMsg &m);

    /** Remove and return the oldest queued request of @p e. */
    ProtoMsg dequeue(DirEntry &e);

    /** Call @p f(msg) for every request queued on @p e, oldest first. */
    template <typename F>
    void
    forEachQueued(const DirEntry &e, F &&f) const
    {
        for (std::uint32_t i = e.queueHead; i != DirEntry::kNoMsg;
             i = queued_[i].next)
            f(queued_[i].msg);
    }

  private:
    static constexpr std::uint32_t kSlabBits = 6;
    static constexpr std::uint32_t kSlabEntries = 1u << kSlabBits;

    struct QueuedMsg
    {
        ProtoMsg msg;
        std::uint32_t next = DirEntry::kNoMsg;
    };

    DirEntry &
    at(std::uint32_t i)
    {
        return slabs_[i >> kSlabBits][i & (kSlabEntries - 1)];
    }

    /** Index + 1 of a fresh entry (0 marks "absent" in index_). */
    std::uint32_t newEntry();

    /** Line -> entry number + 1. */
    sim::AddrMap<std::uint32_t> index_;
    std::vector<std::unique_ptr<DirEntry[]>> slabs_;
    std::uint32_t entries_ = 0;
    /** Message slots of every entry's request queue, plus a free list. */
    std::vector<QueuedMsg> queued_;
    std::uint32_t queuedFree_ = DirEntry::kNoMsg;
};

} // namespace alewife::coh

#endif // ALEWIFE_COH_DIRECTORY_HH
