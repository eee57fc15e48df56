/**
 * @file
 * Per-node direct-mapped data cache (Alewife: 64 KB, 16-byte lines).
 *
 * Only *shared* data goes through this cache in the simulation; private
 * data (loop indices, local buffers) is modelled as part of the compute
 * cost. Lines hold real data words; the coherence layer fills, recalls,
 * invalidates and downgrades them.
 *
 * Storage is flat: one tag array, one state array and one word array
 * of numSets x wordsPerLine, indexed by shifts and masks.
 */

#ifndef ALEWIFE_MEM_CACHE_HH
#define ALEWIFE_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/line_words.hh"
#include "sim/types.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::mem {

/** Cache-line coherence state (MSI; I is "not present"). */
enum class LineState : std::uint8_t
{
    Shared,
    Modified,
};

/**
 * A direct-mapped cache of 64-bit-word lines.
 */
class Cache
{
  public:
    /** What fell out of the cache when a new line was filled. */
    struct Victim
    {
        Addr lineAddr;
        bool dirty;
        LineWords words;
    };

    /**
     * @p line_bytes must be a power of two between 8 and kMaxLineBytes,
     * and @p capacity_bytes a power-of-two multiple of it.
     */
    Cache(std::uint32_t capacity_bytes, std::uint32_t line_bytes);

    /** True if the line containing @p a is present (any state). */
    bool contains(Addr a) const;

    /** State of the line containing @p a; nullopt if absent. */
    std::optional<LineState> state(Addr a) const;

    /** Read a word; line must be present. */
    std::uint64_t readWord(Addr a) const;

    /** Write a word; line must be present in Modified state. */
    void writeWord(Addr a, std::uint64_t v);

    /**
     * Install a line. Returns the displaced dirty victim, if any (clean
     * victims vanish silently).
     */
    std::optional<Victim> fill(Addr line_addr, LineState st,
                               const LineWords &words);

    /**
     * Remove the line containing @p a.
     * @return its words if it was present and dirty (for writeback)
     */
    std::optional<LineWords> invalidate(Addr a);

    /**
     * Downgrade Modified -> Shared; returns the line's words (the home
     * needs them for the writeback) or nullopt if not present/Modified.
     */
    std::optional<LineWords> downgrade(Addr a);

    /** Upgrade Shared -> Modified in place (after a GETX completes). */
    void upgrade(Addr a);

    /** Copy of the line's words; line must be present. */
    LineWords lineWords(Addr a) const;

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t numSets() const { return numSets_; }

    /** Drop every line (used between benchmark repetitions). */
    void flushAll();

    /**
     * Observer notified of fills/evicts/invalidates/state changes and
     * word accesses; may be null. @p node identifies this cache in the
     * observer's view. Auditing across flushAll() is not supported.
     */
    void setAuditHooks(check::Hooks *hooks, NodeId node)
    {
        hooks_ = hooks;
        node_ = node;
    }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;

    /** states_ value of a set holding no line. */
    static constexpr std::uint8_t kInvalid = 0xff;

    std::uint32_t
    setOf(Addr a) const
    {
        return static_cast<std::uint32_t>(a >> lineShift_) & setMask_;
    }

    Addr lineBase(Addr a) const { return a & ~lineMask_; }

    /** Set index holding the line of @p a, or -1 if absent. */
    std::int64_t
    find(Addr a) const
    {
        const std::uint32_t s = setOf(a);
        if (states_[s] != kInvalid && tags_[s] == lineBase(a))
            return s;
        return -1;
    }

    LineState stateAt(std::uint32_t set) const
    {
        return static_cast<LineState>(states_[set]);
    }

    /** First word of the line in @p set. */
    std::uint64_t *wordsAt(std::uint32_t set)
    {
        return words_.get() + std::size_t{set} * wordsPerLine_;
    }
    const std::uint64_t *wordsAt(std::uint32_t set) const
    {
        return words_.get() + std::size_t{set} * wordsPerLine_;
    }

    /** Copy of the words of the line in @p set. */
    LineWords lineAt(std::uint32_t set) const;

    std::uint32_t lineBytes_;
    std::uint32_t numSets_;
    std::uint32_t wordsPerLine_;
    std::uint32_t lineShift_;
    std::uint32_t setMask_;
    Addr lineMask_;
    check::Hooks *hooks_ = nullptr;
    NodeId node_ = -1;
    /** Full line address per set (valid when states_ != kInvalid). */
    std::vector<Addr> tags_;
    /** LineState per set, or kInvalid. */
    std::vector<std::uint8_t> states_;
    /** numSets x wordsPerLine data words; read only for valid sets. */
    std::unique_ptr<std::uint64_t[]> words_;
};

} // namespace alewife::mem

#endif // ALEWIFE_MEM_CACHE_HH
