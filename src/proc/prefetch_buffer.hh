/**
 * @file
 * Non-binding software prefetch buffer (Alewife Section 3.2).
 *
 * Prefetch instructions initiate coherence transactions whose data lands
 * in this small buffer rather than the cache; a later demand reference
 * moves the line into the cache cheaply. "Non-binding" means a line
 * sitting in the buffer can still be invalidated or recalled by the
 * coherence protocol, so prefetching never violates sequential
 * consistency.
 */

#ifndef ALEWIFE_PROC_PREFETCH_BUFFER_HH
#define ALEWIFE_PROC_PREFETCH_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache.hh"
#include "sim/types.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::proc {

/**
 * A small fully-associative buffer of prefetched lines.
 */
class PrefetchBuffer
{
  public:
    struct Entry
    {
        bool valid = false;
        Addr lineAddr = 0;
        mem::LineState st = mem::LineState::Shared;
        mem::LineWords words;
    };

    explicit PrefetchBuffer(int entries);

    /** True if a completed prefetch for @p line is buffered. */
    bool contains(Addr line) const;

    /** The buffered entry for @p line, if any. */
    const Entry *find(Addr line) const;

    /**
     * Install a completed prefetch. Evicts the oldest entry if full
     * (FIFO). Clean data only — the buffer never holds dirty words.
     */
    void install(Addr line, mem::LineState st, const mem::LineWords &words);

    /** Remove and return the entry for @p line (demand consumption). */
    std::optional<Entry> take(Addr line);

    /** Invalidate the entry for @p line; true if one existed. */
    bool invalidate(Addr line);

    /**
     * Evict one entry FIFO-style to make room. The caller must write
     * back Modified victims (the buffer cannot reach the network).
     */
    std::optional<Entry> evictOldest();

    /** Downgrade a Modified entry to Shared; true if one existed. */
    bool downgrade(Addr line);

    /** Number of valid entries. */
    int occupancy() const;

    int capacity() const { return static_cast<int>(slots_.size()); }

    /** Drop everything. */
    void clear();

    /** Observer notified of installs/removals; may be null. */
    void setAuditHooks(check::Hooks *hooks, NodeId node)
    {
        hooks_ = hooks;
        node_ = node;
    }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;

    std::vector<Entry> slots_;
    std::size_t fifoNext_ = 0;
    check::Hooks *hooks_ = nullptr;
    NodeId node_ = -1;
};

} // namespace alewife::proc

#endif // ALEWIFE_PROC_PREFETCH_BUFFER_HH
