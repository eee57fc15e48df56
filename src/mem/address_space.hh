/**
 * @file
 * The simulated global shared address space.
 *
 * Shared allocations carry real 64-bit data words in a backing store held
 * at the line's home node, so coherence-protocol correctness is checked
 * by the applications' numeric results, not just by counters. Home
 * placement is selectable per allocation: block-distributed (node-major
 * chunks, the distribution the paper's applications use after
 * partitioning), line-interleaved, or pinned to one node.
 */

#ifndef ALEWIFE_MEM_ADDRESS_SPACE_HH
#define ALEWIFE_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace alewife::ckpt {
class Access;
}

namespace alewife::mem {

/** Home-placement policy for one allocation. */
enum class HomePolicy : std::uint8_t
{
    Blocked,     ///< contiguous chunk per node
    Interleaved, ///< consecutive lines round-robin across nodes
    Fixed,       ///< everything on one node
};

/**
 * Allocator + backing store for the global address space.
 */
class AddressSpace
{
  public:
    AddressSpace(int nodes, std::uint32_t line_bytes);

    /**
     * Allocate @p words 64-bit words of shared memory.
     * @param policy home-placement policy
     * @param fixed_node home node when policy == Fixed
     * @return base byte address (line-aligned)
     */
    Addr alloc(std::uint64_t words, HomePolicy policy,
               NodeId fixed_node = 0, const std::string &label = "");

    /** Home node of the line containing @p a. */
    NodeId
    home(Addr a) const
    {
        return static_cast<NodeId>(homeOfLine_[lineIndex(a)]);
    }

    /** Read the backing-store word at @p a (must be 8-byte aligned). */
    std::uint64_t loadWord(Addr a) const;

    /** Write the backing-store word at @p a. */
    void storeWord(Addr a, std::uint64_t v);

    /** Convenience double accessors (bit-cast). */
    double loadDouble(Addr a) const;
    void storeDouble(Addr a, double v);

    /** Align @p a down to its line base. */
    Addr lineBase(Addr a) const { return a & ~static_cast<Addr>(lineBytes_ - 1); }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t wordsPerLine() const { return lineBytes_ / 8; }
    int nodes() const { return nodes_; }

    /** Total words allocated so far. */
    std::uint64_t wordsAllocated() const { return store_.size(); }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;

    struct Region
    {
        Addr base;
        std::uint64_t words;
        HomePolicy policy;
        NodeId fixedNode;
        std::string label;
    };

    /**
     * Index of the line holding @p a among all allocated lines; panics
     * outside every allocation. Regions are packed contiguously from
     * byte address lineBytes_, so this is a shift and a bounds check.
     */
    std::size_t
    lineIndex(Addr a) const
    {
        const std::size_t i = (a - lineBytes_) >> lineShift_;
        if (a < lineBytes_ || i >= homeOfLine_.size()) [[unlikely]]
            unmapped(a);
        return i;
    }

    [[noreturn]] static void unmapped(Addr a);

    int nodes_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;
    Addr nextBase_;
    std::vector<Region> regions_;
    std::vector<std::uint64_t> store_;
    /** Home node of every allocated line, filled at alloc(). */
    std::vector<std::uint16_t> homeOfLine_;
};

} // namespace alewife::mem

#endif // ALEWIFE_MEM_ADDRESS_SPACE_HH
