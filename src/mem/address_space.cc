#include "mem/address_space.hh"

#include <bit>

#include "sim/logging.hh"

namespace alewife::mem {

AddressSpace::AddressSpace(int nodes, std::uint32_t line_bytes)
    : nodes_(nodes), lineBytes_(line_bytes),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      nextBase_(line_bytes)
{
    if (nodes < 1 || nodes > 0x10000)
        ALEWIFE_FATAL("address space needs 1..65536 nodes");
    if (line_bytes < 8 || (line_bytes & (line_bytes - 1)) != 0)
        ALEWIFE_FATAL("line size must be a power of two of at least 8");
}

Addr
AddressSpace::alloc(std::uint64_t words, HomePolicy policy,
                    NodeId fixed_node, const std::string &label)
{
    if (words == 0)
        ALEWIFE_FATAL("zero-sized shared allocation");
    // Round the allocation up to whole lines so distinct allocations never
    // share a line (no false sharing across data structures).
    const std::uint64_t wpl = wordsPerLine();
    const std::uint64_t rounded = (words + wpl - 1) / wpl * wpl;

    Region r;
    r.base = nextBase_;
    r.words = rounded;
    r.policy = policy;
    r.fixedNode = fixed_node;
    r.label = label;
    regions_.push_back(r);

    store_.resize(store_.size() + rounded, 0);
    nextBase_ += rounded * 8;

    // Home of every line of the region, computed once here so home()
    // is a table lookup.
    const std::uint64_t lines = rounded / wpl;
    const std::uint64_t per = (lines + nodes_ - 1) / nodes_;
    homeOfLine_.reserve(homeOfLine_.size() + lines);
    for (std::uint64_t line = 0; line < lines; ++line) {
        NodeId h = 0;
        switch (policy) {
          case HomePolicy::Fixed:
            h = fixed_node;
            break;
          case HomePolicy::Interleaved:
            h = static_cast<NodeId>(line % nodes_);
            break;
          case HomePolicy::Blocked:
            // Whole-line chunks, as even as possible.
            h = static_cast<NodeId>(line / per);
            break;
        }
        homeOfLine_.push_back(static_cast<std::uint16_t>(h));
    }
    return r.base;
}

void
AddressSpace::unmapped(Addr a)
{
    ALEWIFE_PANIC("address ", a, " not in any shared allocation");
}

std::uint64_t
AddressSpace::loadWord(Addr a) const
{
    if (a % 8 != 0)
        ALEWIFE_PANIC("unaligned word load at ", a);
    lineIndex(a); // bounds check
    // Regions are packed contiguously starting at byte offset lineBytes_.
    return store_[(a - lineBytes_) / 8];
}

void
AddressSpace::storeWord(Addr a, std::uint64_t v)
{
    if (a % 8 != 0)
        ALEWIFE_PANIC("unaligned word store at ", a);
    lineIndex(a); // bounds check
    store_[(a - lineBytes_) / 8] = v;
}

double
AddressSpace::loadDouble(Addr a) const
{
    return std::bit_cast<double>(loadWord(a));
}

void
AddressSpace::storeDouble(Addr a, double v)
{
    storeWord(a, std::bit_cast<std::uint64_t>(v));
}

} // namespace alewife::mem
