/**
 * @file
 * AddrMap: an open-addressing hash map keyed by line address.
 *
 * Per-line protocol state (directory entries, line epochs) is looked
 * up on every coherence message. A std::unordered_map allocates a node
 * per key; this map keeps keys and values in one flat array, probes
 * linearly from a Fibonacci hash, and doubles at half load. Address 0
 * is never a shared line (AddressSpace allocates from lineBytes up),
 * so it marks an empty slot. Entries are never erased.
 */

#ifndef ALEWIFE_SIM_ADDR_MAP_HH
#define ALEWIFE_SIM_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace alewife::sim {

/** Flat hash map from a non-zero Addr to a trivially-copyable @p V. */
template <typename V>
class AddrMap
{
    static_assert(std::is_trivially_copyable_v<V>,
                  "AddrMap values are moved with the table");

  public:
    /** Value for @p key, or null if absent. */
    V *
    find(Addr key)
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == 0)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    /** Value for @p key, value-initialized on first use. */
    V &
    operator[](Addr key)
    {
        if (key == 0)
            ALEWIFE_PANIC("AddrMap: address 0 is not a line key");
        if (2 * (size_ + 1) > slots_.size())
            grow();
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            Slot &s = slots_[i];
            if (s.key == key)
                return s.value;
            if (s.key == 0) {
                s.key = key;
                ++size_;
                return s.value;
            }
        }
    }

    std::size_t size() const { return size_; }

    /** Call @p f(key, value) for every entry, in table order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_) {
            if (s.key != 0)
                f(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        Addr key = 0;
        V value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t cap = old.empty() ? 16 : 2 * old.size();
        slots_.assign(cap, Slot{});
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --shift_;
        for (const Slot &s : old) {
            if (s.key == 0)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != 0)
                i = (i + 1) & mask();
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
};

} // namespace alewife::sim

#endif // ALEWIFE_SIM_ADDR_MAP_HH
