/**
 * @file
 * FixedVec: a value-type vector with fixed inline capacity.
 *
 * Cache lines and active-message arguments have a small size bound
 * known at compile time (MachineConfig caps lineBytes at 64 and
 * amMaxWords at twice the AM argument capacity), so they are held in
 * place instead of behind a heap-allocated std::vector. A FixedVec is
 * trivially copyable, so messages carrying one can sit in a union,
 * be copied with memcpy and live in pooled slots.
 *
 * Exceeding the capacity is a program bug and panics (in every build).
 */

#ifndef ALEWIFE_SIM_FIXED_VEC_HH
#define ALEWIFE_SIM_FIXED_VEC_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "sim/logging.hh"

namespace alewife::sim {

/** At most @p N elements of trivially-copyable @p T, stored inline. */
template <typename T, std::size_t N>
class FixedVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "FixedVec only supports trivially-copyable types");

  public:
    FixedVec() = default;

    void
    assign(std::size_t n, T v)
    {
        checkFits(n);
        std::fill_n(data_.begin(), n, v);
        size_ = static_cast<std::uint32_t>(n);
    }

    void
    assign(std::span<const T> src)
    {
        checkFits(src.size());
        std::copy(src.begin(), src.end(), data_.begin());
        size_ = static_cast<std::uint32_t>(src.size());
    }

    void
    push_back(T v)
    {
        checkFits(size_ + 1u);
        data_[size_++] = v;
    }

    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    T *begin() { return data_.data(); }
    T *end() { return data_.data() + size_; }
    const T *begin() const { return data_.data(); }
    const T *end() const { return data_.data() + size_; }

    operator std::span<const T>() const // NOLINT(google-explicit-constructor)
    {
        return {data_.data(), size_};
    }

    friend bool
    operator==(const FixedVec &a, const FixedVec &b)
    {
        return a.size_ == b.size_
               && std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    static void
    checkFits(std::size_t n)
    {
        if (n > N)
            ALEWIFE_PANIC("FixedVec capacity ", N, " exceeded (", n, ")");
    }

    std::array<T, N> data_{};
    std::uint32_t size_ = 0;
};

} // namespace alewife::sim

#endif // ALEWIFE_SIM_FIXED_VEC_HH
