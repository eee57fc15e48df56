/**
 * @file
 * SmallVec: a vector with inline storage for the common small case.
 *
 * A directory entry's sharer list is short on every machine the paper
 * models, but a std::vector would still heap-allocate for each line
 * that gains a sharer. SmallVec keeps up to N elements in the object
 * itself and only spills to the heap beyond that — and once spilled,
 * clear() keeps the allocation, so a long-lived SmallVec never
 * allocates in steady state.
 *
 * Only what the simulator needs is implemented: trivially-copyable
 * element types, push_back/clear/indexing/iteration. Not
 * copyable or movable — it lives in place (here, inside a directory
 * entry in a slab), not as a value type.
 */

#ifndef ALEWIFE_SIM_SMALL_VEC_HH
#define ALEWIFE_SIM_SMALL_VEC_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

namespace alewife::sim {

/** Fixed-inline-capacity vector of a trivially-copyable type. */
template <typename T, std::size_t N>
class SmallVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVec only supports trivially-copyable types");

  public:
    SmallVec() = default;
    SmallVec(const SmallVec &) = delete;
    SmallVec &operator=(const SmallVec &) = delete;

    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow();
        data_[size_++] = v;
    }

    /** Drop all elements; heap capacity (if any) is retained. */
    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    /** True if elements currently live in the inline buffer. */
    bool inlineStorage() const { return data_ == inline_; }

    T operator[](std::size_t i) const { return data_[i]; }
    T &operator[](std::size_t i) { return data_[i]; }

    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    void
    grow()
    {
        const std::size_t newCap = cap_ * 2;
        auto bigger = std::make_unique<T[]>(newCap);
        std::memcpy(bigger.get(), data_, size_ * sizeof(T));
        heap_ = std::move(bigger);
        data_ = heap_.get();
        cap_ = newCap;
    }

    T inline_[N];
    std::unique_ptr<T[]> heap_;
    T *data_ = inline_;
    std::size_t size_ = 0;
    std::size_t cap_ = N;
};

} // namespace alewife::sim

#endif // ALEWIFE_SIM_SMALL_VEC_HH
