/**
 * @file
 * LineWords: the data words of one cache line, held inline.
 *
 * Every place a line's contents travel (protocol messages, cache and
 * prefetch-buffer victims, recall responses, observer hooks) carries a
 * LineWords by value instead of a heap-allocated vector. The capacity
 * is the largest line MachineConfig::validate() accepts (64 bytes).
 */

#ifndef ALEWIFE_MEM_LINE_WORDS_HH
#define ALEWIFE_MEM_LINE_WORDS_HH

#include <cstdint>

#include "sim/fixed_vec.hh"

namespace alewife::mem {

/** Largest line size, in bytes, a machine may be configured with. */
inline constexpr std::uint32_t kMaxLineBytes = 64;

/** Words of one cache line (lineBytes / 8 of them). */
using LineWords = sim::FixedVec<std::uint64_t, kMaxLineBytes / 8>;

} // namespace alewife::mem

#endif // ALEWIFE_MEM_LINE_WORDS_HH
