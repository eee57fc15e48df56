/**
 * @file
 * The fixed-size part of an active message, as it rides in a packet.
 */

#ifndef ALEWIFE_MSG_AM_HEADER_HH
#define ALEWIFE_MSG_AM_HEADER_HH

#include <cstdint>

#include "sim/fixed_vec.hh"
#include "sim/types.hh"

namespace alewife::msg {

/** Index into the machine-wide handler table. */
using HandlerId = int;

/**
 * Register-file arguments one active message can carry inline.
 * MachineConfig::validate() rejects an amMaxWords above twice this
 * (half of the message words are arguments).
 */
inline constexpr std::uint32_t kAmMaxArgs = 7;

/** Argument words of one active message. */
using AmArgs = sim::FixedVec<std::uint64_t, kAmMaxArgs>;

/**
 * Handler, source and arguments of an active message. The DMA body of
 * a bulk transfer travels beside it in net::Packet::body.
 */
struct AmHeader
{
    HandlerId handler = -1;
    NodeId src = -1;
    bool bulk = false;
    AmArgs args;
};

} // namespace alewife::msg

#endif // ALEWIFE_MSG_AM_HEADER_HH
