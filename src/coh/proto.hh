/**
 * @file
 * Directory-protocol message types.
 *
 * The protocol is an MSI invalidation protocol in the LimitLESS mould:
 * the home node serializes transactions per line, collects invalidation
 * acknowledgements itself, and recalls dirty lines from their owner
 * before replying. Packet sizes follow MachineConfig; byte accounting
 * feeds the Figure 5 volume categories (requests / invalidates /
 * headers / data).
 */

#ifndef ALEWIFE_COH_PROTO_HH
#define ALEWIFE_COH_PROTO_HH

#include <cstdint>

#include "mem/line_words.hh"
#include "sim/types.hh"

namespace alewife::coh {

/** Protocol message opcode. */
enum class MsgType : std::uint8_t
{
    GetS,         ///< requester -> home: read miss
    GetX,         ///< requester -> home: write/upgrade/rmw miss
    Recall,       ///< home -> owner: surrender dirty line, keep Shared
    RecallX,      ///< home -> owner: surrender dirty line, invalidate
    WbData,       ///< owner -> home: recall response with line data
    WbEvict,      ///< cache -> home: dirty victim writeback
    RecallNoData, ///< owner -> home: line already evicted
    Inv,          ///< home -> sharer: invalidate
    InvAck,       ///< sharer -> home: invalidation acknowledged
    Data,         ///< home/owner -> requester: line data, Shared grant
    DataX,        ///< home/owner -> requester: line data, Modified grant
    FwdGetS,      ///< home -> owner: send Shared data to requester
    FwdGetX,      ///< home -> owner: send Modified data to requester
    FwdAck,       ///< owner -> home: FwdGetX completed, ownership moved
};

/** Human-readable opcode name (debugging / traces). */
const char *msgTypeName(MsgType t);

/** True for messages that carry a full cache line of data. */
bool carriesData(MsgType t);

/**
 * A coherence message. A plain, trivially copyable value: it rides
 * inline in a pooled net::Packet, and is copied out only when parked
 * (directory request queues, stashed recalls).
 */
struct ProtoMsg
{
    MsgType type = MsgType::GetS;
    Addr lineAddr = 0;
    /** Original requester (recall/inv flows need it at the home). */
    NodeId requester = -1;
    /** Home-side transaction id echoed by recall responses. */
    std::uint64_t txnId = 0;
    /** Sender, filled in by the controller when the message leaves. */
    NodeId src = -1;
    /**
     * Issue time at the requester (local-home requests only; used to
     * anchor the configured local-miss penalty).
     */
    Tick issuedAt = 0;
    /** Line contents for data-carrying messages. */
    mem::LineWords words;
};

} // namespace alewife::coh

#endif // ALEWIFE_COH_PROTO_HH
