/**
 * @file
 * Active messages and the network interface (NI).
 *
 * Models Alewife's user-level messaging (Section 3.2):
 *   send_am(proc, handler, args...) — construct and launch costs charged
 *   to the sender; delivery either interrupts the receiving processor
 *   (amInterruptCycles per message) or waits for an explicit poll
 *   (Remote Queues style). Bulk transfer appends a DMA body to the
 *   message, padded to the DMA alignment granularity.
 *
 * The NI input queue is finite: when handlers cannot keep up, the queue
 * fills, the mesh parks packets against the final link, and congestion
 * backs up into the network — the endpoint-occupancy effect of
 * Section 5.1.
 */

#ifndef ALEWIFE_MSG_ACTIVE_MESSAGES_HH
#define ALEWIFE_MSG_ACTIVE_MESSAGES_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "machine/config.hh"
#include "msg/am_header.hh"
#include "net/mesh.hh"
#include "net/packet.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace alewife::ckpt {
class Access;
}

namespace alewife::msg {

/**
 * Build an argument-word vector. Use this instead of a braced
 * initializer list at co_await'ed send sites: GCC 12's coroutine
 * lowering miscompiles init-list backing arrays that span a suspension
 * point ("array used as initializer" / double frees).
 */
template <typename... Ts>
std::vector<std::uint64_t>
amArgs(Ts... vs)
{
    std::vector<std::uint64_t> out;
    out.reserve(sizeof...(vs));
    (out.push_back(static_cast<std::uint64_t>(vs)), ...);
    return out;
}

/**
 * An active message (possibly with a DMA bulk body) as its handler
 * sees it: views into the delivered packet, valid while the handler
 * runs.
 */
struct AmMessage
{
    HandlerId handler = -1;
    NodeId src = -1;
    /** Register-file arguments (at most kAmMaxArgs). */
    std::span<const std::uint64_t> args;
    /** DMA body, present only for bulk transfers. */
    std::span<const std::uint64_t> body;
    bool bulk = false;
};

class NetIface;

/**
 * Execution environment handed to a message handler.
 *
 * Handlers mutate application state synchronously, may charge extra
 * processor cycles for their work, and may send replies; replies leave
 * the node when the handler's stolen cycles complete.
 */
class HandlerEnv
{
  public:
    HandlerEnv(NodeId self, const AmMessage &m, NetIface &ni)
        : self_(self), msg_(m), ni_(ni)
    {
    }

    NodeId self() const { return self_; }
    const AmMessage &msg() const { return msg_; }

    /** Charge @p cycles of handler work beyond the dispatch cost. */
    void charge(double cycles) { extraCycles_ += cycles; }

    /** Queue a reply; injected when this handler completes. */
    void send(NodeId dst, HandlerId h,
              std::span<const std::uint64_t> args,
              std::span<const std::uint64_t> body = {}, bool bulk = false);

  private:
    friend class NetIface;

    struct Outgoing
    {
        NodeId dst;
        HandlerId handler;
        AmArgs args;
        std::vector<std::uint64_t> body;
        bool bulk;
    };

    NodeId self_;
    const AmMessage &msg_;
    NetIface &ni_;
    double extraCycles_ = 0.0;
    std::vector<Outgoing> outgoing_;
};

using HandlerFn = std::function<void(HandlerEnv &)>;

/**
 * Machine-wide table of registered handlers.
 */
class HandlerRegistry
{
  public:
    HandlerId add(HandlerFn fn);
    void run(HandlerId id, HandlerEnv &env) const;
    void clear() { table_.clear(); }

  private:
    std::vector<HandlerFn> table_;
};

/** How this node extracts messages from the network. */
enum class RecvMode : std::uint8_t
{
    Interrupt,
    Polling,
};

/**
 * One node's network interface.
 */
class NetIface
{
  public:
    NetIface(NodeId self, EventQueue &eq, const MachineConfig &cfg,
             proc::Proc &proc, net::Mesh &mesh, HandlerRegistry &handlers,
             MachineCounters &counters);

    void setMode(RecvMode m) { mode_ = m; }
    RecvMode mode() const { return mode_; }

    /**
     * Launch a message at time @p when (>= now). Caller has already
     * charged the construction overhead.
     * @return ticks the packet waited to enter its first link (sender
     *         back-pressure indication)
     */
    Tick inject(NodeId dst, HandlerId h,
                std::span<const std::uint64_t> args,
                std::span<const std::uint64_t> body, bool bulk, Tick when);

    /**
     * Network sink; false when the input queue is full. On true the NI
     * owns @p pkt and releases it after the handler has run.
     */
    bool receive(net::Packet &pkt);

    /**
     * Drain the input queue inline (polling mode; program Running).
     * @return number of messages handled
     */
    int pollDrain();

    bool queueEmpty() const { return inq_.empty(); }
    int queueDepth() const { return static_cast<int>(inq_.size()); }

    /** Total messages this NI has delivered to handlers. */
    std::uint64_t delivered() const { return delivered_; }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;

    /** Run the handler of @p pkt and release it; returns its
     *  completion tick. */
    Tick runHandler(net::Packet *pkt);

    /** Interrupt-mode drain chain. */
    void drainNext();

    NodeId self_;
    EventQueue &eq_;
    const MachineConfig &cfg_;
    proc::Proc &proc_;
    net::Mesh &mesh_;
    HandlerRegistry &handlers_;
    MachineCounters &counters_;

    RecvMode mode_ = RecvMode::Interrupt;
    /** Accepted packets waiting for their handler. */
    std::deque<net::Packet *> inq_;
    bool drainScheduled_ = false;
    Tick lastHandlerDone_ = 0;
    std::uint64_t delivered_ = 0;
};

} // namespace alewife::msg

#endif // ALEWIFE_MSG_ACTIVE_MESSAGES_HH
