/**
 * @file
 * Runtime invariant auditor: cross-layer correctness checks.
 *
 * InvariantAuditor attaches to a Machine and observes, via check::Hooks,
 * every coherence transition, cache/prefetch-buffer state change and
 * packet send/receive. After every executed event it checks the touched
 * lines against the protocol's cross-layer invariants, and finalize()
 * checks global quiescence after a run. Invariant catalog:
 *
 *  - dir-cache-agreement: at quiescence (no open txn, empty request
 *    queue, nothing in flight, no MSHR for the line) a Modified line has
 *    exactly one Modified copy at the recorded owner and empty sharers;
 *    a Shared line's sharer list is a superset of the actual holders,
 *    all Shared; an Uncached line has no holders.
 *  - modified-single-owner: never more than one Modified copy of a line
 *    machine-wide (cache or prefetch buffer), and never a Modified
 *    buffer entry coexisting with a cache copy on the same node.
 *  - txn-ack-bookkeeping: an open invalidating GetX transaction's
 *    pendingAcks always equals invalidations sent minus acks processed.
 *  - inv-ack-conservation: every processed Inv produces an InvAck
 *    within the same event.
 *  - recall-liveness: a transaction waiting on a recall always has a
 *    recall/forward/writeback message in flight or stashed.
 *  - message-conservation: per MsgType, sends = processed + in flight;
 *    nothing in flight and no open MSHR/transaction at finalize (every
 *    GetS/GetX closes with a Data/DataX fill).
 *  - write-serialization: a per-line shadow copy follows the single
 *    writer; every data-carrying message, fill and demand read must
 *    agree with it (skipped in the documented stale-fill window after
 *    an Inv overtakes an in-flight Shared grant).
 *  - byte-accounting: each packet's Figure-5 category bytes sum to its
 *    size and match its opcode's configured costs; aggregated volume
 *    equals the mesh's breakdown; Inv sends match the CMMU counter.
 *  - event-monotonicity: event execution times never decrease.
 *
 * A violation either panics naming the invariant (abortOnViolation,
 * the default) or is collected for inspection (fuzz harness).
 */

#ifndef ALEWIFE_CHECK_AUDITOR_HH
#define ALEWIFE_CHECK_AUDITOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/hooks.hh"
#include "coh/proto.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace alewife {
class Machine;
}

namespace alewife::check {

/**
 * The one real Hooks implementation: continuous invariant checking.
 */
class InvariantAuditor final : public Hooks
{
  public:
    struct Options
    {
        /** Panic at the first violation (tests); else collect (fuzz). */
        bool abortOnViolation = true;
        /** Collection cap in non-aborting mode. */
        std::size_t maxViolations = 64;
    };

    struct Violation
    {
        std::string invariant; ///< catalog name, e.g. "recall-liveness"
        Tick tick = 0;
        std::string detail;
    };

    InvariantAuditor() = default; ///< aborting-mode defaults
    explicit InvariantAuditor(Options opts) : opts_(opts) {}

    /** Wire this auditor into every component of @p m (before run()). */
    void attach(Machine &m);

    /**
     * Called on every violation, before any abort and before the
     * collection cap applies. Wiring point for forensic sinks (the obs
     * flight-recorder dump) without a check -> obs dependency.
     */
    void setOnViolation(std::function<void(const Violation &)> fn)
    {
        onViolation_ = std::move(fn);
    }

    /** End-of-run checks: global quiescence, conservation, volume. */
    void finalize();

    const std::vector<Violation> &violations() const { return viols_; }
    bool clean() const { return viols_.empty(); }

    /** Total sends of @p t observed (tests: did the race happen?). */
    std::uint64_t messagesSeen(coh::MsgType t) const
    {
        return sends_[idx(t)];
    }

    // --- Hooks overrides ---

    void onEventExecuted(Tick now) override;
    void onPacketInjected(const net::Packet &pkt) override;
    void onPacketDelivered(const net::Packet &pkt) override;
    void onCacheFill(NodeId node, Addr line, mem::LineState st,
                     const mem::LineWords &words) override;
    void onCacheEvict(NodeId node, Addr line, bool dirty) override;
    void onCacheInvalidate(NodeId node, Addr line,
                           bool wasModified) override;
    void onCacheDowngrade(NodeId node, Addr line) override;
    void onCacheUpgrade(NodeId node, Addr line) override;
    void onCacheRead(NodeId node, Addr a, std::uint64_t v) override;
    void onCacheWrite(NodeId node, Addr a, std::uint64_t v) override;
    void onPfbInstall(NodeId node, Addr line, mem::LineState st,
                      const mem::LineWords &words) override;
    void onPfbRemove(NodeId node, Addr line) override;
    void onProtoSend(NodeId src, NodeId dst,
                     const coh::ProtoMsg &msg) override;
    void onProtoProcess(NodeId at, const coh::ProtoMsg &msg) override;
    void onLocalGrant(NodeId node, Addr line, bool exclusive) override;
    void onFill(NodeId node, Addr line, bool exclusive) override;
    void onMshrOpen(NodeId node, Addr line, bool exclusive) override;
    void onMshrClose(NodeId node, Addr line) override;
    void onTxnOpen(NodeId home, Addr line,
                   const coh::DirTxn &txn) override;
    void onTxnClose(NodeId home, Addr line) override;
    void onRecallStashed(NodeId node, Addr line) override;
    void onRecallHonored(NodeId node, Addr line) override;

  private:
    static constexpr std::size_t kNumMsgTypes = 14;

    static std::size_t idx(coh::MsgType t)
    {
        return static_cast<std::size_t>(t);
    }

    /** Per-line audit bookkeeping. */
    struct LineState
    {
        std::array<std::int64_t, kNumMsgTypes> inflight{};
        /** Inv acks expected/processed for the open GetX txn. */
        int acksExpected = 0;
        int acksProcessed = 0;
        int stashCount = 0;
        /** Shadow copy maintained by the single-writer discipline. */
        mem::LineWords shadow;
        bool hasShadow = false;
    };

    void record(const char *invariant, std::string detail);
    void touch(Addr line);
    LineState &ls(Addr line);

    /** Per-event checks on one touched line. */
    void auditLine(Addr line);

    /** True if nothing protocol-wise is pending on @p line. */
    bool quiescent(Addr line, const LineState &s) const;

    /** Strict directory/cache agreement; only valid when quiescent. */
    void checkAgreement(Addr line, const char *when);

    bool tainted(NodeId node, Addr line) const;
    std::uint64_t taintKey(NodeId node, Addr line) const
    {
        return (static_cast<std::uint64_t>(node) << 48)
               ^ static_cast<std::uint64_t>(line);
    }

    Options opts_;
    Machine *machine_ = nullptr;

    std::unordered_map<Addr, LineState> lines_;
    std::unordered_set<Addr> touchedThisEvent_;
    std::unordered_set<Addr> everTouched_;

    /** Open MSHRs: line -> nodes (value: exclusive). */
    std::unordered_map<Addr, std::unordered_map<NodeId, bool>> mshrs_;

    /** Stale-fill windows: (node,line) keys to skip data validation. */
    std::unordered_set<std::uint64_t> taints_;

    std::array<std::uint64_t, kNumMsgTypes> sends_{};
    std::array<std::uint64_t, kNumMsgTypes> processed_{};
    std::uint64_t invProcessed_ = 0;
    std::uint64_t invAcksSent_ = 0;
    bool invAckMismatchReported_ = false;

    std::uint64_t cohInjected_ = 0;
    std::uint64_t cohDelivered_ = 0;
    VolumeBreakdown volume_;

    Tick lastEventTick_ = 0;
    std::vector<Violation> viols_;
    std::function<void(const Violation &)> onViolation_;
};

} // namespace alewife::check

#endif // ALEWIFE_CHECK_AUDITOR_HH
