/**
 * @file
 * Recorder: the observability layer's check::Hooks implementation.
 *
 * One Recorder owns one run's observation state — the metrics
 * registry, the timeline writer, the interval-profile samples, and the
 * optional flight-recorder ring — and is attached to a Machine next to
 * (or instead of) the invariant auditor via Machine::attachHooks. A
 * detached machine pays one null check per observation point; an
 * attached recorder only ever reads simulator state and appends to its
 * own buffers, never schedules events, so results are bit-identical
 * with the recorder attached or detached (pinned by
 * tests/obs/determinism).
 *
 * Thread-safety follows the one-sink-per-simulation-thread discipline:
 * a Recorder is single-threaded state, and parallel sweeps construct
 * one per job with per-run output paths (obs::withPathTag).
 */

#ifndef ALEWIFE_OBS_RECORDER_HH
#define ALEWIFE_OBS_RECORDER_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/hooks.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/options.hh"
#include "obs/timeline.hh"
#include "sim/types.hh"

namespace alewife {
class Machine;
class EventQueue;
}

namespace alewife::obs {

/** Observes one run; write outputs with finalize(). */
class Recorder final : public check::Hooks
{
  public:
    /** One interval-profile sample (cumulative values at @p tick). */
    struct Sample
    {
        Tick tick = 0;
        std::array<Tick, static_cast<std::size_t>(TimeCat::NumCats)>
            breakdown{};
        std::uint64_t volumeBytes = 0;
        std::uint64_t events = 0;
    };

    Recorder(RecorderOptions opts, int nodes);

    /** Wire into @p m (Machine::attachHooks) and name the tracks. */
    void attach(Machine &m);

    MetricsRegistry &metrics() { return metrics_; }
    TraceWriter &trace() { return trace_; }
    FlightRecorder *flight() { return flight_ ? &*flight_ : nullptr; }
    const std::vector<Sample> &samples() const { return samples_; }

    /**
     * Dump the flight ring to @p pathHint, or to the configured /
     * derived path when empty. Returns the path written, "" when the
     * flight recorder is off.
     */
    std::string dumpFlight(const std::string &pathHint = "");

    /**
     * Flush pending processor spans, fold end-of-run machine state
     * (CMMU counters, link occupancy, mesh gauges) into the registry,
     * and write the trace / metrics files named in the options.
     */
    void finalize();

    // --- Hooks overrides ---

    void onEventExecuted(Tick now) override;
    void onPacketInjected(const net::Packet &pkt) override;
    void onPacketDelivered(const net::Packet &pkt) override;
    void onHop(const net::Packet &pkt, int link, Tick depart,
               Tick waited) override;
    void onProcSpan(NodeId node, TimeCat cat, Tick start,
                    Tick end) override;
    void onHandlerRun(NodeId node, Tick start, Tick end) override;
    void onBarrierEpisode(NodeId node, Tick start, Tick end) override;
    void onCacheFill(NodeId node, Addr line, mem::LineState st,
                     const mem::LineWords &words) override;
    void onCacheInvalidate(NodeId node, Addr line,
                           bool wasModified) override;
    void onProtoSend(NodeId src, NodeId dst,
                     const coh::ProtoMsg &msg) override;
    void onMshrOpen(NodeId node, Addr line, bool exclusive) override;
    void onFill(NodeId node, Addr line, bool exclusive) override;
    void onTxnOpen(NodeId home, Addr line,
                   const coh::DirTxn &txn) override;
    void onTxnClose(NodeId home, Addr line) override;

  private:
    /** Current tick: the event queue when attached, else the last
     *  onEventExecuted tick (bare-EventQueue microbench attach). */
    Tick tick() const;

    /** (node, line/addr) composite map key. */
    static std::uint64_t
    key(NodeId node, Addr a)
    {
        return (static_cast<std::uint64_t>(node) << 48)
               ^ static_cast<std::uint64_t>(a);
    }

    void takeSample(Tick at);

    RecorderOptions opts_;
    int nodes_;
    Machine *machine_ = nullptr;
    EventQueue *eq_ = nullptr;
    Tick lastTick_ = 0;

    MetricsRegistry metrics_;
    TraceWriter trace_;
    std::optional<FlightRecorder> flight_;
    bool traceOn_ = false;

    // Interval profiling.
    Tick intervalTicks_ = 0;
    Tick nextSample_ = 0;
    std::vector<Sample> samples_;

    // Open-span bookkeeping (lookup only; never iterated for output).
    std::unordered_map<std::uint64_t, Tick> injectTick_; ///< pkt id
    std::unordered_map<std::uint64_t, Tick> mshrOpen_;   ///< key(node,line)
    std::unordered_map<std::uint64_t, Tick> txnOpen_;    ///< key(home,line)

    // Metric ids (registered in the ctor, deterministic order).
    int cPktInjected_, cPktDelivered_, cHops_, cProtoSends_;
    int cCacheFills_, cInvalidations_;
    int hRemoteMiss_, hLocalMiss_, hPktTransit_, hLinkWait_;
    int hHandlerRun_, hBarrierWait_, hTxn_;
};

} // namespace alewife::obs

#endif // ALEWIFE_OBS_RECORDER_HH
