/**
 * @file
 * Machine: the assembled simulated multiprocessor.
 *
 * Owns the event queue, the mesh, the global address space, and one
 * node-set (processor, cache, prefetch buffer, coherence controller,
 * network interface, programming context) per mesh position. A run
 * launches one program coroutine per node and drives the event queue
 * until every program completes.
 */

#ifndef ALEWIFE_MACHINE_MACHINE_HH
#define ALEWIFE_MACHINE_MACHINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "check/perturb.hh"
#include "coh/coherence.hh"
#include "machine/config.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "msg/active_messages.hh"
#include "net/cross_traffic.hh"
#include "net/mesh.hh"
#include "proc/context.hh"
#include "proc/prefetch_buffer.hh"
#include "proc/processor.hh"
#include "proc/sync.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace alewife::check {
class Hooks;
class HookFanout;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::sim {
class ParallelExec;
struct ExecRecord;
}

namespace alewife {

/**
 * A fully wired simulated multiprocessor.
 */
class Machine
{
  public:
    /** Builds a program coroutine for one node. */
    using ProgramFactory = std::function<sim::Thread(proc::Ctx &)>;

    Machine(MachineConfig cfg, proc::SyncStyle style, msg::RecvMode mode);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    int nodes() const { return cfg_.nodes(); }
    const MachineConfig &config() const { return cfg_; }

    EventQueue &eq() { return eq_; }
    net::Mesh &mesh() { return *mesh_; }
    mem::AddressSpace &mem() { return *mem_; }
    msg::HandlerRegistry &handlers() { return handlers_; }

    /**
     * Aggregated machine-wide counters. Each node increments its own
     * cache-line-aligned shard (so parallel windows never contend on a
     * shared line); this sums the shards into a stable snapshot. Call
     * from serial phases only (between windows or after a run).
     */
    MachineCounters &counters();

    proc::SyncSystem &sync() { return *sync_; }

    proc::Ctx &ctx(int i) { return *nodes_[i]->ctx; }
    proc::Proc &procAt(int i) { return nodes_[i]->proc; }
    coh::CoherenceController &cohAt(int i) { return *nodes_[i]->coh; }
    msg::NetIface &niAt(int i) { return *nodes_[i]->ni; }
    mem::Cache &cacheAt(int i) { return nodes_[i]->cache; }
    proc::PrefetchBuffer &pfbAt(int i) { return nodes_[i]->pfb; }

    /** Attach cross-traffic injectors (call before run()). */
    void addCrossTraffic(net::CrossTrafficConfig cfg);

    /**
     * Apply schedule-perturbation knobs (fuzzing). Call before run();
     * a disabled config is a no-op, leaving the run bit-identical.
     */
    void setPerturbation(const check::PerturbConfig &p);

    /**
     * Worker threads for run(). 1 (the default) drives the serial
     * kernel; >= 2 requests the conservative time-windowed parallel
     * engine (sim/parallel.hh). The engine only engages when the run
     * is eligible — see parallelEligible(); otherwise run() silently
     * falls back to the serial kernel. Results are bit-identical
     * either way. Call before run().
     */
    void setThreads(int threads);
    int threads() const { return threads_; }

    /**
     * True iff run() would use the parallel engine right now:
     * threads >= 2, at least two nodes, a positive cross-LP lookahead
     * (mesh minimum cross-node latency), no trace category enabled
     * (trace lines read per-LP time), and every attached hook
     * parallel-capable. Tie-break perturbation is allowed (it runs in
     * the slower gated-live mode).
     */
    bool parallelEligible() const;

    /**
     * Windows committed by the parallel engine during the last run;
     * 0 means the run executed on the serial kernel.
     */
    std::uint64_t parallelWindows() const { return parWindows_; }

    /** Default tick limit for run(): panic past 4G cycles. */
    static constexpr Tick kDefaultRunLimit =
        cyclesToTicks(std::uint64_t(4'000'000'000));

    /**
     * Launch one program per node and drive the simulation until all
     * programs complete. Equivalent to start(f); while (stepOne(limit))
     * {}; finishRun() — the stepping primitives exist so checkpoint
     * drivers can pause the machine at a precise event count.
     * @param f per-node program factory
     * @param limit panic if simulated time would exceed this
     * @return the finish tick (max completion time over nodes)
     */
    Tick run(const ProgramFactory &f, Tick limit = kDefaultRunLimit);

    /** Launch one program coroutine per node plus cross-traffic. */
    void start(const ProgramFactory &f);

    /**
     * Execute one event. Panics on deadlock (no event while programs
     * are unfinished) or when simulated time exceeds @p limit.
     * @return false iff every program has completed (no event popped)
     */
    bool stepOne(Tick limit = kDefaultRunLimit);

    /**
     * Drive the machine until @p events total events have executed
     * (eq().eventsExecuted() == events) or all programs complete,
     * whichever is first. Used by checkpoint capture/restore: the
     * executed-event count is the canonical replay position.
     * @return true if the machine paused exactly at @p events
     */
    bool stepUntilEvents(std::uint64_t events,
                         Tick limit = kDefaultRunLimit);

    /** True once every node's program has completed. */
    bool programsDone() const { return allDone(); }

    /**
     * Stop cross-traffic, quiesce in-flight protocol traffic, and
     * compute the finish tick. The tail of run().
     */
    Tick finishRun();

    /** Finish tick of the last run. */
    Tick finishTick() const { return finishTick_; }

    /**
     * Read the architectural value of a shared word after a run,
     * honouring dirty copies still sitting in caches or prefetch
     * buffers. Verification only.
     */
    std::uint64_t debugWord(Addr a);

    /** debugWord, bit-cast to double. */
    double debugDouble(Addr a);

    /** Sum of per-node time breakdowns of the last run. */
    TimeBreakdown breakdownSum() const;

    /** Application communication volume so far. */
    const VolumeBreakdown &volume() const { return mesh_->volume(); }

    /**
     * Attach an observer (invariant auditor, obs recorder) to every
     * component. One observer is wired by direct pointer; several are
     * multiplexed through one check::HookFanout, so the detached cost
     * stays a null check and the single-observer cost one virtual
     * call. Observers see events in attachment order and must outlive
     * the machine's last run.
     */
    void attachHooks(check::Hooks *hooks);

  private:
    /** Checkpoint capture/verify reads private machine state. */
    friend class alewife::ckpt::Access;

    /** Point every component's hook pointer at @p h. */
    void wireHooks(check::Hooks *h);

    [[noreturn]] void panicDeadlock() const;

    /** The mesh sink: dispatch an arrived packet to its node by kind. */
    bool deliver(net::Packet &pkt);
    struct Node
    {
        Node(NodeId id, Machine &m);

        proc::Proc proc;
        mem::Cache cache;
        proc::PrefetchBuffer pfb;
        std::unique_ptr<coh::CoherenceController> coh;
        std::unique_ptr<msg::NetIface> ni;
        std::unique_ptr<proc::Ctx> ctx;
    };

    bool allDone() const;

    /** Sum of every per-node counter shard. */
    MachineCounters countersAggregate() const;

    /** Owning LP of a tagged pending event; LP nodes() is the
     *  cross-traffic injector, -1 is unclassifiable (panics). */
    int eventLp(const EventMeta &meta) const;

    /** Drive the started machine to completion with the windowed
     *  parallel engine (run()'s middle when parallelEligible()). */
    void runParallelLoop(Tick limit);

    MachineConfig cfg_;
    EventQueue eq_;
    MachineCounters counters_;

    /**
     * Per-node counter shards, one cache line each: every component of
     * node i holds a reference to shards_[i].c, so counter increments
     * during parallel windows stay single-writer per line. Sized once
     * in the ctor, before any Node captures its reference.
     */
    struct alignas(64) CounterShard
    {
        MachineCounters c;
    };
    std::vector<CounterShard> shards_;

    int threads_ = 1;
    std::uint64_t parWindows_ = 0;
    /**
     * Serial-order stop tick of the last parallel run: the `when` of
     * the event that completed the final unfinished program. The
     * serial loop stops there, so finishRun() bounds its quiesce drain
     * from this tick (not the possibly-later window-commit clock) to
     * keep the drained event set identical to the serial engine's.
     * 0 = serial run (use eq_.now()).
     */
    Tick parStopTick_ = 0;
    msg::HandlerRegistry handlers_;
    std::unique_ptr<net::Mesh> mesh_;
    std::unique_ptr<mem::AddressSpace> mem_;
    std::unique_ptr<proc::SyncSystem> sync_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<net::CrossTraffic> cross_;
    Tick finishTick_ = 0;

    // Attached observers and the fanout used once there are >= 2.
    std::vector<check::Hooks *> hookObs_;
    std::unique_ptr<check::HookFanout> hookFanout_;
};

} // namespace alewife

#endif // ALEWIFE_MACHINE_MACHINE_HH
