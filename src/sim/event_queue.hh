/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global EventQueue drives the whole machine. Events are ordered
 * by (tick, insertion sequence) so simulations are fully deterministic.
 * Events may be cancelled after scheduling (used by the processor model to
 * push back a pending resume when an interrupt handler steals cycles).
 *
 * The hot path is allocation-free in steady state. Callbacks are stored
 * in sim::InlineFn (no std::function heap capture), event state lives in
 * a slab-allocated free-list pool owned by the queue, and ordering is
 * kept by a sim::RadixQueue of trivially-copyable POD entries (O(1)
 * comparison-free insertion; see radix_queue.hh for why a binary heap
 * is the wrong structure here) — so schedule/fire/cancel recycle memory
 * instead of touching the allocator. Handles address their event as
 * (pool, slot index, generation): releasing a slot bumps its generation,
 * which invalidates every outstanding handle and stale heap entry for
 * the old event in one increment. The pool is kept alive by a
 * non-atomic intrusive refcount (queue + handles — the queue and its
 * handles are single-threaded by design, like the rest of a simulated
 * machine), so a handle may outlive its queue: it then reports
 * not-pending and cancel() is a no-op.
 *
 * Schedule perturbation (setTieBreak): for fuzzing, same-tick events
 * scheduled for the *future* can be ordered by a seeded random priority
 * instead of insertion order. Events scheduled at the current tick keep
 * the documented contract — they run after already-queued same-tick
 * events — so perturbation only reorders interleavings the simulation
 * never promised. Off by default; default runs are bit-identical.
 *
 * An optional check::Hooks observer is notified after every executed
 * event (the invariant auditor runs its checks on settled state there).
 */

#ifndef ALEWIFE_SIM_EVENT_QUEUE_HH
#define ALEWIFE_SIM_EVENT_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <source_location>
#include <type_traits>
#include <vector>

#include "sim/event_tag.hh"
#include "sim/inline_fn.hh"
#include "sim/radix_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::sim {
class ParallelExec;
}

namespace alewife {

/**
 * Inline capture capacity of an event callback, in bytes. Sized so the
 * largest hot-path capture — a local coherence grant holding a line's
 * words (mem::LineWords) by value — stays inline (coherence.cc asserts
 * this at compile time). Protocol and network events capture a pooled
 * net::Packet pointer instead of a message.
 */
inline constexpr std::size_t kEventCallbackBytes = 104;

/** Callback type scheduled on the EventQueue. */
using EventFn = sim::InlineFn<kEventCallbackBytes>;

/**
 * Observer of the kernel's event *dependency tree* (obs::CritPathRecorder).
 *
 * Every schedule() made while some event is executing is a child of that
 * event: the simulation is single-threaded, so the (unique) parent of a
 * scheduled event is simply the event whose callback is on the stack at
 * schedule time. Because every blocking wait in the machine model is
 * released by an explicit event (completeOp / recheckCond / resume), this
 * tree is exactly the happens-before graph of one run. Sequence numbers
 * are assigned monotonically at schedule time, so child seq > parent seq
 * and a single forward pass over seq order is a valid topological replay.
 *
 * Detached cost is one predictable branch per schedule/execute. The
 * parallel window engine does not route through this seam; an attached
 * listener forces the serial kernel (Machine::parallelEligible).
 */
class DepListener
{
  public:
    /** parentSeq for events scheduled outside any event (roots). */
    static constexpr std::uint64_t kNoParent =
        std::numeric_limits<std::uint64_t>::max();

    virtual ~DepListener() = default;

    /**
     * A new event was scheduled. @p parentSeq is the seq of the event
     * executing right now, or kNoParent for roots. @p now is schedule
     * time, @p when the fire time (delta = when - now).
     */
    virtual void onSchedule(std::uint64_t seq, std::uint64_t parentSeq,
                            Tick when, Tick now,
                            const EventMeta &meta) = 0;

    /** Event @p seq is about to execute at tick @p when. Cancelled
     *  events never reach this. */
    virtual void onExecute(std::uint64_t seq, Tick when) = 0;
};

namespace detail {

/**
 * Slab-allocated free-list pool of event state, refcounted by one
 * EventQueue plus any outstanding EventHandles. The refcount goes
 * through locked RMWs only while a parallel engine is attached (par
 * below); serial runs keep the plain-increment cost.
 *
 * A slot's generation counter is bumped every time the slot is
 * released; a handle or heap entry is live iff its recorded generation
 * still matches. Slabs are never freed, so slot addresses are stable
 * and steady-state scheduling never allocates.
 */
struct EventPool
{
    static constexpr std::uint32_t kNone = 0xffffffffu;
    static constexpr std::uint32_t kSlabBits = 8;
    static constexpr std::uint32_t kSlabSlots = 1u << kSlabBits;

    struct Slot
    {
        EventFn fn;
        /** Liveness generation. Atomic only so stale handles on other
         *  worker threads may race their pending()/cancel() reads
         *  against the current owner's bump: gens are monotonic and
         *  window barriers order the owner's last bump before any slot
         *  reuse, so a relaxed read can never equal a stale handle's
         *  recorded gen. Writers are always exclusive (the executing
         *  owner), so bumps are plain load+store, never locked RMW. */
        std::atomic<std::uint64_t> gen{0};
        std::uint32_t nextFree = kNone;
        /** Typed record for checkpointing; Untagged for plain closures. */
        EventMeta meta;
        /** Schedule call site, recorded only for untagged events. */
        const char *siteFile = nullptr;
        std::uint32_t siteLine = 0;

        std::uint64_t
        genNow() const
        {
            return gen.load(std::memory_order_relaxed);
        }

        /** Exclusive-writer increment; compiles to mov/add, no lock. */
        void
        bumpGen()
        {
            gen.store(genNow() + 1, std::memory_order_relaxed);
        }
    };

    std::vector<std::unique_ptr<Slot[]>> slabs;
    std::uint32_t freeHead = kNone;
    /** Intrusive refcount: the owning queue plus live handles.
     *  Atomic because parallel-window workers create and drop handles
     *  concurrently; serial code keeps the plain-increment cost via
     *  the unlocked fast path in PoolRef (see acquire()/release()). */
    std::atomic<std::uint32_t> refs{0};
    /** Cleared by ~EventQueue; dangling handles check it first. */
    bool queueAlive = true;
    /** Set while a parallel engine drives the queue: release() then
     *  routes through per-worker free caches (see sim/parallel.hh). */
    sim::ParallelExec *par = nullptr;

    Slot &
    slot(std::uint32_t idx)
    {
        return slabs[idx >> kSlabBits][idx & (kSlabSlots - 1)];
    }

    const Slot &
    slot(std::uint32_t idx) const
    {
        return slabs[idx >> kSlabBits][idx & (kSlabSlots - 1)];
    }

    /** Pop a free slot, growing by one slab when exhausted. */
    std::uint32_t
    allocate()
    {
        if (freeHead == kNone)
            addSlab();
        const std::uint32_t idx = freeHead;
        freeHead = slot(idx).nextFree;
        return idx;
    }

    /** Destroy the slot's callback and invalidate all references. */
    void
    release(std::uint32_t idx)
    {
        if (par) [[unlikely]] {
            parallelRelease(idx);
            return;
        }
        Slot &s = slot(idx);
        s.fn.reset();
        s.bumpGen();
        s.nextFree = freeHead;
        freeHead = idx;
    }

    /** Parallel-mode release: free into the calling worker's cache. */
    void parallelRelease(std::uint32_t idx);

    void addSlab();
};

/**
 * Intrusive smart pointer to an EventPool. Dropping the last
 * reference deletes the pool; while no parallel engine is attached,
 * copies cost a plain increment, so handle creation on the
 * schedule() hot path stays a few instructions. Parallel windows
 * switch the count to locked RMWs because workers create and drop
 * handles concurrently.
 */
class PoolRef
{
  public:
    PoolRef() = default;

    explicit PoolRef(EventPool *p) : p_(p) { acquire(); }

    /**
     * Reference that does not touch the refcount: handles created on
     * parallel worker threads use this. Such handles are
     * machine-internal and never outlive the queue, so the pool's
     * lifetime is carried by the queue's own owning reference.
     */
    static PoolRef
    nonOwning(EventPool *p)
    {
        PoolRef r;
        r.p_ = p;
        r.owns_ = false;
        return r;
    }

    PoolRef(const PoolRef &o) : p_(o.p_), owns_(o.owns_) { acquire(); }

    PoolRef(PoolRef &&o) noexcept : p_(o.p_), owns_(o.owns_)
    {
        o.p_ = nullptr;
    }

    PoolRef &
    operator=(const PoolRef &o)
    {
        if (this != &o) {
            release();
            p_ = o.p_;
            owns_ = o.owns_;
            acquire();
        }
        return *this;
    }

    PoolRef &
    operator=(PoolRef &&o) noexcept
    {
        if (this != &o) {
            release();
            p_ = o.p_;
            owns_ = o.owns_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~PoolRef() { release(); }

    EventPool *get() const { return p_; }
    EventPool *operator->() const { return p_; }

  private:
    void
    acquire()
    {
        if (!p_ || !owns_)
            return;
        if (p_->par) [[unlikely]]
            p_->refs.fetch_add(1, std::memory_order_relaxed);
        else
            p_->refs.store(
                p_->refs.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    void
    release()
    {
        if (!p_ || !owns_)
            return;
        if (p_->par) [[unlikely]] {
            if (p_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
                delete p_;
            return;
        }
        const std::uint32_t left =
            p_->refs.load(std::memory_order_relaxed) - 1;
        p_->refs.store(left, std::memory_order_relaxed);
        if (left == 0)
            delete p_;
    }

    EventPool *p_ = nullptr;
    bool owns_ = true;
};

} // namespace detail

/**
 * Handle to a scheduled event. Copyable; copies refer to the same
 * event. Cancelling a dead handle is a no-op.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the event has neither fired nor been cancelled. */
    bool pending() const;

    /** Prevent the event from firing. Safe to call at any time. */
    void cancel();

  private:
    friend class EventQueue;
    friend class sim::ParallelExec;

    EventHandle(const detail::PoolRef &pool, std::uint32_t idx,
                std::uint64_t gen)
        : pool_(pool), idx_(idx), gen_(gen)
    {
    }

    detail::PoolRef pool_;
    std::uint32_t idx_ = 0;
    std::uint64_t gen_ = 0;
};

/**
 * The global event queue. One instance per simulated machine.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Current simulated time. Under a parallel engine this is the
     * `when` of the calling worker's current event (time advances
     * per-LP inside a window); elsewhere the global clock.
     */
    Tick
    now() const
    {
        if (par_) [[unlikely]]
            return parallelNow();
        return now_;
    }

    /**
     * Schedule @p fn to run at absolute time @p when, as an *untagged*
     * event. The call site is recorded so a checkpoint attempted while
     * the event is pending can name the offender — tag the site with
     * an EventMeta (overload below) to make it checkpointable.
     *
     * The callable is constructed directly inside a pooled event slot
     * (no temporary EventFn, no relocate) — together with the inline
     * definition this keeps the steady-state schedule path free of
     * allocation and indirect calls.
     *
     * @pre when >= now() — enforced: scheduling in the past is a
     *      simulator bug and panics (when == now() is allowed; the
     *      event runs after already-queued same-tick events).
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventHandle
    schedule(Tick when, F &&fn,
             std::source_location site = std::source_location::current())
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_->slot(idx);
        slot.fn = std::forward<F>(fn);
        slot.meta = EventMeta{};
        slot.siteFile = site.file_name();
        slot.siteLine = site.line();
        return pushEntry(when, idx, slot.genNow());
    }

    /**
     * Schedule a *typed* event: @p meta identifies the scheduling site
     * and payload, making the pending event serializable by src/ckpt/.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventHandle
    schedule(Tick when, EventMeta meta, F &&fn)
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_->slot(idx);
        slot.fn = std::forward<F>(fn);
        slot.meta = meta;
        slot.siteFile = nullptr;
        slot.siteLine = 0;
        return pushEntry(when, idx, slot.genNow());
    }

    /** Overload for an already-built EventFn (moved into the slot). */
    EventHandle
    schedule(Tick when, EventFn fn,
             std::source_location site = std::source_location::current())
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_->slot(idx);
        slot.fn = std::move(fn);
        slot.meta = EventMeta{};
        slot.siteFile = site.file_name();
        slot.siteLine = site.line();
        return pushEntry(when, idx, slot.genNow());
    }

    /** Schedule @p fn to run @p delay ticks from now (untagged). */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&fn,
               std::source_location site = std::source_location::current())
    {
        return schedule(now() + delay, std::forward<F>(fn), site);
    }

    /** Schedule a typed event @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, EventMeta meta, F &&fn)
    {
        return schedule(now() + delay, meta, std::forward<F>(fn));
    }

    /** Run until the queue is empty. Returns final time. */
    Tick run();

    /**
     * Run until the queue is empty or time would exceed @p limit.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool runUntil(Tick limit);

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** True if no live events remain. */
    bool empty() const;

    /**
     * Pop and run the next live event.
     * @return false if no live event remained
     */
    bool processOne() { return step(); }

    /**
     * Enable seeded random ordering among same-tick *future* events
     * (see the file comment). Call before scheduling; same seed gives
     * the same schedule, so perturbed runs stay replayable.
     */
    void setTieBreak(std::uint64_t seed);

    /** True once setTieBreak() armed the perturbation RNG (the
     *  parallel engine must then gate schedule() calls live). */
    bool tieBreakEnabled() const { return tieBreak_; }

    /** Observer notified after every executed event; may be null. */
    void setAuditHooks(check::Hooks *hooks) { hooks_ = hooks; }

    /**
     * Attach the dependency-tree observer (at most one; null detaches).
     * Incompatible with the parallel window engine: the machine falls
     * back to the serial kernel while a listener is attached.
     */
    void setDepListener(DepListener *dep) { dep_ = dep; }

    /** The attached dependency listener, or null. */
    DepListener *depListener() const { return dep_; }

    /**
     * Snapshot view of one live pending event (checkpoint capture).
     * `siteFile` is non-null only for untagged events.
     */
    struct PendingEvent
    {
        Tick when = 0;
        std::uint64_t pri = 0;
        std::uint64_t seq = 0;
        EventMeta meta;
        const char *siteFile = nullptr;
        std::uint32_t siteLine = 0;
    };

    /**
     * Invoke @p fn on every live (scheduled, uncancelled) event, in no
     * particular order; sort by `seq` for a canonical listing. Cheap
     * linear scan — checkpoint-path only, never on the hot path.
     */
    template <typename Fn>
    void
    forEachPending(Fn fn) const
    {
        heap_.forEach([&](const Entry &e) {
            const detail::EventPool::Slot &s = pool_->slot(e.idx);
            if (s.genNow() != e.gen)
                return; // cancelled
            fn(PendingEvent{e.when, e.pri, e.seq, s.meta, s.siteFile,
                            s.siteLine});
        });
    }

    /**
     * Time of the next live event without executing it, or nullopt if
     * the queue is drained. Discards dead entries encountered on the
     * way (like runUntil), so it may mutate internal bookkeeping but
     * never observable simulation state.
     */
    std::optional<Tick> peekNextTick();

  private:
    /** Checkpoint capture/verify reads private kernel state. */
    friend class alewife::ckpt::Access;
    /** The parallel window engine drives the heap/pool directly. */
    friend class sim::ParallelExec;

    /** Queue entry: trivially copyable, moves are plain word copies. */
    struct Entry
    {
        Tick when;
        std::uint64_t pri; ///< tie-break priority; 0 when unperturbed
        std::uint64_t seq;
        std::uint64_t gen;
        std::uint32_t idx;
    };

    /** Pop and run the next live event; returns false if none. */
    bool step();

    /** Past-scheduling precondition check + slot allocation. */
    std::uint32_t
    allocateChecked(Tick when)
    {
        if (par_) [[unlikely]]
            return parallelAllocate(when);
        if (when < now_) [[unlikely]]
            panicScheduledPast(when);
        return pool_->allocate();
    }

    /** Heap insertion + handle construction shared by schedule(). */
    EventHandle
    pushEntry(Tick when, std::uint32_t idx, std::uint64_t gen)
    {
        if (par_) [[unlikely]]
            return parallelPush(when, idx, gen);
        return pushEntrySerial(when, idx, gen);
    }

    EventHandle
    pushEntrySerial(Tick when, std::uint32_t idx, std::uint64_t gen)
    {
        // Same-tick events scheduled at now() keep FIFO order (they
        // must run after already-queued same-tick events), so only
        // future events get a random priority.
        std::uint64_t pri = 0;
        if (tieBreak_)
            pri = (when == now_)
                      ? std::numeric_limits<std::uint64_t>::max()
                      : rng_.next();
        const std::uint64_t seq = seq_++;
        if (dep_) [[unlikely]]
            dep_->onSchedule(seq, curExec_, when, now_,
                             pool_->slot(idx).meta);
        heap_.push(Entry{when, pri, seq, gen, idx});
        return EventHandle(pool_, idx, gen);
    }

    // Parallel-engine reroutes of the hot-path primitives, out of line
    // so this header does not depend on sim/parallel.hh. Only taken
    // while a ParallelExec is attached (par_ != nullptr).
    Tick parallelNow() const;
    std::uint32_t parallelAllocate(Tick when);
    EventHandle parallelPush(Tick when, std::uint32_t idx,
                             std::uint64_t gen);

    [[noreturn]] void panicScheduledPast(Tick when) const;

    /** True if @p e still refers to a scheduled, uncancelled event. */
    bool
    entryLive(const Entry &e) const
    {
        return pool_->slot(e.idx).genNow() == e.gen;
    }

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool tieBreak_ = false;
    Rng rng_{0};
    check::Hooks *hooks_ = nullptr;
    /** Dependency-tree observer, or null (the common case). */
    DepListener *dep_ = nullptr;
    /** Seq of the event whose callback is executing (parent of any
     *  event scheduled from inside it); kNoParent between events. */
    std::uint64_t curExec_ = DepListener::kNoParent;
    /** Attached parallel window engine, or null (serial operation). */
    sim::ParallelExec *par_ = nullptr;
    detail::PoolRef pool_;
    sim::RadixQueue<Entry> heap_;
};

} // namespace alewife

#endif // ALEWIFE_SIM_EVENT_QUEUE_HH
