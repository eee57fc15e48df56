#include "machine/machine.hh"

#include <atomic>
#include <sstream>

#include "check/hooks.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace alewife {

Machine::Node::Node(NodeId id, Machine &m)
    : proc(id, m.eq_, m.cfg_),
      cache(m.cfg_.cacheBytes, m.cfg_.lineBytes),
      pfb(m.cfg_.prefetchBufferEntries)
{
    // Every component of this node counts into the node's own shard;
    // machine-wide totals are summed on demand by counters().
    MachineCounters &shard = m.shards_[static_cast<std::size_t>(id)].c;
    coh = std::make_unique<coh::CoherenceController>(
        id, m.eq_, m.cfg_, *m.mem_, cache, pfb, proc, *m.mesh_, shard);
    ni = std::make_unique<msg::NetIface>(id, m.eq_, m.cfg_, proc, *m.mesh_,
                                         m.handlers_, shard);
    ctx = std::make_unique<proc::Ctx>(id, m.cfg_.nodes(), m.cfg_, proc,
                                      *coh, *ni, *m.sync_, shard);
}

Machine::Machine(MachineConfig cfg, proc::SyncStyle style,
                 msg::RecvMode mode)
    : cfg_(std::move(cfg))
{
    cfg_.validate();
    shards_.resize(static_cast<std::size_t>(cfg_.nodes()));
    mesh_ = std::make_unique<net::Mesh>(eq_, cfg_);
    mem_ = std::make_unique<mem::AddressSpace>(cfg_.nodes(),
                                               cfg_.lineBytes);
    sync_ = std::make_unique<proc::SyncSystem>(cfg_.nodes(), style);

    if (style == proc::SyncStyle::SharedMemory)
        sync_->setupSharedMemory(*mem_);
    else
        sync_->setupMessagePassing(handlers_);

    nodes_.reserve(cfg_.nodes());
    for (int i = 0; i < cfg_.nodes(); ++i) {
        nodes_.push_back(std::make_unique<Node>(i, *this));
        nodes_.back()->ni->setMode(mode);
    }

    mesh_->setSink([this](net::Packet &p) { return deliver(p); });
}

bool
Machine::deliver(net::Packet &pkt)
{
    Node &n = *nodes_[static_cast<std::size_t>(pkt.dst)];
    switch (pkt.kind) {
      case net::PacketKind::Coherence:
        n.coh->receive(pkt);
        return true;
      case net::PacketKind::ActiveMessage:
        return n.ni->receive(pkt);
      case net::PacketKind::CrossTraffic:
        return true; // drains off the mesh edge
    }
    ALEWIFE_PANIC("bad packet kind");
}

Machine::~Machine() = default;

MachineCounters
Machine::countersAggregate() const
{
    MachineCounters total;
    for (const CounterShard &s : shards_)
        total += s.c;
    // The mesh counts every packet itself (cross-traffic included).
    total.packetsInjected = mesh_->packetsInjected();
    total.packetsDelivered = mesh_->packetsDelivered();
    return total;
}

MachineCounters &
Machine::counters()
{
    counters_ = countersAggregate();
    return counters_;
}

void
Machine::setThreads(int threads)
{
    if (threads < 1)
        ALEWIFE_FATAL("Machine::setThreads: threads must be >= 1, got ",
                      threads);
    threads_ = threads;
}

bool
Machine::parallelEligible() const
{
    if (threads_ < 2 || cfg_.nodes() < 2)
        return false;
    if (mesh_->crossLookahead() == 0)
        return false;
    if (Trace::anyEnabled())
        return false;
    // The dependency recorder consumes the serial kernel's seq/parent
    // stream; the window engine re-assigns sequence numbers at commit.
    if (eq_.depListener())
        return false;
    for (check::Hooks *h : hookObs_) {
        if (!h->parallelCapable())
            return false;
    }
    return true;
}

int
Machine::eventLp(const EventMeta &meta) const
{
    switch (meta.tag) {
      case EventTag::MeshDeliver:
      case EventTag::MeshDeliverIdeal:
      case EventTag::MeshRetry:
        // Delivery runs the destination's sink (NI queue, controller,
        // handler); rejects re-enter gated mesh state explicitly.
        return reinterpret_cast<const net::Packet *>(meta.a)->dst;
      case EventTag::CohPacketLaunch:
      case EventTag::AmPacketLaunch:
        // The deferred mesh_.send itself is fully gated; the event
        // belongs to the sending node's timeline.
        return reinterpret_cast<const net::Packet *>(meta.a)->src;
      case EventTag::CrossTrafficTick:
        return cfg_.nodes(); // the injector LP
      case EventTag::ProcResume:
      case EventTag::CohLocalDeliver:
      case EventTag::CohProcess:
      case EventTag::CohFill:
      case EventTag::CohHomeDrain:
      case EventTag::CohHomeComplete:
      case EventTag::AmDrain:
        return static_cast<int>(meta.a);
      case EventTag::Untagged:
      case EventTag::kCount:
        break;
    }
    return -1;
}

void
Machine::attachHooks(check::Hooks *hooks)
{
    hookObs_.push_back(hooks);
    check::Hooks *effective = hookObs_.front();
    if (hookObs_.size() > 1) {
        if (!hookFanout_)
            hookFanout_ = std::make_unique<check::HookFanout>();
        hookFanout_->clear();
        for (check::Hooks *h : hookObs_)
            hookFanout_->add(h);
        effective = hookFanout_.get();
    }
    wireHooks(effective);
}

void
Machine::wireHooks(check::Hooks *h)
{
    eq_.setAuditHooks(h);
    mesh_->setAuditHooks(h);
    for (int i = 0; i < nodes(); ++i) {
        cacheAt(i).setAuditHooks(h, i);
        pfbAt(i).setAuditHooks(h, i);
        cohAt(i).setAuditHooks(h);
        procAt(i).setAuditHooks(h);
    }
}

void
Machine::addCrossTraffic(net::CrossTrafficConfig cfg)
{
    cross_ = std::make_unique<net::CrossTraffic>(eq_, *mesh_, cfg);
}

void
Machine::setPerturbation(const check::PerturbConfig &p)
{
    if (p.tieBreak)
        eq_.setTieBreak(p.seed);
    if (p.hopJitterFrac > 0.0)
        mesh_->setHopJitter(p.hopJitterFrac,
                            p.seed ^ 0x9e3779b97f4a7c15ULL);
}

bool
Machine::allDone() const
{
    for (const auto &n : nodes_) {
        if (!n->proc.done())
            return false;
    }
    return true;
}

void
Machine::start(const ProgramFactory &f)
{
    parWindows_ = 0;
    parStopTick_ = 0;
    for (auto &n : nodes_)
        n->proc.start(f(*n->ctx));
    if (cross_)
        cross_->start();
}

void
Machine::panicDeadlock() const
{
    std::ostringstream os;
    for (const auto &n : nodes_) {
        if (!n->proc.done()) {
            os << " node " << n->proc.id() << " state "
               << static_cast<int>(n->proc.state());
        }
    }
    os << "\n";
    for (const auto &n : nodes_)
        n->coh->debugDump(os);
    ALEWIFE_PANIC("simulation deadlock at tick ", eq_.now(), ":",
                  os.str());
}

bool
Machine::stepOne(Tick limit)
{
    if (allDone())
        return false;
    if (!eq_.processOne())
        panicDeadlock();
    if (eq_.now() > limit)
        ALEWIFE_PANIC("simulation exceeded tick limit ", limit);
    return true;
}

bool
Machine::stepUntilEvents(std::uint64_t events, Tick limit)
{
    while (eq_.eventsExecuted() < events) {
        if (!stepOne(limit))
            return false;
    }
    return eq_.eventsExecuted() == events;
}

Tick
Machine::finishRun()
{
    if (cross_)
        cross_->stop();

    // Quiesce: let in-flight protocol traffic (victim writebacks, final
    // acks) land so post-run verification sees settled state. Bounded in
    // case stray NI retries linger in polling mode. A parallel run's
    // final window may have advanced the clock a few ticks past the
    // point where the serial loop stops, so the drain is bounded from
    // the serial-order stop tick — the drained event set (and thus
    // every counter) is identical across engines.
    const Tick stop = parStopTick_ ? parStopTick_ : eq_.now();
    eq_.runUntil(stop + cyclesToTicks(std::uint64_t(200'000)));

    finishTick_ = 0;
    for (const auto &n : nodes_)
        finishTick_ = std::max(finishTick_, n->proc.localNow());
    return finishTick_;
}

void
Machine::runParallelLoop(Tick limit)
{
    const int n = cfg_.nodes();

    // Program-completion records: for node i, the exec record of the
    // event that flipped proc(i).done() — set by the owning worker,
    // read (under the gate) by the cross-traffic stop predicate.
    // Records from committed windows are frozen to a sentinel that
    // precedes every later event, since their arena storage dies at
    // the next plan().
    static constexpr sim::ExecRecord kDoneEarlier{};
    std::vector<std::atomic<const sim::ExecRecord *>> done(
        static_cast<std::size_t>(n));

    sim::ParallelOptions opts;
    opts.threads = threads_;
    opts.lookahead = mesh_->crossLookahead();
    opts.lps = n + 1;
    opts.classify = [this](const EventMeta &meta) {
        return eventLp(meta);
    };
    opts.onRetired = [this, &done, n](int lp,
                                      const sim::ExecRecord *rec) {
        if (lp >= n)
            return;
        if (!nodes_[static_cast<std::size_t>(lp)]->proc.done())
            return;
        // Keep the FIRST record at which done() held: the slot has a
        // single writer (the owning worker), so check-then-store races
        // with nothing.
        auto &slot = done[static_cast<std::size_t>(lp)];
        if (!slot.load(std::memory_order_relaxed))
            slot.store(rec, std::memory_order_release);
    };
    check::Hooks *effective = nullptr;
    if (hookFanout_)
        effective = hookFanout_.get();
    else if (!hookObs_.empty())
        effective = hookObs_.front();
    opts.hooks = effective;
    opts.gatedLive = eq_.tieBreakEnabled();

    sim::ParallelExec exec(eq_, std::move(opts));
    mesh_->setOrderGate(&exec);
    if (cross_) {
        cross_->setQuiescedCheck([&exec, &done, n]() -> bool {
            // Serial semantics: a tick is a no-op iff every program
            // completed strictly before it in serial event order. The
            // gate retires all earlier events first, so every done
            // record this tick could depend on is published.
            exec.gateWait();
            const sim::ExecRecord *cur = sim::currentExecRecord();
            for (int i = 0; i < n; ++i) {
                const sim::ExecRecord *r =
                    done[static_cast<std::size_t>(i)].load(
                        std::memory_order_acquire);
                if (!r || (cur && !sim::execOrderLess(r, cur)))
                    return false;
            }
            return true;
        });
    }
    if (hookFanout_)
        hookFanout_->setOwnerCheck(
            [&exec](NodeId node) { exec.assertOwner(node); });

    while (!allDone()) {
        if (!exec.runWindow())
            panicDeadlock();
        if (eq_.now() > limit)
            ALEWIFE_PANIC("simulation exceeded tick limit ", limit);
        if (allDone()) {
            // The serial loop stops at the event that completed the
            // last program; record its tick for finishRun()'s drain
            // bound before the records are frozen.
            const sim::ExecRecord *last = nullptr;
            for (int i = 0; i < n; ++i) {
                const sim::ExecRecord *r =
                    done[static_cast<std::size_t>(i)].load(
                        std::memory_order_relaxed);
                if (r && r != &kDoneEarlier
                    && (!last || sim::execOrderLess(last, r)))
                    last = r;
            }
            parStopTick_ = last ? last->when : eq_.now();
            break;
        }
        for (int i = 0; i < n; ++i) {
            auto &slot = done[static_cast<std::size_t>(i)];
            const sim::ExecRecord *r =
                slot.load(std::memory_order_relaxed);
            if (r && r != &kDoneEarlier)
                slot.store(&kDoneEarlier, std::memory_order_release);
        }
    }

    parWindows_ = exec.windows();
    if (hookFanout_)
        hookFanout_->setOwnerCheck({});
    if (cross_)
        cross_->setQuiescedCheck({});
    mesh_->setOrderGate(nullptr);
    exec.detach();
}

Tick
Machine::run(const ProgramFactory &f, Tick limit)
{
    start(f);
    if (parallelEligible()) {
        runParallelLoop(limit);
    } else {
        while (stepOne(limit)) {
        }
    }
    return finishRun();
}

std::uint64_t
Machine::debugWord(Addr a)
{
    const Addr line = a & ~static_cast<Addr>(cfg_.lineBytes - 1);
    const NodeId home = mem_->home(a);
    const NodeId owner = nodes_[home]->coh->dirOwner(line);
    if (owner >= 0) {
        std::uint64_t v = 0;
        if (nodes_[owner]->coh->debugLocalWord(a, v))
            return v;
        // Owner's copy is in flight back to memory; fall through.
    }
    return mem_->loadWord(a);
}

double
Machine::debugDouble(Addr a)
{
    return std::bit_cast<double>(debugWord(a));
}

TimeBreakdown
Machine::breakdownSum() const
{
    TimeBreakdown sum;
    for (const auto &n : nodes_)
        sum += n->proc.breakdown();
    return sum;
}

} // namespace alewife
