#include "obs/recorder.hh"

#include <fstream>
#include <utility>

#include "machine/machine.hh"
#include "net/packet.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace alewife::obs {

namespace {

/** Shared log-ish bucket ladder for latency histograms, in cycles. */
std::vector<double>
cycleBuckets()
{
    return {1,   2,   5,    10,   20,   50,   100,
            200, 500, 1000, 2000, 5000, 10000};
}

} // namespace

std::string
withPathTag(const std::string &path, const std::string &tag)
{
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos
        || (slash != std::string::npos && dot < slash))
        return path + "-" + tag;
    return path.substr(0, dot) + "-" + tag + path.substr(dot);
}

Recorder::Recorder(RecorderOptions opts, int nodes)
    : opts_(std::move(opts)), nodes_(nodes), metrics_(nodes)
{
    traceOn_ = !opts_.traceOut.empty();
    if (opts_.flightEvents > 0)
        flight_.emplace(opts_.flightEvents);
    intervalTicks_ = cyclesToTicks(opts_.intervalCycles);
    nextSample_ = intervalTicks_;

    // Fixed metric set, registered in one deterministic order so the
    // exported key order is stable run to run.
    cPktInjected_ = metrics_.counterId("net.packets_injected");
    cPktDelivered_ = metrics_.counterId("net.packets_delivered");
    cHops_ = metrics_.counterId("net.hops");
    cProtoSends_ = metrics_.counterId("coh.proto_sends");
    cCacheFills_ = metrics_.counterId("mem.cache_fills");
    cInvalidations_ = metrics_.counterId("mem.invalidations");

    hRemoteMiss_ =
        metrics_.histogramId("remote_miss_cycles", cycleBuckets());
    hLocalMiss_ =
        metrics_.histogramId("local_miss_cycles", cycleBuckets());
    hPktTransit_ =
        metrics_.histogramId("packet_transit_cycles", cycleBuckets());
    hLinkWait_ = metrics_.histogramId("link_wait_cycles", cycleBuckets());
    hHandlerRun_ =
        metrics_.histogramId("handler_run_cycles", cycleBuckets());
    hBarrierWait_ =
        metrics_.histogramId("barrier_wait_cycles", cycleBuckets());
    hTxn_ = metrics_.histogramId("coh_txn_cycles", cycleBuckets());
}

void
Recorder::attach(Machine &m)
{
    machine_ = &m;
    eq_ = &m.eq();
    m.attachHooks(this);

    if (traceOn_) {
        for (int i = 0; i < nodes_; ++i) {
            trace_.processName(i, "node " + std::to_string(i));
            trace_.threadName(i, 0, "phases");
            trace_.threadName(i, 1, "handlers");
            trace_.threadName(i, 2, "sync");
            trace_.threadName(i, 3, "mesh");
        }
        trace_.processName(nodes_, "machine");
    }
}

Tick
Recorder::tick() const
{
    return eq_ ? eq_->now() : lastTick_;
}

// ---------------------------------------------------------------------
// Hooks
// ---------------------------------------------------------------------

void
Recorder::onEventExecuted(Tick now)
{
    lastTick_ = now;
    if (intervalTicks_ == 0 || machine_ == nullptr)
        return;
    while (now >= nextSample_) {
        takeSample(nextSample_);
        nextSample_ += intervalTicks_;
    }
}

void
Recorder::takeSample(Tick at)
{
    Sample s;
    s.tick = at;
    const TimeBreakdown bd = machine_->breakdownSum();
    s.breakdown = bd.ticks;
    s.volumeBytes = machine_->volume().total();
    s.events = machine_->eq().eventsExecuted();
    samples_.push_back(s);

    if (traceOn_) {
        // One counter track per Figure-4 category on the machine pid.
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(TimeCat::NumCats); ++c) {
            trace_.counter(nodes_,
                           timeCatName(static_cast<TimeCat>(c)),
                           "cycles", at,
                           ticksToCycles(s.breakdown[c]));
        }
        trace_.counter(nodes_, "net-volume", "bytes", at,
                       static_cast<double>(s.volumeBytes));
    }
}

void
Recorder::onPacketInjected(const net::Packet &pkt)
{
    const NodeId n = pkt.src >= 0 && pkt.src < nodes_ ? pkt.src : 0;
    metrics_.addCounter(cPktInjected_, n);
    injectTick_[pkt.id] = tick();
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::PacketInjected, n,
                      pkt.id, static_cast<std::uint64_t>(pkt.dst));
}

void
Recorder::onPacketDelivered(const net::Packet &pkt)
{
    const NodeId n = pkt.dst >= 0 && pkt.dst < nodes_ ? pkt.dst : 0;
    metrics_.addCounter(cPktDelivered_, n);
    const auto it = injectTick_.find(pkt.id);
    if (it != injectTick_.end()) {
        const Tick start = it->second;
        const Tick end = tick();
        metrics_.observe(hPktTransit_, n,
                         ticksToCycles(end - start));
        if (traceOn_) {
            // Emitted as a matched pair only now that the end is
            // known, so every "b" in the file has its "e".
            trace_.asyncPair(pkt.src >= 0 ? pkt.src : 0, "pkt", "net",
                             pkt.id, start, end);
        }
        injectTick_.erase(it);
    }
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::PacketDelivered, n,
                      pkt.id, static_cast<std::uint64_t>(pkt.src));
}

void
Recorder::onHop(const net::Packet &pkt, int link, Tick depart,
                Tick waited)
{
    const NodeId n = pkt.src >= 0 && pkt.src < nodes_ ? pkt.src : 0;
    metrics_.addCounter(cHops_, n);
    metrics_.observe(hLinkWait_, n, ticksToCycles(waited));
    if (traceOn_) {
        trace_.instant(link / 4, 3, "hop", "net", depart,
                       "waited_cycles", ticksToCycles(waited));
    }
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::Hop, n, pkt.id,
                      static_cast<std::uint64_t>(link));
}

void
Recorder::onProcSpan(NodeId node, TimeCat cat, Tick start, Tick end)
{
    if (traceOn_)
        trace_.complete(node, 0, timeCatName(cat), "proc", start, end);
    if (flight_)
        flight_->push(end, FlightRecorder::Kind::ProcSpan, node,
                      static_cast<std::uint64_t>(cat), end - start);
}

void
Recorder::onHandlerRun(NodeId node, Tick start, Tick end)
{
    metrics_.observe(hHandlerRun_, node, ticksToCycles(end - start));
    if (traceOn_)
        trace_.complete(node, 1, "handler", "proc", start, end);
    if (flight_)
        flight_->push(end, FlightRecorder::Kind::HandlerRun, node,
                      end - start);
}

void
Recorder::onBarrierEpisode(NodeId node, Tick start, Tick end)
{
    metrics_.observe(hBarrierWait_, node, ticksToCycles(end - start));
    if (traceOn_)
        trace_.complete(node, 2, "barrier", "sync", start, end);
    if (flight_)
        flight_->push(end, FlightRecorder::Kind::BarrierEpisode, node,
                      end - start);
}

void
Recorder::onCacheFill(NodeId node, Addr line, mem::LineState,
                      const mem::LineWords &)
{
    metrics_.addCounter(cCacheFills_, node);
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::CacheFill, node,
                      line);
}

void
Recorder::onCacheInvalidate(NodeId node, Addr line, bool wasModified)
{
    metrics_.addCounter(cInvalidations_, node);
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::CacheInvalidate,
                      node, line, wasModified ? 1 : 0);
}

void
Recorder::onProtoSend(NodeId src, NodeId dst, const coh::ProtoMsg &)
{
    metrics_.addCounter(cProtoSends_, src);
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::ProtoSend, src,
                      static_cast<std::uint64_t>(dst));
}

void
Recorder::onMshrOpen(NodeId node, Addr line, bool exclusive)
{
    mshrOpen_[key(node, line)] = tick();
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::MshrOpen, node,
                      line, exclusive ? 1 : 0);
}

void
Recorder::onFill(NodeId node, Addr line, bool exclusive)
{
    const auto it = mshrOpen_.find(key(node, line));
    if (it != mshrOpen_.end()) {
        const double cyc = ticksToCycles(tick() - it->second);
        const bool remote =
            machine_ != nullptr && machine_->mem().home(line) != node;
        metrics_.observe(remote ? hRemoteMiss_ : hLocalMiss_, node,
                         cyc);
        mshrOpen_.erase(it);
    }
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::Fill, node, line,
                      exclusive ? 1 : 0);
}

void
Recorder::onTxnOpen(NodeId home, Addr line, const coh::DirTxn &)
{
    txnOpen_[key(home, line)] = tick();
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::TxnOpen, home,
                      line);
}

void
Recorder::onTxnClose(NodeId home, Addr line)
{
    const auto it = txnOpen_.find(key(home, line));
    if (it != txnOpen_.end()) {
        const Tick start = it->second;
        const Tick end = tick();
        metrics_.observe(hTxn_, home, ticksToCycles(end - start));
        if (traceOn_)
            trace_.asyncPair(home, "txn", "coh", line, start, end);
        txnOpen_.erase(it);
    }
    if (flight_)
        flight_->push(tick(), FlightRecorder::Kind::TxnClose, home,
                      line);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
Recorder::dumpFlight(const std::string &pathHint)
{
    if (!flight_)
        return "";
    std::string path = pathHint;
    if (path.empty())
        path = opts_.flightOut;
    if (path.empty())
        path = "alewife-flight.dump";
    flight_->dumpToFile(path);
    return path;
}

void
Recorder::finalize()
{
    if (machine_ != nullptr) {
        // Push out the tail coalesced span of every processor so the
        // timeline covers the full run.
        for (int i = 0; i < nodes_; ++i)
            machine_->procAt(i).flushSpans();

        metrics_.ingest(machine_->counters());
        metrics_.setGauge("mesh.bisection_utilization",
                          machine_->mesh().bisectionUtilization());
        metrics_.setGauge("mesh.bisection_bytes",
                          static_cast<double>(
                              machine_->mesh().bisectionBytes()));
        metrics_.setGauge("mesh.ni_rejects",
                          static_cast<double>(
                              machine_->mesh().niRejects()));
        metrics_.setGauge("sim.events",
                          static_cast<double>(
                              machine_->eq().eventsExecuted()));
        metrics_.setGauge("sim.finish_cycles",
                          ticksToCycles(machine_->eq().now()));
    }

    if (!opts_.metricsOut.empty()) {
        exp::Json j = metrics_.toJson();

        if (machine_ != nullptr) {
            const Tick now = machine_->eq().now();
            exp::Json links = exp::Json::array();
            for (const auto &l : machine_->mesh().linkStats()) {
                exp::Json lj = exp::Json::object();
                lj.set("busyTicks", l.busyTicks);
                lj.set("bytes", l.bytes);
                lj.set("utilization",
                       now > 0 ? static_cast<double>(l.busyTicks)
                                     / static_cast<double>(now)
                               : 0.0);
                links.push(std::move(lj));
            }
            j.set("links", std::move(links));
        }

        exp::Json ivs = exp::Json::array();
        for (const auto &s : samples_) {
            exp::Json sj = exp::Json::object();
            sj.set("cycle", ticksToCycles(s.tick));
            exp::Json bd = exp::Json::object();
            for (std::size_t c = 0; c < s.breakdown.size(); ++c)
                bd.set(timeCatName(static_cast<TimeCat>(c)),
                       ticksToCycles(s.breakdown[c]));
            sj.set("breakdownCycles", std::move(bd));
            sj.set("volumeBytes", s.volumeBytes);
            sj.set("events", s.events);
            ivs.push(std::move(sj));
        }
        j.set("intervals", std::move(ivs));

        std::ofstream os(opts_.metricsOut);
        if (!os)
            ALEWIFE_FATAL("metrics-out: cannot open ",
                          opts_.metricsOut);
        os << j.dump(1) << "\n";
        ALEWIFE_TRACE_EVENT(TraceCat::Obs, tick(), "metrics -> ",
                            opts_.metricsOut);
    }

    if (traceOn_) {
        trace_.writeFile(opts_.traceOut);
        ALEWIFE_TRACE_EVENT(TraceCat::Obs, tick(), "trace -> ",
                            opts_.traceOut, " (", trace_.events(),
                            " events)");
    }
}

} // namespace alewife::obs
