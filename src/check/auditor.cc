#include "check/auditor.hh"

#include <sstream>

#include "machine/machine.hh"
#include "sim/logging.hh"

namespace alewife::check {

namespace {

/** Messages whose presence in flight keeps a recall transaction live. */
constexpr coh::MsgType kRecallFlight[] = {
    coh::MsgType::Recall,   coh::MsgType::RecallX,
    coh::MsgType::FwdGetS,  coh::MsgType::FwdGetX,
    coh::MsgType::WbData,   coh::MsgType::WbEvict,
    coh::MsgType::RecallNoData, coh::MsgType::FwdAck,
};

} // namespace

void
InvariantAuditor::attach(Machine &m)
{
    machine_ = &m;
    m.attachHooks(this);
}

void
InvariantAuditor::record(const char *invariant, std::string detail)
{
    const Tick now = machine_ ? machine_->eq().now() : 0;
    Violation v{invariant, now, std::move(detail)};
    // Notify before any abort so forensic sinks (the obs flight
    // recorder) get to dump their window around the failure.
    if (onViolation_)
        onViolation_(v);
    if (opts_.abortOnViolation) {
        ALEWIFE_PANIC("invariant violated: ", invariant, " at tick ", now,
                      ": ", v.detail);
    }
    if (viols_.size() < opts_.maxViolations)
        viols_.push_back(std::move(v));
}

InvariantAuditor::LineState &
InvariantAuditor::ls(Addr line)
{
    return lines_[line];
}

void
InvariantAuditor::touch(Addr line)
{
    touchedThisEvent_.insert(line);
    everTouched_.insert(line);
}

bool
InvariantAuditor::tainted(NodeId node, Addr line) const
{
    return taints_.count(taintKey(node, line)) != 0;
}

// ---------------------------------------------------------------------
// Event boundary: audit everything the event touched
// ---------------------------------------------------------------------

void
InvariantAuditor::onEventExecuted(Tick now)
{
    if (now < lastEventTick_) {
        std::ostringstream os;
        os << "event at tick " << now << " after tick " << lastEventTick_;
        record("event-monotonicity", os.str());
    }
    lastEventTick_ = now;

    if (invProcessed_ != invAcksSent_ && !invAckMismatchReported_) {
        invAckMismatchReported_ = true;
        std::ostringstream os;
        os << invProcessed_ << " Inv processed but " << invAcksSent_
           << " InvAck sent";
        record("inv-ack-conservation", os.str());
    } else if (invProcessed_ == invAcksSent_) {
        invAckMismatchReported_ = false;
    }

    for (Addr line : touchedThisEvent_)
        auditLine(line);
    touchedThisEvent_.clear();
}

void
InvariantAuditor::auditLine(Addr line)
{
    LineState &s = ls(line);
    const int n = machine_->nodes();

    // modified-single-owner: at most one Modified copy machine-wide, and
    // never a Modified buffer entry alongside a cache copy (a recall
    // could miss the cache copy).
    int mCount = 0;
    NodeId firstM = -1;
    for (int i = 0; i < n; ++i) {
        const auto cs = machine_->cacheAt(i).state(line);
        const auto *pe = machine_->pfbAt(i).find(line);
        if (cs == mem::LineState::Modified) {
            ++mCount;
            if (firstM < 0)
                firstM = i;
        }
        if (pe && pe->st == mem::LineState::Modified) {
            ++mCount;
            if (firstM < 0)
                firstM = i;
            if (cs) {
                std::ostringstream os;
                os << "node " << i << " holds line " << line
                   << " Modified in the prefetch buffer and also cached";
                record("modified-single-owner", os.str());
            }
        }
    }
    if (mCount > 1) {
        std::ostringstream os;
        os << mCount << " Modified copies of line " << line
           << " (first at node " << firstM << ")";
        record("modified-single-owner", os.str());
    }

    const NodeId home = machine_->mem().home(line);
    const coh::DirEntry *e =
        machine_->cohAt(home).debugDir().find(line);

    if (e && e->busy()) {
        const coh::DirTxn &txn = *e->txn;
        if (txn.request == coh::MsgType::GetX && s.acksExpected > 0
            && !txn.waitingRecall) {
            const int want = s.acksExpected - s.acksProcessed;
            if (txn.pendingAcks != want) {
                std::ostringstream os;
                os << "line " << line << " pendingAcks "
                   << txn.pendingAcks << " but " << s.acksExpected
                   << " Inv sent and " << s.acksProcessed
                   << " InvAck processed";
                record("txn-ack-bookkeeping", os.str());
            }
        }
        if (txn.waitingRecall) {
            std::int64_t flight = s.stashCount;
            for (coh::MsgType t : kRecallFlight)
                flight += s.inflight[idx(t)];
            if (flight <= 0) {
                std::ostringstream os;
                os << "line " << line
                   << " txn waits on a recall but no recall/forward/"
                      "writeback is in flight or stashed";
                record("recall-liveness", os.str());
            }
        }
    }

    if (quiescent(line, s))
        checkAgreement(line, "event");
}

bool
InvariantAuditor::quiescent(Addr line, const LineState &s) const
{
    for (std::size_t t = 0; t < kNumMsgTypes; ++t) {
        if (s.inflight[t] != 0)
            return false;
    }
    if (s.stashCount != 0)
        return false;
    if (mshrs_.count(line))
        return false;
    const NodeId home = machine_->mem().home(line);
    const coh::DirEntry *e =
        machine_->cohAt(home).debugDir().find(line);
    if (e && (e->busy() || !e->queueEmpty()))
        return false;
    return true;
}

void
InvariantAuditor::checkAgreement(Addr line, const char *when)
{
    const NodeId home = machine_->mem().home(line);
    const coh::DirEntry *e =
        machine_->cohAt(home).debugDir().find(line);
    const coh::DirState dst = e ? e->state : coh::DirState::Uncached;
    const int n = machine_->nodes();

    for (int i = 0; i < n; ++i) {
        const auto cs = machine_->cacheAt(i).state(line);
        const auto *pe = machine_->pfbAt(i).find(line);
        const bool holds = cs.has_value() || pe != nullptr;
        const bool holdsM =
            cs == mem::LineState::Modified
            || (pe && pe->st == mem::LineState::Modified);

        switch (dst) {
          case coh::DirState::Uncached:
            if (holds) {
                std::ostringstream os;
                os << when << ": node " << i << " holds line " << line
                   << " the home thinks Uncached";
                record("dir-cache-agreement", os.str());
            }
            break;
          case coh::DirState::Shared:
            if (holdsM) {
                std::ostringstream os;
                os << when << ": node " << i << " holds line " << line
                   << " Modified but the home thinks Shared";
                record("dir-cache-agreement", os.str());
            } else if (holds && !e->hasSharer(i)) {
                std::ostringstream os;
                os << when << ": node " << i << " holds line " << line
                   << " Shared but is not in the sharer list";
                record("dir-cache-agreement", os.str());
            }
            break;
          case coh::DirState::Modified:
            if (i == e->owner) {
                if (!holdsM) {
                    std::ostringstream os;
                    os << when << ": owner " << i << " of line " << line
                       << " holds no Modified copy";
                    record("dir-cache-agreement", os.str());
                }
            } else if (holds) {
                std::ostringstream os;
                os << when << ": node " << i << " holds line " << line
                   << " owned Modified by node " << e->owner;
                record("dir-cache-agreement", os.str());
            }
            break;
        }
    }
    if (dst == coh::DirState::Modified && !e->sharers.empty()) {
        std::ostringstream os;
        os << when << ": line " << line
           << " Modified with a non-empty sharer list";
        record("dir-cache-agreement", os.str());
    }
}

// ---------------------------------------------------------------------
// Network hooks
// ---------------------------------------------------------------------

void
InvariantAuditor::onPacketInjected(const net::Packet &pkt)
{
    std::uint64_t sum = 0;
    for (std::uint32_t b : pkt.volBytes)
        sum += b;
    if (sum != pkt.sizeBytes) {
        std::ostringstream os;
        os << "packet #" << pkt.id << " category bytes " << sum
           << " != size " << pkt.sizeBytes;
        record("byte-accounting", os.str());
    }
    if (pkt.countInVolume) {
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(VolCat::NumCats); ++c)
            volume_.add(static_cast<VolCat>(c), pkt.volBytes[c]);
    }
    if (pkt.kind != net::PacketKind::Coherence)
        return;
    ++cohInjected_;

    const coh::ProtoMsg *m = &pkt.proto;
    const auto &cfg = machine_->config();
    const auto got = [&](VolCat c) {
        return pkt.volBytes[static_cast<std::size_t>(c)];
    };
    std::uint32_t wantInv = 0, wantReq = 0, wantHdr = 0, wantData = 0;
    switch (m->type) {
      case coh::MsgType::Inv:
      case coh::MsgType::InvAck:
        wantInv = cfg.protoCtrlBytes;
        break;
      case coh::MsgType::WbData:
      case coh::MsgType::WbEvict:
      case coh::MsgType::Data:
      case coh::MsgType::DataX:
        wantHdr = cfg.protoDataHdrBytes;
        wantData = cfg.lineBytes;
        break;
      default:
        wantReq = cfg.protoCtrlBytes;
        break;
    }
    if (got(VolCat::Invalidates) != wantInv
        || got(VolCat::Requests) != wantReq
        || got(VolCat::Headers) != wantHdr
        || got(VolCat::Data) != wantData) {
        std::ostringstream os;
        os << coh::msgTypeName(m->type) << " packet #" << pkt.id
           << " miscategorized: inv/req/hdr/data "
           << got(VolCat::Invalidates) << "/" << got(VolCat::Requests)
           << "/" << got(VolCat::Headers) << "/" << got(VolCat::Data);
        record("byte-accounting", os.str());
    }
}

void
InvariantAuditor::onPacketDelivered(const net::Packet &pkt)
{
    if (pkt.kind == net::PacketKind::Coherence)
        ++cohDelivered_;
}

// ---------------------------------------------------------------------
// Protocol hooks
// ---------------------------------------------------------------------

void
InvariantAuditor::onProtoSend(NodeId src, NodeId dst,
                              const coh::ProtoMsg &msg)
{
    (void)dst;
    LineState &s = ls(msg.lineAddr);
    ++sends_[idx(msg.type)];
    ++s.inflight[idx(msg.type)];
    if (msg.type == coh::MsgType::InvAck)
        ++invAcksSent_;
    if (carriesData(msg.type)) {
        if (!s.hasShadow) {
            s.shadow = msg.words;
            s.hasShadow = true;
        } else if (!tainted(src, msg.lineAddr)
                   && msg.words != s.shadow) {
            std::ostringstream os;
            os << coh::msgTypeName(msg.type) << " from node " << src
               << " for line " << msg.lineAddr
               << " carries words diverging from the write order";
            record("write-serialization", os.str());
        }
    }
    touch(msg.lineAddr);
}

void
InvariantAuditor::onProtoProcess(NodeId at, const coh::ProtoMsg &msg)
{
    LineState &s = ls(msg.lineAddr);
    std::int64_t &fl = s.inflight[idx(msg.type)];
    if (fl <= 0) {
        std::ostringstream os;
        os << coh::msgTypeName(msg.type) << " processed at node " << at
           << " for line " << msg.lineAddr << " with none in flight";
        record("message-conservation", os.str());
    } else {
        --fl;
    }
    ++processed_[idx(msg.type)];

    if (msg.type == coh::MsgType::Inv) {
        ++invProcessed_;
        // An Inv reaching a node with an open Shared-grade miss marks
        // the documented stale-fill window: the granted data still in
        // flight is ordered before the invalidation and will be
        // installed then dropped. Data checks pause until the drop.
        auto it = mshrs_.find(msg.lineAddr);
        if (it != mshrs_.end()) {
            auto nt = it->second.find(at);
            if (nt != it->second.end() && !nt->second)
                taints_.insert(taintKey(at, msg.lineAddr));
        }
    }
    if (msg.type == coh::MsgType::InvAck)
        ++s.acksProcessed;
    touch(msg.lineAddr);
}

void
InvariantAuditor::onLocalGrant(NodeId node, Addr line, bool exclusive)
{
    (void)node;
    const auto t = exclusive ? coh::MsgType::DataX : coh::MsgType::Data;
    LineState &s = ls(line);
    ++sends_[idx(t)];
    ++s.inflight[idx(t)];
    touch(line);
}

void
InvariantAuditor::onFill(NodeId node, Addr line, bool exclusive)
{
    const auto t = exclusive ? coh::MsgType::DataX : coh::MsgType::Data;
    LineState &s = ls(line);
    std::int64_t &fl = s.inflight[idx(t)];
    if (fl <= 0) {
        std::ostringstream os;
        os << "fill at node " << node << " line " << line
           << " without a matching " << coh::msgTypeName(t)
           << " grant in flight";
        record("message-conservation", os.str());
    } else {
        --fl;
    }
    ++processed_[idx(t)];
    touch(line);
}

void
InvariantAuditor::onMshrOpen(NodeId node, Addr line, bool exclusive)
{
    mshrs_[line][node] = exclusive;
    touch(line);
}

void
InvariantAuditor::onMshrClose(NodeId node, Addr line)
{
    auto it = mshrs_.find(line);
    if (it != mshrs_.end()) {
        it->second.erase(node);
        if (it->second.empty())
            mshrs_.erase(it);
    }
    touch(line);
}

void
InvariantAuditor::onTxnOpen(NodeId home, Addr line,
                            const coh::DirTxn &txn)
{
    (void)home;
    LineState &s = ls(line);
    s.acksExpected = txn.pendingAcks;
    s.acksProcessed = 0;
    touch(line);
}

void
InvariantAuditor::onTxnClose(NodeId home, Addr line)
{
    (void)home;
    LineState &s = ls(line);
    s.acksExpected = 0;
    s.acksProcessed = 0;
    touch(line);
}

void
InvariantAuditor::onRecallStashed(NodeId node, Addr line)
{
    (void)node;
    ++ls(line).stashCount;
    touch(line);
}

void
InvariantAuditor::onRecallHonored(NodeId node, Addr line)
{
    (void)node;
    LineState &s = ls(line);
    if (s.stashCount <= 0)
        record("recall-liveness",
               "stashed recall honoured with none recorded");
    else
        --s.stashCount;
    touch(line);
}

// ---------------------------------------------------------------------
// Cache / prefetch-buffer hooks
// ---------------------------------------------------------------------

void
InvariantAuditor::onCacheFill(NodeId node, Addr line, mem::LineState st,
                              const mem::LineWords &words)
{
    (void)st;
    LineState &s = ls(line);
    if (!s.hasShadow) {
        if (!tainted(node, line)) {
            s.shadow = words;
            s.hasShadow = true;
        }
    } else if (!tainted(node, line) && words != s.shadow) {
        std::ostringstream os;
        os << "fill at node " << node << " line " << line
           << " installs words diverging from the write order";
        record("write-serialization", os.str());
    }
    touch(line);
}

void
InvariantAuditor::onCacheEvict(NodeId node, Addr line, bool dirty)
{
    (void)node, (void)dirty;
    touch(line);
}

void
InvariantAuditor::onCacheInvalidate(NodeId node, Addr line,
                                    bool wasModified)
{
    (void)wasModified;
    taints_.erase(taintKey(node, line));
    touch(line);
}

void
InvariantAuditor::onCacheDowngrade(NodeId node, Addr line)
{
    (void)node;
    touch(line);
}

void
InvariantAuditor::onCacheUpgrade(NodeId node, Addr line)
{
    (void)node;
    touch(line);
}

void
InvariantAuditor::onCacheRead(NodeId node, Addr a, std::uint64_t v)
{
    const Addr line =
        a & ~static_cast<Addr>(machine_->config().lineBytes - 1);
    LineState &s = ls(line);
    if (s.hasShadow && !tainted(node, line)) {
        const std::size_t w = (a - line) / 8;
        if (w < s.shadow.size() && s.shadow[w] != v) {
            std::ostringstream os;
            os << "node " << node << " read " << v << " at " << a
               << " but the write order says " << s.shadow[w];
            record("write-serialization", os.str());
        }
    }
}

void
InvariantAuditor::onCacheWrite(NodeId node, Addr a, std::uint64_t v)
{
    (void)node;
    const Addr line =
        a & ~static_cast<Addr>(machine_->config().lineBytes - 1);
    LineState &s = ls(line);
    if (!s.hasShadow) {
        s.shadow.assign(machine_->config().lineBytes / 8, 0);
        s.hasShadow = true;
    }
    const std::size_t w = (a - line) / 8;
    if (w < s.shadow.size())
        s.shadow[w] = v;
    touch(line);
}

void
InvariantAuditor::onPfbInstall(NodeId node, Addr line, mem::LineState st,
                               const mem::LineWords &words)
{
    onCacheFill(node, line, st, words);
}

void
InvariantAuditor::onPfbRemove(NodeId node, Addr line)
{
    taints_.erase(taintKey(node, line));
    touch(line);
}

// ---------------------------------------------------------------------
// End of run
// ---------------------------------------------------------------------

void
InvariantAuditor::finalize()
{
    if (!machine_)
        return;

    for (const auto &[line, nodes] : mshrs_) {
        std::ostringstream os;
        os << "line " << line << " still has " << nodes.size()
           << " open MSHR(s) after the run";
        record("message-conservation", os.str());
    }
    for (Addr line : everTouched_) {
        const LineState &s = lines_[line];
        for (std::size_t t = 0; t < kNumMsgTypes; ++t) {
            if (s.inflight[t] != 0) {
                std::ostringstream os;
                os << s.inflight[t] << " "
                   << coh::msgTypeName(static_cast<coh::MsgType>(t))
                   << " still in flight for line " << line;
                record("message-conservation", os.str());
            }
        }
        const NodeId home = machine_->mem().home(line);
        const coh::DirEntry *e =
            machine_->cohAt(home).debugDir().find(line);
        if (e && (e->busy() || !e->queueEmpty())) {
            std::ostringstream os;
            os << "line " << line << " still busy at its home after the"
               << " run";
            record("message-conservation", os.str());
        } else if (quiescent(line, s)) {
            checkAgreement(line, "finalize");
        }
    }

    if (cohInjected_ != cohDelivered_) {
        std::ostringstream os;
        os << cohInjected_ << " coherence packets injected but "
           << cohDelivered_ << " delivered";
        record("message-conservation", os.str());
    }

    const VolumeBreakdown &mv = machine_->mesh().volume();
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(VolCat::NumCats); ++c) {
        if (mv.bytes[c] != volume_.bytes[c]) {
            std::ostringstream os;
            os << volCatName(static_cast<VolCat>(c))
               << " bytes observed " << volume_.bytes[c]
               << " != mesh total " << mv.bytes[c];
            record("byte-accounting", os.str());
        }
    }
    if (machine_->counters().invalidationsSent
        != sends_[idx(coh::MsgType::Inv)]) {
        std::ostringstream os;
        os << "CMMU counted "
           << machine_->counters().invalidationsSent
           << " invalidations but " << sends_[idx(coh::MsgType::Inv)]
           << " Inv were sent";
        record("byte-accounting", os.str());
    }
}

} // namespace alewife::check
