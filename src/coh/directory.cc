#include "coh/directory.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace alewife::coh {

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetX: return "GetX";
      case MsgType::Recall: return "Recall";
      case MsgType::RecallX: return "RecallX";
      case MsgType::WbData: return "WbData";
      case MsgType::WbEvict: return "WbEvict";
      case MsgType::RecallNoData: return "RecallNoData";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::Data: return "Data";
      case MsgType::DataX: return "DataX";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetX: return "FwdGetX";
      case MsgType::FwdAck: return "FwdAck";
      default: return "?";
    }
}

bool
carriesData(MsgType t)
{
    switch (t) {
      case MsgType::WbData:
      case MsgType::WbEvict:
      case MsgType::Data:
      case MsgType::DataX:
        return true;
      default:
        return false;
    }
}

bool
DirEntry::hasSharer(NodeId n) const
{
    return std::find(sharers.begin(), sharers.end(), n) != sharers.end();
}

std::size_t
DirEntry::addSharer(NodeId n)
{
    if (!hasSharer(n))
        sharers.push_back(n);
    return sharers.size();
}

std::uint32_t
Directory::newEntry()
{
    const std::uint32_t i = entries_++;
    if ((i & (kSlabEntries - 1)) == 0)
        slabs_.push_back(std::make_unique<DirEntry[]>(kSlabEntries));
    return i + 1;
}

void
Directory::enqueue(DirEntry &e, const ProtoMsg &m)
{
    std::uint32_t i = queuedFree_;
    if (i == DirEntry::kNoMsg) {
        i = static_cast<std::uint32_t>(queued_.size());
        queued_.emplace_back();
    } else {
        queuedFree_ = queued_[i].next;
    }
    queued_[i].msg = m;
    queued_[i].next = DirEntry::kNoMsg;
    if (e.queueTail == DirEntry::kNoMsg)
        e.queueHead = i;
    else
        queued_[e.queueTail].next = i;
    e.queueTail = i;
    ++e.queueLen;
}

ProtoMsg
Directory::dequeue(DirEntry &e)
{
    if (e.queueLen == 0)
        ALEWIFE_PANIC("dequeue from an empty directory queue");
    const std::uint32_t i = e.queueHead;
    e.queueHead = queued_[i].next;
    if (e.queueHead == DirEntry::kNoMsg)
        e.queueTail = DirEntry::kNoMsg;
    --e.queueLen;
    queued_[i].next = queuedFree_;
    queuedFree_ = i;
    return queued_[i].msg;
}

} // namespace alewife::coh
