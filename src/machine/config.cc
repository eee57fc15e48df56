#include "machine/config.hh"

#include <cstdio>

#include "mem/line_words.hh"
#include "msg/am_header.hh"
#include "sim/logging.hh"

namespace alewife {

double
MachineConfig::onewayLatencyCycles(std::uint32_t bytes, int hops) const
{
    if (idealNet)
        return idealNetLatencyCycles;
    return netFixedCycles() + hops * hopCycles()
           + static_cast<double>(bytes) / linkBytesPerCycle();
}

double
MachineConfig::averageHops() const
{
    // Mean Manhattan distance between two uniformly random distinct mesh
    // positions is (X^2-1)/(3X) + (Y^2-1)/(3Y) for an X-by-Y mesh; close
    // enough to the exact expectation for our purposes.
    auto dim = [](double n) { return (n * n - 1.0) / (3.0 * n); };
    return dim(meshX) + dim(meshY);
}

void
MachineConfig::validate() const
{
    if (meshX < 1 || meshY < 1)
        ALEWIFE_FATAL("mesh dimensions must be positive");
    if (procMhz <= 0.0)
        ALEWIFE_FATAL("procMhz must be positive");
    // Line data rides inline (mem::LineWords), and lineOf()/lineBase()
    // mask with lineBytes - 1.
    if (lineBytes < 8 || lineBytes > mem::kMaxLineBytes
        || (lineBytes & (lineBytes - 1)) != 0)
        ALEWIFE_FATAL("lineBytes must be a power of two of 8..",
                      mem::kMaxLineBytes, ", got ", lineBytes);
    if (cacheBytes % lineBytes != 0)
        ALEWIFE_FATAL("cacheBytes must be a multiple of lineBytes");
    if (!idealNet && linkMBps <= 0.0)
        ALEWIFE_FATAL("linkMBps must be positive");
    if (dirHwPointers < 1)
        ALEWIFE_FATAL("dirHwPointers must be at least 1");
    if (niInputQueueSlots < 1)
        ALEWIFE_FATAL("niInputQueueSlots must be at least 1");
    // Half of an active message's words are register arguments, which
    // ride inline in the packet (msg::AmArgs).
    if (amMaxWords < 0
        || amMaxWords > 2 * static_cast<int>(msg::kAmMaxArgs))
        ALEWIFE_FATAL("amMaxWords must be 0..", 2 * msg::kAmMaxArgs,
                      ", got ", amMaxWords);
}

std::string
MachineConfig::canonicalKey() const
{
    std::string out;
    out.reserve(1024);
    auto num = [&](const char *name, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
        out += buf;
    };
    auto integer = [&](const char *name, long long v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s=%lld;", name, v);
        out += buf;
    };
    auto flag = [&](const char *name, bool v) {
        integer(name, v ? 1 : 0);
    };

    integer("meshX", meshX);
    integer("meshY", meshY);
    num("procMhz", procMhz);
    num("linkMBps", linkMBps);
    num("hopNs", hopNs);
    num("netFixedNs", netFixedNs);
    flag("idealNet", idealNet);
    num("idealNetLatencyCycles", idealNetLatencyCycles);
    num("contextSwitchCycles", contextSwitchCycles);
    integer("cacheBytes", cacheBytes);
    integer("lineBytes", lineBytes);
    num("cacheHitCycles", cacheHitCycles);
    num("localMissCycles", localMissCycles);
    integer("dirHwPointers", dirHwPointers);
    num("reqIssueCycles", reqIssueCycles);
    num("homeOccupancyCycles", homeOccupancyCycles);
    num("replyConsumeCycles", replyConsumeCycles);
    num("invProcessCycles", invProcessCycles);
    num("limitlessTrapCycles", limitlessTrapCycles);
    num("limitlessPerSharerCycles", limitlessPerSharerCycles);
    flag("threeHopForwarding", threeHopForwarding);
    integer("protoCtrlBytes", protoCtrlBytes);
    integer("protoDataHdrBytes", protoDataHdrBytes);
    num("amSendCycles", amSendCycles);
    num("amSendPerWordCycles", amSendPerWordCycles);
    num("amInterruptCycles", amInterruptCycles);
    num("amDispatchCycles", amDispatchCycles);
    num("amRecvPerWordCycles", amRecvPerWordCycles);
    num("pollEmptyCycles", pollEmptyCycles);
    integer("pollInsertionGap", pollInsertionGap);
    integer("amHeaderBytes", amHeaderBytes);
    integer("amMaxWords", amMaxWords);
    integer("niInputQueueSlots", niInputQueueSlots);
    num("niRetryCycles", niRetryCycles);
    num("dmaSetupCycles", dmaSetupCycles);
    num("gatherScatterPerLineCycles", gatherScatterPerLineCycles);
    integer("dmaAlignBytes", dmaAlignBytes);
    integer("prefetchBufferEntries", prefetchBufferEntries);
    integer("prefetchMaxOutstanding", prefetchMaxOutstanding);
    num("prefetchIssueCycles", prefetchIssueCycles);
    num("prefetchBufferHitCycles", prefetchBufferHitCycles);
    integer("maxOutstandingWrites", maxOutstandingWrites);
    num("cyclesPerFlop", cyclesPerFlop);
    num("cyclesPerFlopSP", cyclesPerFlopSP);
    return out;
}

} // namespace alewife
