/**
 * @file
 * Active-message layer tests: delivery, interrupt vs. polling, queue
 * backpressure, handler replies, cost accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "../test_util.hh"

namespace alewife {
namespace {

using proc::Ctx;
using test::smallConfig;

struct MsgState
{
    msg::HandlerId h = -1;
    std::vector<std::uint64_t> got;
    std::vector<int> count;
};

TEST(ActiveMessages, ArgumentsArriveIntact)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Interrupt);
    MsgState st;
    st.got.assign(m.nodes(), 0);
    st.h = m.handlers().add([&st](msg::HandlerEnv &env) {
        st.got[env.self()] = env.msg().args[0] + env.msg().args[1];
    });
    auto prog = [&st](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0)
            co_await ctx.send(3, st.h, msg::amArgs(40, 2));
        co_return;
    };
    m.run(prog);
    EXPECT_EQ(st.got[3], 42u);
}

TEST(ActiveMessages, InterruptModeDeliversWithoutPolling)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Interrupt);
    MsgState st;
    st.count.assign(m.nodes(), 0);
    st.h = m.handlers().add(
        [&st](msg::HandlerEnv &env) { ++st.count[env.self()]; });
    auto prog = [&st](Ctx &ctx) -> sim::Thread {
        if (ctx.self() != 1)
            co_await ctx.send(1, st.h, {});
        else
            co_await ctx.compute(50000); // never polls
        co_return;
    };
    m.run(prog);
    EXPECT_EQ(st.count[1], static_cast<int>(m.nodes()) - 1);
    EXPECT_GT(m.counters().interruptsTaken, 0u);
    EXPECT_EQ(m.counters().messagesPolled, 0u);
}

TEST(ActiveMessages, PollingModeDefersToPoll)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Polling);
    MsgState st;
    st.count.assign(m.nodes(), 0);
    st.h = m.handlers().add(
        [&st](msg::HandlerEnv &env) { ++st.count[env.self()]; });

    struct Flow
    {
        bool sent = false;
        int seen_before_poll = -1;
    };
    static Flow flow; // reset per test body
    flow = Flow{};

    auto prog = [&st](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0) {
            co_await ctx.send(1, st.h, {});
            flow.sent = true;
        } else if (ctx.self() == 1) {
            co_await ctx.waitUntil([&]() { return flow.sent; },
                                   TimeCat::Sync);
            co_await ctx.compute(2000);
            flow.seen_before_poll = st.count[1];
            co_await ctx.poll();
        }
        co_return;
    };
    m.run(prog);
    EXPECT_EQ(st.count[1], 1);
    EXPECT_GT(m.counters().messagesPolled, 0u);
    EXPECT_EQ(m.counters().interruptsTaken, 0u);
}

TEST(ActiveMessages, HandlerCanReply)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Interrupt);
    struct PingPong
    {
        msg::HandlerId ping = -1, pong = -1;
        bool got_pong = false;
    } pp;
    pp.pong = m.handlers().add(
        [&pp](msg::HandlerEnv &) { pp.got_pong = true; });
    pp.ping = m.handlers().add([&pp](msg::HandlerEnv &env) {
        env.send(static_cast<NodeId>(env.msg().args[0]), pp.pong, {});
    });
    auto prog = [&pp](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0) {
            co_await ctx.send(5, pp.ping, msg::amArgs(0));
            co_await ctx.waitUntil([&]() { return pp.got_pong; });
        }
        co_return;
    };
    m.run(prog);
    EXPECT_TRUE(pp.got_pong);
}

TEST(ActiveMessages, BulkBodyArrivesAndPaddingCounted)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Interrupt);
    struct Bulk
    {
        msg::HandlerId h = -1;
        std::vector<std::uint64_t> body;
    } bk;
    bk.h = m.handlers().add([&bk](msg::HandlerEnv &env) {
        bk.body.assign(env.msg().body.begin(), env.msg().body.end());
    });
    auto prog = [&bk](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0) {
            std::vector<std::uint64_t> body = {1, 2, 3, 4, 5, 6, 7};
            co_await ctx.sendBulk(2, bk.h, {}, std::move(body));
        }
        co_return;
    };
    m.run(prog);
    ASSERT_EQ(bk.body.size(), 7u);
    EXPECT_EQ(bk.body[6], 7u);
    EXPECT_EQ(m.counters().dmaTransfers, 1u);
    // Volume: header 8 + descriptor 8 + 56 bytes payload (already
    // 8-aligned, no extra padding).
    EXPECT_EQ(m.volume().get(VolCat::Data), 56u);
    EXPECT_EQ(m.volume().get(VolCat::Headers), 16u);
}

TEST(ActiveMessages, QueueBackpressureFillsNetwork)
{
    MachineConfig cfg = smallConfig();
    cfg.niInputQueueSlots = 2;
    Machine m(cfg, proc::SyncStyle::MessagePassing,
              msg::RecvMode::Polling);
    MsgState st;
    st.count.assign(m.nodes(), 0);
    st.h = m.handlers().add(
        [&st](msg::HandlerEnv &env) { ++st.count[env.self()]; });

    const int burst = 12;
    auto prog = [&st, burst](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0) {
            for (int i = 0; i < burst; ++i)
                co_await ctx.send(1, st.h, {});
        } else if (ctx.self() == 1) {
            // Poll only after a long delay: the 2-slot queue must fill
            // and packets must park in the network.
            co_await ctx.compute(20000);
            co_await ctx.waitUntil(
                [&]() { return st.count[1] >= burst; }, TimeCat::Sync);
        }
        co_return;
    };
    m.run(prog);
    EXPECT_EQ(st.count[1], burst);
    EXPECT_GT(m.counters().niQueueFullStalls, 0u);
}

TEST(ActiveMessages, PolledHandlersChargeThePoller)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Polling);
    MsgState st;
    st.count.assign(m.nodes(), 0);
    st.h = m.handlers().add(
        [&st](msg::HandlerEnv &env) { ++st.count[env.self()]; });

    struct Out
    {
        double poll_cycles = 0.0;
    };
    static Out out;
    out = Out{};

    auto prog = [&st](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0) {
            for (int i = 0; i < 5; ++i)
                co_await ctx.send(1, st.h, {});
        } else if (ctx.self() == 1) {
            co_await ctx.compute(20000);
            const Tick before = ctx.proc().localNow();
            co_await ctx.poll();
            out.poll_cycles = ticksToCycles(ctx.proc().localNow() - before);
        }
        co_return;
    };
    m.run(prog);
    EXPECT_EQ(st.count[1], 5);
    // Five dispatches at ~12 cycles each, plus the poll check.
    EXPECT_GT(out.poll_cycles, 40.0);
}

TEST(ActiveMessages, VolumeCountsHeaderAndArgs)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Interrupt);
    MsgState st;
    st.h = m.handlers().add([](msg::HandlerEnv &) {});
    auto prog = [&st](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0)
            co_await ctx.send(1, st.h, msg::amArgs(1, 2, 3));
        co_return;
    };
    m.run(prog);
    EXPECT_EQ(m.volume().get(VolCat::Headers), 8u);
    EXPECT_EQ(m.volume().get(VolCat::Data), 24u);
    EXPECT_EQ(m.volume().get(VolCat::Requests), 0u);
}

} // namespace
} // namespace alewife
