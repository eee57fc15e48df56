/**
 * @file
 * Tests for the direct-mapped cache, including the machine-level
 * eviction-races-with-recall corner: a dirty victim evicted while a
 * Recall/RecallX is in flight must be answered with RecallNoData, and
 * the home's waiting transaction must still close off the writeback.
 */

#include <gtest/gtest.h>

#include "check/auditor.hh"
#include "machine/machine.hh"
#include "mem/cache.hh"

namespace alewife::mem {
namespace {

LineWords
words(std::uint64_t a, std::uint64_t b)
{
    LineWords w;
    w.push_back(a);
    w.push_back(b);
    return w;
}

TEST(Cache, FillThenReadBack)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Shared, words(11, 22));
    EXPECT_TRUE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x108));
    EXPECT_EQ(c.readWord(0x100), 11u);
    EXPECT_EQ(c.readWord(0x108), 22u);
}

TEST(Cache, AbsentLineReportsNoState)
{
    Cache c(1024, 16);
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_FALSE(c.state(0x100).has_value());
}

TEST(Cache, WriteRequiresModified)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Modified, words(1, 2));
    c.writeWord(0x108, 99);
    EXPECT_EQ(c.readWord(0x108), 99u);
}

TEST(CacheDeath, WriteToSharedPanics)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Shared, words(1, 2));
    EXPECT_DEATH(c.writeWord(0x100, 5), "non-Modified");
}

TEST(Cache, ConflictEvictsDirtyVictim)
{
    Cache c(64, 16); // 4 sets
    c.fill(0x000, LineState::Modified, words(7, 8));
    // Same set: addresses 64 bytes apart.
    auto victim = c.fill(0x040, LineState::Shared, words(1, 2));
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, 0x000u);
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(victim->words[0], 7u);
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x040));
}

TEST(Cache, CleanVictimVanishesSilently)
{
    Cache c(64, 16);
    c.fill(0x000, LineState::Shared, words(7, 8));
    auto victim = c.fill(0x040, LineState::Shared, words(1, 2));
    EXPECT_FALSE(victim.has_value());
}

TEST(Cache, InvalidateReturnsDirtyWords)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Modified, words(5, 6));
    auto w = c.invalidate(0x108);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ((*w)[1], 6u);
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, InvalidateCleanReturnsNothing)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Shared, words(5, 6));
    EXPECT_FALSE(c.invalidate(0x100).has_value());
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, InvalidateAbsentIsNoop)
{
    Cache c(1024, 16);
    EXPECT_FALSE(c.invalidate(0x100).has_value());
}

TEST(Cache, DowngradeKeepsLineShared)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Modified, words(5, 6));
    auto w = c.downgrade(0x100);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(c.state(0x100), LineState::Shared);
    EXPECT_EQ(c.readWord(0x100), 5u);
}

TEST(Cache, UpgradeMakesModified)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Shared, words(5, 6));
    c.upgrade(0x100);
    EXPECT_EQ(c.state(0x100), LineState::Modified);
    c.writeWord(0x100, 9);
    EXPECT_EQ(c.readWord(0x100), 9u);
}

/** Cache unit tests at every line size a machine may be built with. */
class CacheLineSize : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    /** Distinct words for line @p line (so mixing lines up shows). */
    LineWords
    pattern(Addr line) const
    {
        LineWords w;
        for (std::uint32_t i = 0; i < GetParam() / 8; ++i)
            w.push_back(line * 100 + i);
        return w;
    }
};

TEST_P(CacheLineSize, FillEvictInvalidateDowngradeRoundTrip)
{
    const std::uint32_t lb = GetParam();
    Cache c(4 * lb, lb); // 4 sets
    const Addr a = 2 * lb;
    const Addr b = a + 4 * lb; // same set as a

    // Fill and read back every word.
    c.fill(a, LineState::Modified, pattern(a));
    for (std::uint32_t i = 0; i < lb / 8; ++i)
        EXPECT_EQ(c.readWord(a + 8 * i), a * 100 + i);
    EXPECT_EQ(c.lineWords(a + lb - 8), pattern(a));

    // Write the last word, then a conflicting fill evicts it dirty.
    c.writeWord(a + lb - 8, 7);
    LineWords dirty = pattern(a);
    dirty[lb / 8 - 1] = 7;
    auto victim = c.fill(b, LineState::Modified, pattern(b));
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, a);
    EXPECT_EQ(victim->words, dirty);
    EXPECT_FALSE(c.contains(a));

    // Downgrade hands back the words and keeps the line readable.
    auto down = c.downgrade(b + 8);
    ASSERT_TRUE(down.has_value());
    EXPECT_EQ(*down, pattern(b));
    EXPECT_EQ(c.state(b), LineState::Shared);
    EXPECT_EQ(c.readWord(b + lb - 8), b * 100 + lb / 8 - 1);

    // A Modified line invalidates with its words; a Shared one without.
    c.upgrade(b);
    auto inv = c.invalidate(b);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(*inv, pattern(b));
    EXPECT_FALSE(c.contains(b));
    c.fill(a, LineState::Shared, pattern(a));
    EXPECT_FALSE(c.invalidate(a).has_value());
    EXPECT_FALSE(c.contains(a));
}

INSTANTIATE_TEST_SUITE_P(LineBytes, CacheLineSize,
                         ::testing::Values(16u, 32u, 64u));

TEST(CacheDeath, LineSizeMustFitLineWords)
{
    EXPECT_DEATH(Cache(4096, 128), "power of two");
    EXPECT_DEATH(Cache(4096, 24), "power of two");
}

TEST(Cache, RefillSameLineOverwrites)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Modified, words(5, 6));
    auto victim = c.fill(0x100, LineState::Shared, words(9, 10));
    // Same line refill never reports itself as victim.
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(c.readWord(0x100), 9u);
}

TEST(Cache, FlushAllEmptiesCache)
{
    Cache c(1024, 16);
    c.fill(0x100, LineState::Shared, words(1, 2));
    c.fill(0x200, LineState::Modified, words(3, 4));
    c.flushAll();
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_FALSE(c.contains(0x200));
}

// ---------------------------------------------------------------------
// Eviction races with recall (machine-level).
//
// Node 0 dirties L1, then writes L2 which conflicts with L1 in its
// direct-mapped cache, so the fill evicts L1 as a dirty victim
// (WbEvict toward home). Node 1 accesses L1 after a swept delay; for
// some delays the home's Recall/RecallX reaches node 0 after the
// eviction, and node 0 — no longer holding L1 — must answer
// RecallNoData. The home then closes the transaction off the WbEvict
// data. The auditor's finalize() proves the transaction closed and
// the directory agrees with every cache.
// ---------------------------------------------------------------------

sim::Thread
raceProgram(proc::Ctx &ctx, Addr l1, Addr l2, int evict_delay,
            bool writer)
{
    const int self = ctx.self();
    if (self == 0) {
        co_await ctx.write(l1, 111);
        co_await ctx.barrier();
        co_await ctx.compute(static_cast<double>(evict_delay));
        // Conflicting fill: evicts dirty L1 (WbEvict in flight).
        co_await ctx.write(l2, 222);
    } else if (self == 1) {
        co_await ctx.barrier();
        if (writer)
            co_await ctx.write(l1, 333); // RecallX path
        else
            co_await ctx.read(l1); // Recall path
    } else {
        co_await ctx.barrier();
    }
    co_await ctx.barrier();
    co_return;
}

/**
 * Sweep the evictor's delay until the recall-vs-eviction race is
 * actually hit (RecallNoData observed), asserting a clean audit and
 * correct memory every time.
 */
void
sweepRecallRace(bool writer)
{
    bool saw_race = false;
    for (int delay = 0; delay <= 60; delay += 2) {
        MachineConfig cfg;
        cfg.meshX = 2;
        cfg.meshY = 2;
        cfg.cacheBytes = 1024;
        Machine m(cfg, proc::SyncStyle::SharedMemory,
                  msg::RecvMode::Polling);
        check::InvariantAuditor auditor(
            {.abortOnViolation = false, .maxViolations = 4});
        auditor.attach(m);

        // l2 is exactly one cache stride past l1: same direct-mapped
        // set, guaranteed conflict. (A cache-sized span keeps the
        // barrier's own sync lines clear of l1's set.)
        const Addr l1 = m.mem().alloc(cfg.cacheBytes / 8,
                                      HomePolicy::Fixed, 3, "race");
        const Addr l2 = l1 + cfg.cacheBytes;
        (void)m.mem().alloc(cfg.wordsPerLine(), HomePolicy::Fixed, 3,
                            "race2");

        m.run([&, delay, writer](proc::Ctx &ctx) {
            return raceProgram(ctx, l1, l2, delay, writer);
        });
        auditor.finalize();

        for (const auto &v : auditor.violations())
            ADD_FAILURE() << "delay " << delay << ": " << v.invariant
                          << ": " << v.detail;
        EXPECT_EQ(m.debugWord(l1), writer ? 333u : 111u)
            << "delay " << delay;
        EXPECT_EQ(m.debugWord(l2), 222u) << "delay " << delay;
        if (auditor.messagesSeen(coh::MsgType::RecallNoData) > 0)
            saw_race = true;
    }
    EXPECT_TRUE(saw_race)
        << "sweep never produced the eviction-vs-recall race";
}

TEST(CacheRecallRace, DirtyEvictionDuringRecallXAnswersRecallNoData)
{
    sweepRecallRace(/*writer=*/true);
}

TEST(CacheRecallRace, DirtyEvictionDuringRecallAnswersRecallNoData)
{
    sweepRecallRace(/*writer=*/false);
}

} // namespace
} // namespace alewife::mem
