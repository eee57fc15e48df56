#include "mem/cache.hh"

#include <bit>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife::mem {

Cache::Cache(std::uint32_t capacity_bytes, std::uint32_t line_bytes)
    : lineBytes_(line_bytes),
      numSets_(line_bytes ? capacity_bytes / line_bytes : 0),
      wordsPerLine_(line_bytes / 8),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      setMask_(numSets_ - 1), lineMask_(static_cast<Addr>(line_bytes) - 1)
{
    if (line_bytes < 8 || line_bytes > kMaxLineBytes
        || !std::has_single_bit(line_bytes))
        ALEWIFE_FATAL("cache line must be a power of two of 8..",
                      kMaxLineBytes, " bytes");
    if (numSets_ == 0 || (numSets_ & (numSets_ - 1)) != 0)
        ALEWIFE_FATAL("cache must have a power-of-two number of sets");
    tags_.assign(numSets_, 0);
    states_.assign(numSets_, kInvalid);
    words_ = std::make_unique_for_overwrite<std::uint64_t[]>(
        std::size_t{numSets_} * wordsPerLine_);
}

LineWords
Cache::lineAt(std::uint32_t set) const
{
    LineWords out;
    out.assign({wordsAt(set), wordsPerLine_});
    return out;
}

bool
Cache::contains(Addr a) const
{
    return find(a) >= 0;
}

std::optional<LineState>
Cache::state(Addr a) const
{
    const std::int64_t s = find(a);
    if (s < 0)
        return std::nullopt;
    return stateAt(static_cast<std::uint32_t>(s));
}

std::uint64_t
Cache::readWord(Addr a) const
{
    const std::int64_t s = find(a);
    if (s < 0)
        ALEWIFE_PANIC("readWord on absent line ", a);
    const std::uint64_t v =
        wordsAt(static_cast<std::uint32_t>(s))[(a & lineMask_) >> 3];
    if (hooks_)
        hooks_->onCacheRead(node_, a, v);
    return v;
}

void
Cache::writeWord(Addr a, std::uint64_t v)
{
    const std::int64_t s = find(a);
    if (s < 0)
        ALEWIFE_PANIC("writeWord on absent line ", a);
    const auto set = static_cast<std::uint32_t>(s);
    if (stateAt(set) != LineState::Modified)
        ALEWIFE_PANIC("writeWord on non-Modified line ", a);
    wordsAt(set)[(a & lineMask_) >> 3] = v;
    if (hooks_)
        hooks_->onCacheWrite(node_, a, v);
}

std::optional<Cache::Victim>
Cache::fill(Addr line_addr, LineState st, const LineWords &words)
{
    if (line_addr != lineBase(line_addr))
        ALEWIFE_PANIC("fill with unaligned line address");
    if (words.size() != wordsPerLine_)
        ALEWIFE_PANIC("fill with ", words.size(), " words, line holds ",
                      wordsPerLine_);
    const std::uint32_t set = setOf(line_addr);
    std::optional<Victim> victim;
    if (states_[set] != kInvalid && tags_[set] != line_addr) {
        const bool dirty = stateAt(set) == LineState::Modified;
        if (hooks_)
            hooks_->onCacheEvict(node_, tags_[set], dirty);
        if (dirty)
            victim = Victim{tags_[set], true, lineAt(set)};
    }
    tags_[set] = line_addr;
    states_[set] = static_cast<std::uint8_t>(st);
    std::copy(words.begin(), words.end(), wordsAt(set));
    if (hooks_)
        hooks_->onCacheFill(node_, line_addr, st, words);
    return victim;
}

std::optional<LineWords>
Cache::invalidate(Addr a)
{
    const std::int64_t s = find(a);
    if (s < 0)
        return std::nullopt;
    const auto set = static_cast<std::uint32_t>(s);
    const bool dirty = stateAt(set) == LineState::Modified;
    states_[set] = kInvalid;
    if (hooks_)
        hooks_->onCacheInvalidate(node_, tags_[set], dirty);
    if (dirty)
        return lineAt(set);
    return std::nullopt;
}

std::optional<LineWords>
Cache::downgrade(Addr a)
{
    const std::int64_t s = find(a);
    if (s < 0)
        return std::nullopt;
    const auto set = static_cast<std::uint32_t>(s);
    if (stateAt(set) != LineState::Modified)
        return std::nullopt;
    states_[set] = static_cast<std::uint8_t>(LineState::Shared);
    if (hooks_)
        hooks_->onCacheDowngrade(node_, tags_[set]);
    return lineAt(set); // the line stays resident
}

void
Cache::upgrade(Addr a)
{
    const std::int64_t s = find(a);
    if (s < 0)
        ALEWIFE_PANIC("upgrade on absent line ", a);
    const auto set = static_cast<std::uint32_t>(s);
    states_[set] = static_cast<std::uint8_t>(LineState::Modified);
    if (hooks_)
        hooks_->onCacheUpgrade(node_, tags_[set]);
}

LineWords
Cache::lineWords(Addr a) const
{
    const std::int64_t s = find(a);
    if (s < 0)
        ALEWIFE_PANIC("lineWords on absent line ", a);
    return lineAt(static_cast<std::uint32_t>(s));
}

void
Cache::flushAll()
{
    std::fill(states_.begin(), states_.end(), kInvalid);
}

} // namespace alewife::mem
