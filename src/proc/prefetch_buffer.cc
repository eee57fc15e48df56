#include "proc/prefetch_buffer.hh"

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife::proc {

PrefetchBuffer::PrefetchBuffer(int entries)
{
    if (entries < 1)
        ALEWIFE_FATAL("prefetch buffer needs at least one entry");
    slots_.resize(entries);
}

bool
PrefetchBuffer::contains(Addr line) const
{
    return find(line) != nullptr;
}

const PrefetchBuffer::Entry *
PrefetchBuffer::find(Addr line) const
{
    for (const Entry &e : slots_) {
        if (e.valid && e.lineAddr == line)
            return &e;
    }
    return nullptr;
}

void
PrefetchBuffer::install(Addr line, mem::LineState st,
                        const mem::LineWords &words)
{
    // Reuse an existing entry for the same line, else take a free slot,
    // else FIFO-evict.
    Entry *target = nullptr;
    for (Entry &e : slots_) {
        if (e.valid && e.lineAddr == line) {
            target = &e;
            break;
        }
    }
    if (!target) {
        for (Entry &e : slots_) {
            if (!e.valid) {
                target = &e;
                break;
            }
        }
    }
    if (!target) {
        target = &slots_[fifoNext_];
        fifoNext_ = (fifoNext_ + 1) % slots_.size();
        if (hooks_ && target->valid && target->lineAddr != line)
            hooks_->onPfbRemove(node_, target->lineAddr);
    }
    target->valid = true;
    target->lineAddr = line;
    target->st = st;
    target->words = words;
    if (hooks_)
        hooks_->onPfbInstall(node_, line, st, target->words);
}

std::optional<PrefetchBuffer::Entry>
PrefetchBuffer::take(Addr line)
{
    for (Entry &e : slots_) {
        if (e.valid && e.lineAddr == line) {
            Entry out = std::move(e);
            e.valid = false;
            if (hooks_)
                hooks_->onPfbRemove(node_, line);
            return out;
        }
    }
    return std::nullopt;
}

std::optional<PrefetchBuffer::Entry>
PrefetchBuffer::evictOldest()
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Entry &e = slots_[(fifoNext_ + i) % slots_.size()];
        if (e.valid) {
            fifoNext_ = (fifoNext_ + i + 1) % slots_.size();
            Entry out = std::move(e);
            e.valid = false;
            if (hooks_)
                hooks_->onPfbRemove(node_, out.lineAddr);
            return out;
        }
    }
    return std::nullopt;
}

bool
PrefetchBuffer::invalidate(Addr line)
{
    for (Entry &e : slots_) {
        if (e.valid && e.lineAddr == line) {
            e.valid = false;
            if (hooks_)
                hooks_->onPfbRemove(node_, line);
            return true;
        }
    }
    return false;
}

bool
PrefetchBuffer::downgrade(Addr line)
{
    for (Entry &e : slots_) {
        if (e.valid && e.lineAddr == line) {
            e.st = mem::LineState::Shared;
            if (hooks_)
                hooks_->onPfbDowngrade(node_, line);
            return true;
        }
    }
    return false;
}

int
PrefetchBuffer::occupancy() const
{
    int n = 0;
    for (const Entry &e : slots_)
        n += e.valid ? 1 : 0;
    return n;
}

void
PrefetchBuffer::clear()
{
    for (Entry &e : slots_)
        e.valid = false;
}

} // namespace alewife::proc
