#include "codecache/shared_store.h"

#include <bit>

#include "support/logging.h"

namespace gencache::cache {

SharedCodeStore::SharedCodeStore(SharedStoreConfig config)
    : config_(config)
{
    if (config_.shards == 0) {
        fatal("shared store needs at least one shard");
    }
    if (config_.processLimit == 0 || config_.processLimit > 64) {
        fatal("shared store process limit {} outside 1..64",
              config_.processLimit);
    }
    if (config_.capacityBytes < config_.shards) {
        fatal("shared store capacity {} B cannot cover {} shards",
              config_.capacityBytes, config_.shards);
    }
    shardCapacity_ = config_.capacityBytes / config_.shards;
    shards_.resize(config_.shards);
}

void
SharedCodeStore::lockShard(const Shard &shard) const
    GENCACHE_NO_THREAD_SAFETY_ANALYSIS
{
    // try_lock first purely to observe contention; the analysis can't
    // follow the two-step acquire, hence the local opt-out (the
    // GENCACHE_ACQUIRE contract in the header still holds on return).
    if (shard.mutex.try_lock()) {
        return;
    }
    lockContentions_.fetch_add(1, std::memory_order_relaxed);
    shard.mutex.lock();
}

// --- EntryTable ---

SharedCodeStore::Entry *
SharedCodeStore::EntryTable::find(TraceId key)
{
    if (size_ == 0) {
        return nullptr;
    }
    for (std::size_t i = homeOf(key);; i = (i + 1) & mask_) {
        Entry &slot = slots_[i];
        if (slot.key == key) {
            return &slot;
        }
        if (slot.key == kInvalidTrace) {
            return nullptr;
        }
    }
}

const SharedCodeStore::Entry *
SharedCodeStore::EntryTable::find(TraceId key) const
{
    return const_cast<EntryTable *>(this)->find(key);
}

SharedCodeStore::Entry &
SharedCodeStore::EntryTable::insert(const Entry &entry)
{
    if (2 * (size_ + 1) > slots_.size()) {
        grow();
    }
    std::size_t i = homeOf(entry.key);
    while (slots_[i].key != kInvalidTrace) {
        i = (i + 1) & mask_;
    }
    slots_[i] = entry;
    ++size_;
    return slots_[i];
}

void
SharedCodeStore::EntryTable::erase(Entry &slot)
{
    // Backward-shift deletion: walk the cluster after the hole and
    // pull back every entry whose home slot lies at or before the
    // hole, so lookups never need tombstones.
    std::size_t hole = static_cast<std::size_t>(&slot - slots_.data());
    for (std::size_t i = (hole + 1) & mask_;
         slots_[i].key != kInvalidTrace; i = (i + 1) & mask_) {
        const std::size_t home = homeOf(slots_[i].key);
        if (((i - home) & mask_) >= ((i - hole) & mask_)) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole] = Entry{};
    --size_;
}

void
SharedCodeStore::EntryTable::grow()
{
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Entry{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Entry &entry : old) {
        if (entry.key != kInvalidTrace) {
            insert(entry);
        }
    }
}

// --- SharedCodeStore ---

bool
SharedCodeStore::attachLocked(Shard &shard, Entry &entry,
                              unsigned process)
{
    std::uint64_t bit = 1ull << process;
    if ((entry.attachedMask & bit) != 0) {
        return false;
    }
    entry.attachedMask |= bit;
    entry.attachCount += 1;
    shard.claimedBytes += entry.sizeBytes;
    if (shard.claimedBytes > shard.peakClaimedBytes) {
        shard.peakClaimedBytes = shard.claimedBytes;
    }
    shard.stats.attaches += 1;
    return true;
}

bool
SharedCodeStore::probe(TraceId key, unsigned process)
{
    if (process >= config_.processLimit) {
        GENCACHE_PANIC("process index {} exceeds shared-store limit {}",
                       process, config_.processLimit);
    }
    if (key == kInvalidTrace) {
        GENCACHE_PANIC("cannot probe the invalid trace id");
    }
    Shard &shard = shardFor(key);
    lockShard(shard);
    shard.stats.probes += 1;
    Entry *entry = shard.entries.find(key);
    const bool hit = entry != nullptr;
    if (hit) {
        shard.stats.probeHits += 1;
        attachLocked(shard, *entry, process);
    }
    shard.mutex.unlock();
    return hit;
}

SharedCodeStore::PublishResult
SharedCodeStore::publish(TraceId key, std::uint32_t size_bytes,
                         unsigned process)
{
    if (process >= config_.processLimit) {
        GENCACHE_PANIC("process index {} exceeds shared-store limit {}",
                       process, config_.processLimit);
    }
    if (key == kInvalidTrace) {
        GENCACHE_PANIC("cannot publish the invalid trace id");
    }
    Shard &shard = shardFor(key);
    lockShard(shard);
    shard.stats.publishes += 1;

    if (Entry *resident = shard.entries.find(key)) {
        // Deduplicated: another copy of the same canonical trace is
        // already resident; the publisher just attaches to it.
        bool fresh = attachLocked(shard, *resident, process);
        if (!fresh) {
            shard.stats.duplicatePublishes += 1;
        }
        shard.mutex.unlock();
        return fresh ? PublishResult::Attached
                     : PublishResult::AlreadyAttached;
    }

    if (size_bytes > shardCapacity_) {
        shard.stats.rejectedPublishes += 1;
        shard.mutex.unlock();
        return PublishResult::Rejected;
    }

    // FIFO-evict until the new entry fits its shard's budget.
    while (shard.usedBytes + size_bytes > shardCapacity_) {
        TraceId victim = shard.fifo.front();
        shard.fifo.pop_front();
        Entry *evicted = shard.entries.find(victim);
        if (evicted == nullptr) {
            GENCACHE_PANIC("shared-store FIFO names missing entry {}",
                           victim);
        }
        shard.usedBytes -= evicted->sizeBytes;
        shard.claimedBytes -=
            static_cast<std::uint64_t>(evicted->sizeBytes) *
            evicted->attachCount;
        shard.stats.capacityEvictions += 1;
        shard.stats.capacityEvictedBytes += evicted->sizeBytes;
        shard.entries.erase(*evicted);
    }

    Entry fresh;
    fresh.key = key;
    fresh.sizeBytes = size_bytes;
    fresh.insertTick = tick_.fetch_add(1, std::memory_order_relaxed);
    Entry &entry = shard.entries.insert(fresh);
    shard.fifo.push_back(key);
    shard.usedBytes += size_bytes;
    if (shard.usedBytes > shard.peakUsedBytes) {
        shard.peakUsedBytes = shard.usedBytes;
    }
    shard.stats.inserts += 1;
    attachLocked(shard, entry, process);
    shard.mutex.unlock();
    return PublishResult::Inserted;
}

void
SharedCodeStore::invalidateModule(ModuleUid uid)
{
    // Stamp the invalidation *before* sweeping: any entry inserted
    // after this tick raced past the unmap and is legitimately newer
    // (a republish of the remapped image).
    std::uint64_t stamp =
        tick_.fetch_add(1, std::memory_order_relaxed);
    invalidationCalls_.fetch_add(1, std::memory_order_relaxed);
    {
        MutexLock lock(invalidationMutex_);
        lastInvalidation_[uid] = stamp;
    }
    for (Shard &shard : shards_) {
        lockShard(shard);
        // The FIFO lists every resident key, so one pass over it both
        // finds the module's entries and compacts the survivors in
        // order.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < shard.fifo.size(); ++i) {
            const TraceId key = shard.fifo[i];
            if (traceIdUid(key) != uid) {
                shard.fifo[kept++] = key;
                continue;
            }
            Entry *entry = shard.entries.find(key);
            if (entry == nullptr) {
                GENCACHE_PANIC(
                    "shared-store FIFO names missing entry {}", key);
            }
            shard.usedBytes -= entry->sizeBytes;
            shard.claimedBytes -=
                static_cast<std::uint64_t>(entry->sizeBytes) *
                entry->attachCount;
            shard.stats.unmapEvictions += 1;
            shard.stats.unmapEvictedBytes += entry->sizeBytes;
            shard.entries.erase(*entry);
        }
        shard.fifo.resize(kept);
        shard.mutex.unlock();
    }
}

bool
SharedCodeStore::contains(TraceId key) const
{
    if (key == kInvalidTrace) {
        return false;
    }
    const Shard &shard = shardFor(key);
    lockShard(shard);
    bool hit = shard.entries.find(key) != nullptr;
    shard.mutex.unlock();
    return hit;
}

bool
SharedCodeStore::containsModule(ModuleUid uid) const
{
    for (const Shard &shard : shards_) {
        lockShard(shard);
        bool found = false;
        for (TraceId key : shard.fifo) {
            if (traceIdUid(key) == uid) {
                found = true;
                break;
            }
        }
        shard.mutex.unlock();
        if (found) {
            return true;
        }
    }
    return false;
}

std::uint64_t
SharedCodeStore::usedBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        lockShard(shard);
        total += shard.usedBytes;
        shard.mutex.unlock();
    }
    return total;
}

std::uint64_t
SharedCodeStore::peakUsedBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        lockShard(shard);
        total += shard.peakUsedBytes;
        shard.mutex.unlock();
    }
    return total;
}

std::uint64_t
SharedCodeStore::claimedBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        lockShard(shard);
        total += shard.claimedBytes;
        shard.mutex.unlock();
    }
    return total;
}

std::uint64_t
SharedCodeStore::peakClaimedBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        lockShard(shard);
        total += shard.peakClaimedBytes;
        shard.mutex.unlock();
    }
    return total;
}

std::size_t
SharedCodeStore::entryCount() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_) {
        lockShard(shard);
        total += shard.entries.size();
        shard.mutex.unlock();
    }
    return total;
}

SharedStoreStats
SharedCodeStore::stats() const
{
    SharedStoreStats out;
    for (const Shard &shard : shards_) {
        lockShard(shard);
        out.probes += shard.stats.probes;
        out.probeHits += shard.stats.probeHits;
        out.publishes += shard.stats.publishes;
        out.inserts += shard.stats.inserts;
        out.attaches += shard.stats.attaches;
        out.duplicatePublishes += shard.stats.duplicatePublishes;
        out.rejectedPublishes += shard.stats.rejectedPublishes;
        out.capacityEvictions += shard.stats.capacityEvictions;
        out.capacityEvictedBytes += shard.stats.capacityEvictedBytes;
        out.unmapEvictions += shard.stats.unmapEvictions;
        out.unmapEvictedBytes += shard.stats.unmapEvictedBytes;
        shard.mutex.unlock();
    }
    out.invalidations =
        invalidationCalls_.load(std::memory_order_relaxed);
    out.lockContentions =
        lockContentions_.load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
SharedCodeStore::lastInvalidationTick(ModuleUid uid) const
{
    MutexLock lock(invalidationMutex_);
    auto it = lastInvalidation_.find(uid);
    return it == lastInvalidation_.end() ? 0 : it->second;
}

void
SharedCodeStore::forEachEntry(
    const std::function<void(unsigned, const Entry &)> &fn) const
{
    for (unsigned s = 0; s < shardCount(); ++s) {
        const Shard &shard = shards_[s];
        lockShard(shard);
        shard.entries.forEach(
            [&](const Entry &entry) { fn(s, entry); });
        shard.mutex.unlock();
    }
}

void
SharedCodeStore::validate() const
{
    for (unsigned s = 0; s < shardCount(); ++s) {
        const Shard &shard = shards_[s];
        lockShard(shard);
        std::uint64_t used = 0;
        std::uint64_t claimed = 0;
        const EntryTable &table = shard.entries;
        table.forEach([&](const Entry &entry) {
            const TraceId key = entry.key;
            if (shardOf(key, shardCount()) != s) {
                GENCACHE_PANIC(
                    "entry {} resident in shard {} but owned by {}",
                    key, s, shardOf(key, shardCount()));
            }
            if (table.find(key) != &entry) {
                GENCACHE_PANIC("entry {} unreachable from its home "
                               "slot in shard {}",
                               key, s);
            }
            if (static_cast<unsigned>(
                    std::popcount(entry.attachedMask)) !=
                entry.attachCount) {
                GENCACHE_PANIC(
                    "entry {} attach count {} disagrees with mask",
                    key, entry.attachCount);
            }
            if (entry.attachCount == 0) {
                GENCACHE_PANIC("entry {} resident with no attached "
                               "process",
                               key);
            }
            used += entry.sizeBytes;
            claimed += static_cast<std::uint64_t>(entry.sizeBytes) *
                       entry.attachCount;
        });
        if (used != shard.usedBytes || claimed != shard.claimedBytes) {
            GENCACHE_PANIC(
                "shard {} byte accounting drifted ({} used vs {}, {} "
                "claimed vs {})",
                s, shard.usedBytes, used, shard.claimedBytes, claimed);
        }
        if (used > shardCapacity_) {
            GENCACHE_PANIC("shard {} over budget: {} of {} bytes", s,
                           used, shardCapacity_);
        }
        if (shard.fifo.size() != shard.entries.size()) {
            GENCACHE_PANIC(
                "shard {} FIFO tracks {} entries but table holds {}", s,
                shard.fifo.size(), shard.entries.size());
        }
        for (TraceId id : shard.fifo) {
            if (shard.entries.find(id) == nullptr) {
                GENCACHE_PANIC(
                    "shard {} FIFO names non-resident entry {}", s,
                    id);
            }
        }
        shard.mutex.unlock();
    }
}

const char *
publishResultName(SharedCodeStore::PublishResult result)
{
    switch (result) {
    case SharedCodeStore::PublishResult::Inserted:
        return "inserted";
    case SharedCodeStore::PublishResult::Attached:
        return "attached";
    case SharedCodeStore::PublishResult::AlreadyAttached:
        return "already-attached";
    case SharedCodeStore::PublishResult::Rejected:
        return "rejected";
    }
    return "?";
}

} // namespace gencache::cache
