/**
 * @file
 * Cross-process shared code store: the fleet's last cache tier.
 *
 * The paper's generational caches are strictly per-process; ShareJIT
 * showed that a fleet of processes executing the same shared libraries
 * wastes memory re-JITing identical code N times. Canonical trace
 * identity — cache::canonicalTraceId's (module uid, offset) packing —
 * makes the fix mechanical: a process-independent key space that one
 * shared persistent tier can serve for every process at once.
 *
 * SharedCodeStore is that tier. It is sharded by key hash with one
 * striped lock per shard (annotated for clang's thread-safety
 * analysis), so concurrent publishes from different processes contend
 * only when they land in the same shard. A shard keeps its entries in
 * a flat open-addressing table (the probe is on every private miss of
 * every process) plus a FIFO of resident keys in insertion order,
 * which drives both capacity eviction and module invalidation.
 *
 * Each per-process TierPipeline mounts the store behind its private
 * tiers: private capacity victims that earned promotion are
 * *published*; a second process publishing or probing the same
 * canonical key *attaches* to the existing entry instead of
 * re-inserting (the dedup that saves memory); unmapping a shared DLL
 * anywhere invalidates the module's entries for every process at once
 * (conservative, like ShareJIT's class-unload story).
 *
 * The store never emits per-process cache events: from one process's
 * cost model, shared hits are just hits in Generation::Shared, and a
 * shared capacity eviction surfaces later as an ordinary miss.
 *
 * Ordering note: the store has no global clock — publishing processes
 * run on unrelated virtual clocks — so entries and invalidations are
 * stamped with a store-local monotonic tick, which is what the
 * shr-unmap-stale analysis pass compares.
 */

#ifndef GENCACHE_CODECACHE_SHARED_STORE_H
#define GENCACHE_CODECACHE_SHARED_STORE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "codecache/fragment.h"
#include "support/thread_annotations.h"

namespace gencache::cache {

/** Sizing of a SharedCodeStore. */
struct SharedStoreConfig
{
    unsigned shards = 8;             ///< lock stripes (>= 1)
    std::uint64_t capacityBytes = 32ull << 20; ///< across all shards
    unsigned processLimit = 64;      ///< attach-mask width (<= 64)
};

/** Aggregate counters across all shards (snapshot). */
struct SharedStoreStats
{
    std::uint64_t probes = 0;
    std::uint64_t probeHits = 0;
    std::uint64_t publishes = 0;      ///< all publish() calls
    std::uint64_t inserts = 0;        ///< publishes that created entries
    std::uint64_t attaches = 0;       ///< first-time process attaches
    std::uint64_t duplicatePublishes = 0; ///< publisher already attached
    std::uint64_t rejectedPublishes = 0;  ///< entry larger than a shard
    std::uint64_t capacityEvictions = 0;
    std::uint64_t capacityEvictedBytes = 0;
    std::uint64_t unmapEvictions = 0;
    std::uint64_t unmapEvictedBytes = 0;
    std::uint64_t invalidations = 0;  ///< invalidateModule() calls
    std::uint64_t lockContentions = 0; ///< blocking shard-lock waits
};

/**
 * The sharded cross-process store. All entry points are safe to call
 * concurrently from any number of threads ("processes"); each shard's
 * state is guarded by its stripe lock.
 */
class SharedCodeStore
{
  public:
    /** Outcome of publish(). */
    enum class PublishResult : std::uint8_t {
        Inserted,        ///< first copy fleet-wide: entry created
        Attached,        ///< deduplicated against another process
        AlreadyAttached, ///< this process had already attached
        Rejected,        ///< larger than a whole shard
    };

    /** One shared trace (value snapshot for introspection). */
    struct Entry
    {
        TraceId key = kInvalidTrace; ///< canonical (uid, offset) id
        std::uint32_t sizeBytes = 0;
        std::uint64_t attachedMask = 0; ///< bit p: process p attached
        std::uint32_t attachCount = 0;  ///< popcount of attachedMask
        std::uint64_t insertTick = 0;   ///< store tick at insertion
    };

    explicit SharedCodeStore(SharedStoreConfig config);

    SharedCodeStore(const SharedCodeStore &) = delete;
    SharedCodeStore &operator=(const SharedCodeStore &) = delete;

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Per-shard byte budget (capacityBytes split evenly). */
    std::uint64_t shardCapacityBytes() const { return shardCapacity_; }

    unsigned processLimit() const { return config_.processLimit; }

    /** Owning shard of @p key among @p shard_count: pure function of
     *  the key, recomputable by the shr-shard-owner analysis pass. */
    static unsigned shardOf(TraceId key, unsigned shard_count)
    {
        // Multiplicative mix so sequential offsets spread across
        // shards instead of clustering in one stripe per module.
        std::uint64_t mixed = key * 0x9E3779B97F4A7C15ull;
        return static_cast<unsigned>((mixed >> 32) % shard_count);
    }

    /** Slot hash of @p key inside its shard's table: the home slot in
     *  a table of n (a power of two) slots is slotHash(key) & (n - 1).
     *  A different mix than shardOf's, whose high bits already picked
     *  the shard. Pure function of the key (tests craft colliding
     *  keys with it). */
    static std::uint64_t slotHash(TraceId key)
    {
        key ^= key >> 33;
        key *= 0xFF51AFD7ED558CCDull;
        key ^= key >> 33;
        return key;
    }

    /**
     * Lookup from process @p process. On hit the process attaches to
     * the entry (it now runs the shared copy, counted once for the
     * dedup metrics). @return true on hit. Panics on kInvalidTrace,
     * as publish() does: no trace can carry that key.
     */
    bool probe(TraceId key, unsigned process);

    /**
     * Offer the trace to the store from @p process (a private
     * last-tier capacity victim that earned promotion). Deduplicates:
     * when the key is already resident, the process attaches instead
     * of inserting a second copy. Creating an entry may FIFO-evict
     * older entries of the same shard.
     */
    PublishResult publish(TraceId key, std::uint32_t size_bytes,
                          unsigned process);

    /**
     * Cross-process invalidation: module @p uid was unmapped
     * somewhere, so every shard drops all its traces (every process
     * would republish a remapped DLL's traces under the same keys).
     */
    void invalidateModule(ModuleUid uid);

    /** @return true when @p key is resident in its shard. */
    bool contains(TraceId key) const;

    /** @return true when any entry of module @p uid is resident. */
    bool containsModule(ModuleUid uid) const;

    /** Resident bytes across shards (one copy per entry). */
    std::uint64_t usedBytes() const;

    /** Peak of usedBytes() (sum of per-shard peaks). */
    std::uint64_t peakUsedBytes() const;

    /**
     * Resident bytes *as claimed by attached processes*: the sum of
     * size x attachCount — what the same traces would occupy if every
     * process kept a private copy. claimedBytes() - usedBytes() is
     * the store's live dedup saving.
     */
    std::uint64_t claimedBytes() const;

    /** Peak of claimedBytes() (sum of per-shard peaks). */
    std::uint64_t peakClaimedBytes() const;

    std::size_t entryCount() const;

    SharedStoreStats stats() const;

    /** Store tick of the last invalidateModule(@p uid), 0 if none.
     *  Every surviving entry of @p uid must be newer (shr-unmap-stale
     *  checks exactly this). */
    std::uint64_t lastInvalidationTick(ModuleUid uid) const;

    /** Visit every resident entry as (shard index, entry snapshot),
     *  shard by shard in no particular order within a shard. Locks
     *  one shard at a time; the callback must not reenter the
     *  store. */
    void forEachEntry(
        const std::function<void(unsigned, const Entry &)> &fn) const;

    /** Internal consistency check (test support): byte accounting,
     *  FIFO membership, table reachability, and attach masks must
     *  agree. Panics on violation. */
    void validate() const;

  private:
    struct ShardStats
    {
        std::uint64_t probes = 0;
        std::uint64_t probeHits = 0;
        std::uint64_t publishes = 0;
        std::uint64_t inserts = 0;
        std::uint64_t attaches = 0;
        std::uint64_t duplicatePublishes = 0;
        std::uint64_t rejectedPublishes = 0;
        std::uint64_t capacityEvictions = 0;
        std::uint64_t capacityEvictedBytes = 0;
        std::uint64_t unmapEvictions = 0;
        std::uint64_t unmapEvictedBytes = 0;
    };

    /**
     * One shard's resident entries: an open-addressing table keyed by
     * Entry::key with linear probing over a power-of-two slot array
     * kept at most half full, kInvalidTrace marking empty slots, and
     * backward-shift erase (no tombstones). A probe is one hash and,
     * almost always, one cache line.
     */
    class EntryTable
    {
      public:
        /** @return the entry keyed @p key, or nullptr when absent.
         *  @p key must not be kInvalidTrace. */
        Entry *find(TraceId key);
        const Entry *find(TraceId key) const;

        /** Insert @p entry, whose key must be absent and valid.
         *  @return the resident copy. */
        Entry &insert(const Entry &entry);

        /** Remove the resident entry @p slot (a find() result). */
        void erase(Entry &slot);

        std::size_t size() const { return size_; }

        /** Visit every resident entry in slot order. */
        template <typename Fn> void forEach(Fn &&fn) const
        {
            for (const Entry &slot : slots_) {
                if (slot.key != kInvalidTrace) {
                    fn(slot);
                }
            }
        }

      private:
        std::size_t homeOf(TraceId key) const
        {
            return static_cast<std::size_t>(slotHash(key)) & mask_;
        }

        void grow();

        std::vector<Entry> slots_;
        std::size_t mask_ = 0;
        std::size_t size_ = 0;
    };

    struct Shard
    {
        mutable Mutex mutex;
        EntryTable entries GENCACHE_GUARDED_BY(mutex);
        std::deque<TraceId> fifo GENCACHE_GUARDED_BY(mutex);
        std::uint64_t usedBytes GENCACHE_GUARDED_BY(mutex) = 0;
        std::uint64_t peakUsedBytes GENCACHE_GUARDED_BY(mutex) = 0;
        std::uint64_t claimedBytes GENCACHE_GUARDED_BY(mutex) = 0;
        std::uint64_t peakClaimedBytes GENCACHE_GUARDED_BY(mutex) = 0;
        ShardStats stats GENCACHE_GUARDED_BY(mutex);
    };

    Shard &shardFor(TraceId key)
    {
        return shards_[shardOf(key, shardCount())];
    }
    const Shard &shardFor(TraceId key) const
    {
        return shards_[shardOf(key, shardCount())];
    }

    /** Lock @p shard, counting the wait when the stripe is contested
     *  (the bench's contention metric). */
    void lockShard(const Shard &shard) const
        GENCACHE_ACQUIRE(shard.mutex);

    /** Attach @p process to @p entry under the shard lock.
     *  @return true when this was a first-time attach. */
    bool attachLocked(Shard &shard, Entry &entry, unsigned process)
        GENCACHE_REQUIRES(shard.mutex);

    SharedStoreConfig config_;
    std::uint64_t shardCapacity_ = 0;
    // deque: Shard is immovable (Mutex), vector would need movability.
    std::deque<Shard> shards_;
    std::atomic<std::uint64_t> tick_{1};
    std::atomic<std::uint64_t> invalidationCalls_{0};
    mutable std::atomic<std::uint64_t> lockContentions_{0};

    mutable Mutex invalidationMutex_;
    std::unordered_map<ModuleUid, std::uint64_t> lastInvalidation_
        GENCACHE_GUARDED_BY(invalidationMutex_);
};

/** @return printable name of @p result. */
const char *publishResultName(SharedCodeStore::PublishResult result);

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_SHARED_STORE_H
