// Fleet simulation and the cross-process shared store.
//
// The two load-bearing promises of the shared tier:
//
//  1. Sharing OFF is free: an N-process fleet with no shared store is
//     bit-identical — SimResult counters, cost-model overhead (which
//     aggregates every cache event), manager/tier statistics, and
//     end-state residency — to N independent single-process replays.
//     Mounting the tier changes nothing until it is actually used.
//  2. Cross-process invalidation is complete: unmapping a shared DLL
//     anywhere drops the module's traces from EVERY shard, and any
//     entry that survives a storm postdates the invalidation tick
//     (the shr-* passes re-derive this from the end state).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <tuple>
#include <vector>

#include "analysis/shared_passes.h"
#include "codecache/shared_store.h"
#include "codecache/tier_pipeline.h"
#include "sim/batched_replay.h"
#include "sim/fleet.h"
#include "tracelog/compiled_log.h"
#include "workload/generator.h"

namespace {

using namespace gencache;
using cache::SharedCodeStore;

workload::FleetWorkloadConfig
smallFleet(unsigned storms, std::uint64_t seed,
           const std::string &prefix)
{
    workload::FleetWorkloadConfig config;
    config.processes = 8;
    config.sharedDlls = 3;
    config.sharedLibKb = 40.0;
    config.privateKb = 24.0;
    config.durationSec = 6.0;
    config.unmapStorms = storms;
    config.seed = seed;
    config.namePrefix = prefix;
    return config;
}

std::vector<tracelog::CompiledLog>
compileFleet(const workload::FleetWorkloadConfig &config)
{
    std::vector<tracelog::CompiledLog> compiled;
    for (const tracelog::AccessLog &log :
         workload::generateFleetWorkload(config)) {
        compiled.push_back(tracelog::CompiledLog::compile(log));
    }
    return compiled;
}

/** Sorted (tier, id, size, pinned) tuples: the pipeline's end-state
 *  residency, comparable across independently-built pipelines. */
std::vector<std::tuple<std::size_t, cache::TraceId, std::uint32_t, bool>>
residencyFingerprint(const cache::TierPipeline &pipeline)
{
    std::vector<
        std::tuple<std::size_t, cache::TraceId, std::uint32_t, bool>>
        out;
    for (std::size_t tier = 0; tier < pipeline.tierCount(); ++tier) {
        pipeline.tierCache(tier).forEach(
            [&out, tier](const cache::Fragment &frag) {
                out.emplace_back(tier, frag.id, frag.sizeBytes,
                                 frag.pinned);
            });
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
expectSameSim(const sim::SimResult &fleet, const sim::SimResult &solo)
{
    EXPECT_EQ(fleet.lookups, solo.lookups);
    EXPECT_EQ(fleet.hits, solo.hits);
    EXPECT_EQ(fleet.misses, solo.misses);
    EXPECT_EQ(fleet.regenerations, solo.regenerations);
    EXPECT_EQ(fleet.peakBytes, solo.peakBytes);
    EXPECT_EQ(fleet.createdTraces, solo.createdTraces);
    EXPECT_EQ(fleet.createdBytes, solo.createdBytes);

    const cache::ManagerStats &a = fleet.managerStats;
    const cache::ManagerStats &b = solo.managerStats;
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.insertedBytes, b.insertedBytes);
    EXPECT_EQ(a.deletions, b.deletions);
    EXPECT_EQ(a.deletedBytes, b.deletedBytes);
    EXPECT_EQ(a.unmapDeletions, b.unmapDeletions);
    EXPECT_EQ(a.unmapDeletedBytes, b.unmapDeletedBytes);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.promotedBytes, b.promotedBytes);
    EXPECT_EQ(a.probationRejections, b.probationRejections);
    EXPECT_EQ(a.placementFailures, b.placementFailures);

    // The overhead breakdown aggregates a cost per cache EVENT, so
    // equality here means the two replays emitted equivalent event
    // streams, not just matching end counters.
    EXPECT_EQ(fleet.overhead.traceGeneration,
              solo.overhead.traceGeneration);
    EXPECT_EQ(fleet.overhead.contextSwitches,
              solo.overhead.contextSwitches);
    EXPECT_EQ(fleet.overhead.evictions, solo.overhead.evictions);
    EXPECT_EQ(fleet.overhead.promotions, solo.overhead.promotions);
    EXPECT_EQ(fleet.overhead.copies, solo.overhead.copies);
}

TEST(FleetSharingOff, BitIdenticalToIndependentReplays)
{
    // Two fleets x eight per-process logs = sixteen distinct
    // workload profiles compared against their solo replays.
    for (unsigned storms : {0u, 2u}) {
        workload::FleetWorkloadConfig config = smallFleet(
            storms, /*seed=*/41 + storms,
            storms == 0 ? "calm" : "churn");
        std::vector<tracelog::CompiledLog> compiled =
            compileFleet(config);

        sim::FleetOptions options;
        options.sharing = false;
        sim::FleetSimulator fleet(compiled, options);
        sim::FleetResult result = fleet.run();
        ASSERT_EQ(result.processes.size(), compiled.size());
        EXPECT_FALSE(result.sharing);
        EXPECT_EQ(result.storeEntries, 0u);

        const cache::TierTopology *topology =
            cache::findTierTopology(options.topology);
        ASSERT_NE(topology, nullptr);
        for (std::size_t p = 0; p < compiled.size(); ++p) {
            std::unique_ptr<cache::TierPipeline> solo =
                topology->build(options.budgetBytes);
            sim::BatchedReplay replay(compiled[p]);
            replay.addLane(*solo);
            std::vector<sim::SimResult> solo_results = replay.run();
            ASSERT_EQ(solo_results.size(), 1u);

            SCOPED_TRACE("process " + std::to_string(p) +
                         " storms " + std::to_string(storms));
            expectSameSim(result.processes[p].sim, solo_results[0]);
            EXPECT_EQ(residencyFingerprint(fleet.pipeline(
                          static_cast<unsigned>(p))),
                      residencyFingerprint(*solo));
        }
    }
}

/** 64-bit FNV-1a over every FleetResult field the benchmark's
 *  result digest covers (and the rest of SimResult/ManagerStats):
 *  per-process replay results, manager and shared-tier statistics,
 *  the store's counters, peaks and entry count. */
std::uint64_t
fleetDigest(const sim::FleetResult &result)
{
    std::uint64_t hash = 14695981039346656037ull;
    auto add = [&hash](std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (8 * i)) & 0xffu;
            hash *= 1099511628211ull;
        }
    };
    add(result.sharing ? 1 : 0);
    for (const sim::FleetProcessResult &process : result.processes) {
        const sim::SimResult &sim = process.sim;
        for (std::uint64_t value :
             {sim.lookups, sim.hits, sim.misses, sim.regenerations,
              sim.peakBytes, sim.createdTraces, sim.createdBytes}) {
            add(value);
        }
        const cache::ManagerStats &stats = sim.managerStats;
        for (std::uint64_t value :
             {stats.lookups, stats.hits, stats.misses, stats.inserts,
              stats.insertedBytes, stats.deletions, stats.deletedBytes,
              stats.unmapDeletions, stats.unmapDeletedBytes,
              stats.promotions, stats.promotedBytes,
              stats.probationRejections, stats.placementFailures}) {
            add(value);
        }
        const cost::OverheadBreakdown &cost = sim.overhead;
        for (std::uint64_t value :
             {cost.traceGeneration, cost.contextSwitches,
              cost.evictions, cost.promotions, cost.copies}) {
            add(value);
        }
        const auto &shared = process.sharedTier;
        for (std::uint64_t value :
             {shared.probes, shared.hits, shared.publishes,
              shared.publishedInserts, shared.publishedAttaches,
              shared.publishedDuplicates, shared.publishedRejects,
              shared.invalidationsForwarded}) {
            add(value);
        }
    }
    const cache::SharedStoreStats &store = result.storeStats;
    for (std::uint64_t value :
         {store.probes, store.probeHits, store.publishes, store.inserts,
          store.attaches, store.duplicatePublishes,
          store.rejectedPublishes, store.capacityEvictions,
          store.capacityEvictedBytes, store.unmapEvictions,
          store.unmapEvictedBytes, store.invalidations,
          result.storePeakUsedBytes, result.storePeakClaimedBytes,
          result.storeEntries}) {
        add(value);
    }
    return hash;
}

TEST(FleetSharingOn, GoldenDigests)
{
    // Pinned round-robin results of the calm and the storm fleet, with
    // and without the shared store. The sharing-on digests were
    // recorded when those lanes still replayed through the per-event
    // lookup(), so they pin the sidecar's shared probe to it; a change
    // to the replay fast path or the store layout must leave every one
    // of these bit-identical.
    struct Golden
    {
        unsigned storms;
        std::uint64_t seed;
        bool sharing;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {0, 5, false, 0x0da4f606bbf3a2a2ull},
        {0, 5, true, 0xba171b37e431e7b3ull},
        {0, 6, false, 0x4b64ee559103f7e7ull},
        {0, 6, true, 0x8dc8114671b99417ull},
        {3, 5, false, 0x803d7861b62919e6ull},
        {3, 5, true, 0x2fe0d3076edede62ull},
        {3, 6, false, 0x1b28c653aced801cull},
        {3, 6, true, 0xb4dce45e16b8596bull},
    };
    for (const Golden &golden : goldens) {
        workload::FleetWorkloadConfig config =
            smallFleet(golden.storms, golden.seed,
                       golden.storms == 0 ? "office" : "storm");
        std::vector<tracelog::CompiledLog> compiled =
            compileFleet(config);

        sim::FleetOptions options;
        options.sharing = golden.sharing;
        options.budgetBytes = 32 * 1024;
        options.store.shards = 4;
        options.store.capacityBytes = 96 * 1024;
        sim::FleetSimulator fleet(compiled, options);
        sim::FleetResult result = fleet.run();

        SCOPED_TRACE("storms " + std::to_string(golden.storms) +
                     " seed " + std::to_string(golden.seed) +
                     (golden.sharing ? " shared" : " isolated"));
        EXPECT_EQ(fleetDigest(result), golden.digest);
        for (unsigned p = 0; p < fleet.processCount(); ++p) {
            fleet.pipeline(p).validate();
            if (golden.sharing) {
                EXPECT_TRUE(fleet.pipeline(p).fastReplayEnabled())
                    << "process " << p;
            }
        }
    }
}

TEST(FleetSharingOn, RoundRobinIsDeterministic)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/1, /*seed=*/7, "det");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    options.budgetBytes = 32 * 1024;
    options.store.shards = 4;
    options.store.capacityBytes = 256 * 1024;

    sim::FleetSimulator first(compiled, options);
    sim::FleetResult a = first.run();
    sim::FleetSimulator second(compiled, options);
    sim::FleetResult b = second.run();

    ASSERT_EQ(a.processes.size(), b.processes.size());
    for (std::size_t p = 0; p < a.processes.size(); ++p) {
        SCOPED_TRACE("process " + std::to_string(p));
        expectSameSim(a.processes[p].sim, b.processes[p].sim);
        EXPECT_EQ(a.processes[p].sharedTier.probes,
                  b.processes[p].sharedTier.probes);
        EXPECT_EQ(a.processes[p].sharedTier.hits,
                  b.processes[p].sharedTier.hits);
        EXPECT_EQ(a.processes[p].sharedTier.publishes,
                  b.processes[p].sharedTier.publishes);
    }
    EXPECT_EQ(a.storePeakUsedBytes, b.storePeakUsedBytes);
    EXPECT_EQ(a.storePeakClaimedBytes, b.storePeakClaimedBytes);
    EXPECT_EQ(a.storeEntries, b.storeEntries);
    EXPECT_EQ(a.storeStats.inserts, b.storeStats.inserts);
    EXPECT_EQ(a.storeStats.attaches, b.storeStats.attaches);
}

TEST(FleetSharingOn, FleetActuallyDeduplicates)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/0, /*seed=*/11, "dedup");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    // Half the per-process footprint: capacity evictions from the
    // last private tier are what publish into the store.
    options.budgetBytes = 32 * 1024;
    options.store.capacityBytes = 1024 * 1024;
    sim::FleetSimulator fleet(compiled, options);
    sim::FleetResult result = fleet.run();

    EXPECT_GT(result.dedupSavedBytes(), 0u);
    // Every process after the first publisher attaches instead of
    // inserting: well over one dedup attach per process.
    EXPECT_GT(result.storeStats.attaches - result.storeStats.inserts,
              result.processes.size());

    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(*fleet.store(), fleet.processCount(),
                               engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

TEST(SharedStoreUnmap, InvalidationSweepsEveryShard)
{
    cache::SharedStoreConfig config;
    config.shards = 8;
    config.capacityBytes = 8u << 20;
    SharedCodeStore store(config);

    const cache::ModuleUid doomed = cache::moduleUidOfName("doomed.dll");
    const cache::ModuleUid kept = cache::moduleUidOfName("kept.dll");
    // Enough keys that every shard holds entries of both modules.
    for (std::uint32_t i = 0; i < 128; ++i) {
        store.publish(cache::canonicalTraceId(doomed, i * 64), 64,
                      /*process=*/i % 4);
        store.publish(cache::canonicalTraceId(kept, i * 64), 64,
                      /*process=*/i % 4);
    }
    ASSERT_TRUE(store.containsModule(doomed));
    ASSERT_TRUE(store.containsModule(kept));

    store.invalidateModule(doomed);

    EXPECT_FALSE(store.containsModule(doomed));
    EXPECT_TRUE(store.containsModule(kept));
    store.forEachEntry([doomed](unsigned, const SharedCodeStore::Entry
                                             &entry) {
        EXPECT_NE(cache::traceIdUid(entry.key), doomed);
    });
    EXPECT_EQ(store.stats().unmapEvictions, 128u);
    EXPECT_EQ(store.stats().invalidations, 1u);
    EXPECT_GT(store.lastInvalidationTick(doomed), 0u);
    store.validate();

    // A post-invalidation republish is legitimately newer than the
    // invalidation tick — the shr-unmap-stale pass must stay quiet.
    store.publish(cache::canonicalTraceId(doomed, 0), 64, 0);
    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(store, 4, engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

/**
 * Naive SharedCodeStore written from the header contract: per shard a
 * std::map of entries plus a std::deque FIFO, the same store-local
 * tick, and the same counters. The differential test below drives it
 * in lockstep with the real store.
 */
class NaiveStore
{
  public:
    struct Entry
    {
        std::uint32_t sizeBytes = 0;
        std::uint64_t attachedMask = 0;
        std::uint32_t attachCount = 0;
        std::uint64_t insertTick = 0;
    };

    explicit NaiveStore(const cache::SharedStoreConfig &config)
        : shards_(config.shards),
          shardCapacity_(config.capacityBytes / config.shards)
    {
    }

    bool probe(cache::TraceId key, unsigned process)
    {
        Shard &shard = shardFor(key);
        ++stats_.probes;
        auto it = shard.entries.find(key);
        if (it == shard.entries.end()) {
            return false;
        }
        ++stats_.probeHits;
        attach(shard, it->second, process);
        return true;
    }

    SharedCodeStore::PublishResult publish(cache::TraceId key,
                                           std::uint32_t size_bytes,
                                           unsigned process)
    {
        Shard &shard = shardFor(key);
        ++stats_.publishes;
        auto it = shard.entries.find(key);
        if (it != shard.entries.end()) {
            if (attach(shard, it->second, process)) {
                return SharedCodeStore::PublishResult::Attached;
            }
            ++stats_.duplicatePublishes;
            return SharedCodeStore::PublishResult::AlreadyAttached;
        }
        if (size_bytes > shardCapacity_) {
            ++stats_.rejectedPublishes;
            return SharedCodeStore::PublishResult::Rejected;
        }
        while (shard.used + size_bytes > shardCapacity_) {
            const cache::TraceId victim = shard.fifo.front();
            shard.fifo.pop_front();
            const Entry entry = shard.entries.at(victim);
            shard.entries.erase(victim);
            shard.used -= entry.sizeBytes;
            shard.claimed -= std::uint64_t{entry.sizeBytes} *
                             entry.attachCount;
            ++stats_.capacityEvictions;
            stats_.capacityEvictedBytes += entry.sizeBytes;
        }
        Entry &entry = shard.entries[key];
        entry.sizeBytes = size_bytes;
        entry.insertTick = tick_++;
        shard.fifo.push_back(key);
        shard.used += size_bytes;
        shard.peakUsed = std::max(shard.peakUsed, shard.used);
        ++stats_.inserts;
        attach(shard, entry, process);
        return SharedCodeStore::PublishResult::Inserted;
    }

    void invalidateModule(cache::ModuleUid uid)
    {
        lastInvalidation_[uid] = tick_++;
        ++stats_.invalidations;
        for (Shard &shard : shards_) {
            std::deque<cache::TraceId> kept;
            for (cache::TraceId key : shard.fifo) {
                if (cache::traceIdUid(key) != uid) {
                    kept.push_back(key);
                    continue;
                }
                const Entry entry = shard.entries.at(key);
                shard.entries.erase(key);
                shard.used -= entry.sizeBytes;
                shard.claimed -= std::uint64_t{entry.sizeBytes} *
                                 entry.attachCount;
                ++stats_.unmapEvictions;
                stats_.unmapEvictedBytes += entry.sizeBytes;
            }
            shard.fifo = std::move(kept);
        }
    }

    /** Compare every observable of @p store against the model. */
    void expectMatches(const SharedCodeStore &store,
                       const std::vector<cache::TraceId> &keys,
                       const std::vector<cache::ModuleUid> &uids) const
    {
        const cache::SharedStoreStats got = store.stats();
        EXPECT_EQ(got.probes, stats_.probes);
        EXPECT_EQ(got.probeHits, stats_.probeHits);
        EXPECT_EQ(got.publishes, stats_.publishes);
        EXPECT_EQ(got.inserts, stats_.inserts);
        EXPECT_EQ(got.attaches, stats_.attaches);
        EXPECT_EQ(got.duplicatePublishes, stats_.duplicatePublishes);
        EXPECT_EQ(got.rejectedPublishes, stats_.rejectedPublishes);
        EXPECT_EQ(got.capacityEvictions, stats_.capacityEvictions);
        EXPECT_EQ(got.capacityEvictedBytes,
                  stats_.capacityEvictedBytes);
        EXPECT_EQ(got.unmapEvictions, stats_.unmapEvictions);
        EXPECT_EQ(got.unmapEvictedBytes, stats_.unmapEvictedBytes);
        EXPECT_EQ(got.invalidations, stats_.invalidations);

        std::size_t entries = 0;
        std::uint64_t used = 0;
        std::uint64_t claimed = 0;
        std::uint64_t peak_used = 0;
        std::uint64_t peak_claimed = 0;
        for (const Shard &shard : shards_) {
            entries += shard.entries.size();
            used += shard.used;
            claimed += shard.claimed;
            peak_used += shard.peakUsed;
            peak_claimed += shard.peakClaimed;
        }
        EXPECT_EQ(store.entryCount(), entries);
        EXPECT_EQ(store.usedBytes(), used);
        EXPECT_EQ(store.claimedBytes(), claimed);
        EXPECT_EQ(store.peakUsedBytes(), peak_used);
        EXPECT_EQ(store.peakClaimedBytes(), peak_claimed);
        for (cache::TraceId key : keys) {
            EXPECT_EQ(store.contains(key),
                      shardFor(key).entries.count(key) != 0)
                << "key " << key;
        }
        for (cache::ModuleUid uid : uids) {
            auto it = lastInvalidation_.find(uid);
            EXPECT_EQ(store.lastInvalidationTick(uid),
                      it == lastInvalidation_.end() ? 0 : it->second);
        }
    }

    /** (shard, key, size, mask, count, tick) of every entry. */
    using Row = std::tuple<unsigned, cache::TraceId, std::uint32_t,
                           std::uint64_t, std::uint32_t, std::uint64_t>;

    std::vector<Row> rows() const
    {
        std::vector<Row> out;
        for (unsigned s = 0; s < shards_.size(); ++s) {
            for (const auto &[key, entry] : shards_[s].entries) {
                out.emplace_back(s, key, entry.sizeBytes,
                                 entry.attachedMask, entry.attachCount,
                                 entry.insertTick);
            }
        }
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    struct Shard
    {
        std::map<cache::TraceId, Entry> entries;
        std::deque<cache::TraceId> fifo;
        std::uint64_t used = 0;
        std::uint64_t peakUsed = 0;
        std::uint64_t claimed = 0;
        std::uint64_t peakClaimed = 0;
    };

    Shard &shardFor(cache::TraceId key)
    {
        return shards_[SharedCodeStore::shardOf(
            key, static_cast<unsigned>(shards_.size()))];
    }
    const Shard &shardFor(cache::TraceId key) const
    {
        return shards_[SharedCodeStore::shardOf(
            key, static_cast<unsigned>(shards_.size()))];
    }

    bool attach(Shard &shard, Entry &entry, unsigned process)
    {
        const std::uint64_t bit = 1ull << process;
        if ((entry.attachedMask & bit) != 0) {
            return false;
        }
        entry.attachedMask |= bit;
        ++entry.attachCount;
        shard.claimed += entry.sizeBytes;
        shard.peakClaimed = std::max(shard.peakClaimed, shard.claimed);
        ++stats_.attaches;
        return true;
    }

    std::vector<Shard> shards_;
    std::uint64_t shardCapacity_;
    std::uint64_t tick_ = 1;
    cache::SharedStoreStats stats_;
    std::map<cache::ModuleUid, std::uint64_t> lastInvalidation_;
};

TEST(SharedStoreModel, MatchesNaiveModelUnderRandomTraffic)
{
    const std::vector<cache::ModuleUid> uids = {
        cache::moduleUidOfName("a.dll"), cache::moduleUidOfName("b.dll"),
        cache::moduleUidOfName("c.dll"), cache::moduleUidOfName("d.dll")};
    // Per module: a handful of keys whose home is the last slot of
    // every table up to 64 slots (their clusters wrap past the end,
    // so erasing one shifts entries back across slot 0), plus
    // ordinary keys.
    std::vector<cache::TraceId> keys;
    for (cache::ModuleUid uid : uids) {
        unsigned wrapping = 0;
        for (std::uint32_t offset = 0; wrapping < 6; offset += 16) {
            const cache::TraceId key =
                cache::canonicalTraceId(uid, offset);
            if ((SharedCodeStore::slotHash(key) & 63) == 63) {
                keys.push_back(key);
                ++wrapping;
            }
        }
        for (std::uint32_t i = 0; i < 30; ++i) {
            keys.push_back(cache::canonicalTraceId(uid, 1 + i * 40));
        }
    }

    for (unsigned shards : {1u, 3u, 8u}) {
        for (std::uint64_t seed : {1u, 2u}) {
            SCOPED_TRACE("shards " + std::to_string(shards) + " seed " +
                         std::to_string(seed));
            cache::SharedStoreConfig config;
            config.shards = shards;
            // Tight: a shard holds about ten average entries, so
            // tables grow past their first size and publishes evict.
            config.capacityBytes = shards * 1500ull;
            config.processLimit = 6;
            SharedCodeStore store(config);
            NaiveStore model(config);

            std::mt19937_64 rng(seed);
            auto pick = [&rng](std::uint64_t n) {
                return static_cast<std::size_t>(rng() % n);
            };
            for (int step = 0; step < 2500; ++step) {
                const cache::TraceId key = keys[pick(keys.size())];
                const unsigned process =
                    static_cast<unsigned>(pick(config.processLimit));
                const std::size_t op = pick(100);
                if (op < 45) {
                    ASSERT_EQ(store.probe(key, process),
                              model.probe(key, process))
                        << "step " << step;
                } else if (op < 97) {
                    // Mostly small traces; now and then one wider
                    // than a whole shard.
                    const std::uint32_t size =
                        op == 96 ? 2000
                                 : 16 + static_cast<std::uint32_t>(
                                            pick(240));
                    ASSERT_EQ(store.publish(key, size, process),
                              model.publish(key, size, process))
                        << "step " << step;
                } else {
                    const cache::ModuleUid uid = uids[pick(uids.size())];
                    store.invalidateModule(uid);
                    model.invalidateModule(uid);
                }
                store.validate();
                model.expectMatches(store, keys, uids);
                if (testing::Test::HasFailure()) {
                    FAIL() << "diverged at step " << step;
                }
            }

            std::vector<NaiveStore::Row> rows;
            store.forEachEntry(
                [&rows](unsigned shard,
                        const SharedCodeStore::Entry &entry) {
                    rows.emplace_back(shard, entry.key, entry.sizeBytes,
                                      entry.attachedMask,
                                      entry.attachCount,
                                      entry.insertTick);
                });
            std::sort(rows.begin(), rows.end());
            ASSERT_EQ(rows, model.rows());
            ASSERT_GT(store.stats().capacityEvictions, 0u);
            ASSERT_GT(store.stats().unmapEvictions, 0u);
            ASSERT_GT(store.stats().rejectedPublishes, 0u);
        }
    }
}

TEST(SharedStoreDeath, ProbeOfInvalidKeyPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    SharedCodeStore store(cache::SharedStoreConfig{});
    EXPECT_DEATH(store.probe(cache::kInvalidTrace, 0),
                 "cannot probe the invalid trace id");
}

TEST(SharedStoreDeath, KeyPastTheSharedKeyTablePanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const cache::TierTopology *topology =
        cache::findTierTopology("2tier");
    ASSERT_NE(topology, nullptr);
    std::unique_ptr<cache::TierPipeline> pipeline =
        topology->build(64 * 1024);
    const cache::TraceId keys[] = {
        cache::canonicalTraceId(cache::moduleUidOfName("k.dll"), 0),
        cache::canonicalTraceId(cache::moduleUidOfName("k.dll"), 64)};
    pipeline->setSharedKeyTable(keys, 2);
    EXPECT_EQ(pipeline->sharedKeyOf(1), keys[1]);
    EXPECT_DEATH(pipeline->sharedKeyOf(2),
                 "lies past the shared key table");
}

TEST(FleetStorm, StormFleetLeavesNoStaleEntries)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/3, /*seed=*/23, "storm");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    options.budgetBytes = 32 * 1024;
    options.store.shards = 8;
    options.store.capacityBytes = 1024 * 1024;
    sim::FleetSimulator fleet(compiled, options);
    sim::FleetResult result = fleet.run();

    // Every process forwards every storm's unload to the store.
    EXPECT_EQ(result.storeStats.invalidations,
              3u * config.processes);
    EXPECT_GT(result.storeStats.unmapEvictions, 0u);

    // shr-unmap-stale (among the rest) over the end state: any entry
    // of a stormed DLL that survived must postdate the invalidation.
    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(*fleet.store(), fleet.processCount(),
                               engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

TEST(SharedPasses, AttachOutsideFleetIsReported)
{
    SharedCodeStore store(cache::SharedStoreConfig{});
    const cache::ModuleUid uid = cache::moduleUidOfName("lib.dll");
    store.publish(cache::canonicalTraceId(uid, 0), 128,
                  /*process=*/5);

    // Claiming the fleet only had two processes makes process 5's
    // attach an out-of-fleet bit.
    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(store, /*fleet_processes=*/2, engine);
    EXPECT_TRUE(engine.hasCheck("shr-attach-bounds"));
    EXPECT_FALSE(engine.hasCheck("shr-orphan"));
}

TEST(FleetThreaded, RacingProcessesLeaveConsistentStore)
{
    workload::FleetWorkloadConfig config =
        smallFleet(/*storms=*/2, /*seed=*/99, "race");
    std::vector<tracelog::CompiledLog> compiled = compileFleet(config);

    sim::FleetOptions options;
    options.budgetBytes = 32 * 1024;
    options.store.shards = 4; // fewer stripes -> more contention
    options.store.capacityBytes = 512 * 1024;
    sim::FleetSimulator fleet(compiled, options);
    sim::FleetResult result = fleet.runThreaded();

    // Whatever the interleaving, the store's structural invariants
    // hold (collect() already ran validate(); re-derive via the
    // shr-* passes too) and the fleet-wide conservation identity
    // survives: the store's publish count is exactly the sum of the
    // publish outcomes the pipelines observed.
    std::uint64_t pipeline_publishes = 0;
    for (const sim::FleetProcessResult &process : result.processes) {
        pipeline_publishes += process.sharedTier.publishes;
        EXPECT_EQ(process.sharedTier.publishes,
                  process.sharedTier.publishedInserts +
                      process.sharedTier.publishedAttaches +
                      process.sharedTier.publishedDuplicates +
                      process.sharedTier.publishedRejects);
    }
    EXPECT_EQ(result.storeStats.publishes, pipeline_publishes);
    EXPECT_EQ(result.storeStats.invalidations,
              2u * config.processes);

    analysis::DiagnosticEngine engine;
    analysis::checkSharedStore(*fleet.store(), fleet.processCount(),
                               engine);
    EXPECT_EQ(engine.textReport(), "no diagnostics\n");
}

} // namespace
