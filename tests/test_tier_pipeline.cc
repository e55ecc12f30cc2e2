/**
 * @file
 * The tier-pipeline equivalence suite.
 *
 * The refactor's contract is that GenerationalCacheManager and
 * UnifiedCacheManager, now thin adapters over TierPipeline, are
 * bit-identical to the pre-refactor monoliths — same SimResult
 * counters AND the same listener event stream, event for event, field
 * for field. tests/reference_managers.h holds verbatim frozen copies
 * of the old managers; every test here replays the same workload
 * through a frozen reference and its pipeline re-expression and
 * demands equality.
 *
 * Also covered: the fromProportions exact-sum guarantee, pin-bit
 * survival across tier moves, the temperature promotion policy, the
 * pipeline's event-order contracts, and the non-legacy topology
 * catalog end-to-end (sweep, static checks, cost model).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "codecache/generational_cache.h"
#include "codecache/list_cache.h"
#include "codecache/tier_pipeline.h"
#include "codecache/unified_cache.h"
#include "reference_managers.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/units.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace gencache::workload {

// Names each per-profile test instance after its profile in ctest.
void
PrintTo(const BenchmarkProfile &profile, std::ostream *os)
{
    *os << profile.name;
}

} // namespace gencache::workload

namespace {

using namespace gencache;

std::uint64_t
profileCapacity(const workload::BenchmarkProfile &profile)
{
    auto capacity = static_cast<std::uint64_t>(
        profile.finalCacheKb * static_cast<double>(kKiB) / 2.0);
    return capacity < 4096 ? 4096 : capacity;
}

void
expectIdentical(const sim::SimResult &a, const sim::SimResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.benchmark, b.benchmark) << what;
    EXPECT_EQ(a.lookups, b.lookups) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.regenerations, b.regenerations) << what;
    EXPECT_EQ(a.peakBytes, b.peakBytes) << what;
    EXPECT_EQ(a.createdTraces, b.createdTraces) << what;
    EXPECT_EQ(a.createdBytes, b.createdBytes) << what;

    const cache::ManagerStats &x = a.managerStats;
    const cache::ManagerStats &y = b.managerStats;
    EXPECT_EQ(x.lookups, y.lookups) << what;
    EXPECT_EQ(x.hits, y.hits) << what;
    EXPECT_EQ(x.misses, y.misses) << what;
    EXPECT_EQ(x.inserts, y.inserts) << what;
    EXPECT_EQ(x.insertedBytes, y.insertedBytes) << what;
    EXPECT_EQ(x.deletions, y.deletions) << what;
    EXPECT_EQ(x.deletedBytes, y.deletedBytes) << what;
    EXPECT_EQ(x.unmapDeletions, y.unmapDeletions) << what;
    EXPECT_EQ(x.unmapDeletedBytes, y.unmapDeletedBytes) << what;
    EXPECT_EQ(x.promotions, y.promotions) << what;
    EXPECT_EQ(x.promotedBytes, y.promotedBytes) << what;
    EXPECT_EQ(x.probationRejections, y.probationRejections) << what;
    EXPECT_EQ(x.placementFailures, y.placementFailures) << what;

    EXPECT_EQ(a.overhead.traceGeneration, b.overhead.traceGeneration)
        << what;
    EXPECT_EQ(a.overhead.contextSwitches, b.overhead.contextSwitches)
        << what;
    EXPECT_EQ(a.overhead.evictions, b.overhead.evictions) << what;
    EXPECT_EQ(a.overhead.promotions, b.overhead.promotions) << what;
    EXPECT_EQ(a.overhead.copies, b.overhead.copies) << what;
}

class TierEquivalenceByProfile
    : public ::testing::TestWithParam<workload::BenchmarkProfile>
{
};

// One replay profile per test instance, one streaming pass: a frozen
// reference lane and its pipeline re-expression lane must report
// identical results — generational (plain and eager) and unified
// alike.
TEST_P(TierEquivalenceByProfile, SimResultsBitIdentical)
{
    const workload::BenchmarkProfile &profile = GetParam();
    tracelog::AccessLog log = workload::generateWorkload(profile);
    tracelog::CompiledLog compiled = tracelog::CompiledLog::compile(log);
    std::uint64_t capacity = profileCapacity(profile);

    cache::GenerationalConfig plain =
        cache::GenerationalConfig::fromProportions(
            capacity, 0.45, 0.10, /*threshold=*/1);
    cache::GenerationalConfig eager =
        cache::GenerationalConfig::fromProportions(
            capacity, 1.0 / 3.0, 1.0 / 3.0, /*threshold=*/2,
            /*eager=*/true);

    cache::reference::ReferenceGenerationalManager refPlain(plain);
    cache::GenerationalCacheManager newPlain(plain);
    cache::reference::ReferenceGenerationalManager refEager(eager);
    cache::GenerationalCacheManager newEager(eager);
    cache::reference::ReferenceUnifiedManager refUnified(capacity);
    cache::UnifiedCacheManager newUnified(capacity);

    sim::BatchedReplay replay(compiled);
    replay.addLane(refPlain);
    replay.addLane(newPlain);
    replay.addLane(refEager);
    replay.addLane(newEager);
    replay.addLane(refUnified);
    replay.addLane(newUnified);
    std::vector<sim::SimResult> results = replay.run();
    ASSERT_EQ(results.size(), 6u);

    expectIdentical(results[0], results[1],
                    profile.name + " generational 45-10-45");
    expectIdentical(results[2], results[3],
                    profile.name + " generational eager");
    expectIdentical(results[4], results[5], profile.name + " unified");
    EXPECT_EQ(refPlain.name(), newPlain.name()) << profile.name;
    EXPECT_EQ(refUnified.name(), newUnified.name()) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, TierEquivalenceByProfile,
                         ::testing::ValuesIn(workload::allProfiles()));

/** Records every listener callback with every field that crosses the
 *  listener interface, for exact stream comparison. */
class DetailedListener : public cache::CacheEventListener
{
  public:
    struct Record
    {
        char kind = '?'; ///< m/h/i/e/p
        cache::TraceId trace = cache::kInvalidTrace;
        cache::Generation gen = cache::Generation::Unified;
        cache::Generation to = cache::Generation::Unified;
        cache::EvictReason reason = cache::EvictReason::Capacity;
        TimeUs time = 0;
        std::uint32_t sizeBytes = 0;
        cache::ModuleId module = cache::kNoModule;
        std::uint64_t addr = 0;
        bool pinned = false;

        bool operator==(const Record &o) const
        {
            return kind == o.kind && trace == o.trace &&
                   gen == o.gen && to == o.to && reason == o.reason &&
                   time == o.time && sizeBytes == o.sizeBytes &&
                   module == o.module && addr == o.addr &&
                   pinned == o.pinned;
        }
    };

    void onMiss(cache::TraceId id, TimeUs now) override
    {
        Record r;
        r.kind = 'm';
        r.trace = id;
        r.time = now;
        records.push_back(r);
    }
    void onHit(cache::TraceId id, cache::Generation gen,
               TimeUs now) override
    {
        Record r;
        r.kind = 'h';
        r.trace = id;
        r.gen = gen;
        r.time = now;
        records.push_back(r);
    }
    void onInsert(const cache::Fragment &frag, cache::Generation gen,
                  TimeUs now) override
    {
        records.push_back(fragRecord('i', frag, gen, gen,
                                     cache::EvictReason::Capacity,
                                     now));
    }
    void onEvict(const cache::Fragment &frag, cache::Generation gen,
                 cache::EvictReason reason, TimeUs now) override
    {
        records.push_back(fragRecord('e', frag, gen, gen, reason, now));
    }
    void onPromote(const cache::Fragment &frag, cache::Generation from,
                   cache::Generation to, TimeUs now) override
    {
        records.push_back(fragRecord('p', frag, from, to,
                                     cache::EvictReason::PromotionMove,
                                     now));
    }

    std::vector<Record> records;

  private:
    static Record fragRecord(char kind, const cache::Fragment &frag,
                             cache::Generation gen,
                             cache::Generation to,
                             cache::EvictReason reason, TimeUs now)
    {
        Record r;
        r.kind = kind;
        r.trace = frag.id;
        r.gen = gen;
        r.to = to;
        r.reason = reason;
        r.time = now;
        r.sizeBytes = frag.sizeBytes;
        r.module = frag.module;
        r.addr = frag.addr;
        r.pinned = frag.pinned;
        return r;
    }
};

/** Minimal deterministic replay driver (mirrors the simulator's
 *  protocol: misses regenerate, pin intent survives regeneration).
 *  Both sides of a comparison run through this same loop. */
void
replayWithListener(cache::CacheManager &manager,
                   const tracelog::AccessLog &log)
{
    struct Known
    {
        std::uint32_t sizeBytes = 0;
        cache::ModuleId module = cache::kNoModule;
        bool pinnedWanted = false;
    };
    std::map<cache::TraceId, Known> known;

    for (const tracelog::Event &event : log.events()) {
        switch (event.type) {
          case tracelog::EventType::TraceCreate:
            known[event.trace] = {event.sizeBytes, event.module, false};
            manager.insert(event.trace, event.sizeBytes, event.module,
                           event.time);
            break;
          case tracelog::EventType::TraceExec: {
            if (manager.lookup(event.trace, event.time)) {
                break;
            }
            auto it = known.find(event.trace);
            if (it == known.end()) {
                break;
            }
            if (manager.insert(event.trace, it->second.sizeBytes,
                               it->second.module, event.time) &&
                it->second.pinnedWanted) {
                manager.setPinned(event.trace, true);
            }
            break;
          }
          case tracelog::EventType::ModuleUnload:
            manager.invalidateModule(event.module, event.time);
            break;
          case tracelog::EventType::Pin:
            known[event.trace].pinnedWanted = true;
            manager.setPinned(event.trace, true);
            break;
          case tracelog::EventType::Unpin:
            known[event.trace].pinnedWanted = false;
            manager.setPinned(event.trace, false);
            break;
          case tracelog::EventType::ModuleLoad:
            break;
        }
    }
}

void
expectSameStream(const DetailedListener &a, const DetailedListener &b,
                 const std::string &what)
{
    ASSERT_EQ(a.records.size(), b.records.size()) << what;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const DetailedListener::Record &x = a.records[i];
        const DetailedListener::Record &y = b.records[i];
        EXPECT_TRUE(x == y)
            << what << " diverges at event " << i << ": kind " << x.kind
            << "/" << y.kind << " trace " << x.trace << "/" << y.trace
            << " time " << x.time << "/" << y.time;
        if (!(x == y)) {
            break;
        }
    }
}

// The listener event streams — order, reasons, and every fragment
// field crossing the interface — must match the frozen monoliths
// event for event.
TEST(TierEquivalence, EventStreamsBitIdentical)
{
    for (const char *name : {"gzip", "mpeg"}) {
        workload::BenchmarkProfile profile = workload::findProfile(name);
        tracelog::AccessLog log = workload::generateWorkload(profile);
        std::uint64_t capacity = profileCapacity(profile);
        cache::GenerationalConfig config =
            cache::GenerationalConfig::fromProportions(capacity, 0.45,
                                                       0.10, 1);

        cache::reference::ReferenceGenerationalManager refGen(config);
        cache::GenerationalCacheManager newGen(config);
        DetailedListener refGenEvents;
        DetailedListener newGenEvents;
        refGen.setListener(&refGenEvents);
        newGen.setListener(&newGenEvents);
        replayWithListener(refGen, log);
        replayWithListener(newGen, log);
        expectSameStream(refGenEvents, newGenEvents,
                         std::string(name) + " generational");

        cache::reference::ReferenceUnifiedManager refUni(capacity);
        cache::UnifiedCacheManager newUni(capacity);
        DetailedListener refUniEvents;
        DetailedListener newUniEvents;
        refUni.setListener(&refUniEvents);
        newUni.setListener(&newUniEvents);
        replayWithListener(refUni, log);
        replayWithListener(newUni, log);
        expectSameStream(refUniEvents, newUniEvents,
                         std::string(name) + " unified");
    }
}

// --- satellite: fromProportions exact-sum guarantee ---

TEST(FromProportions, AdversarialFractionsSumExactly)
{
    // The classic adversarial case: thirds do not round to a clean
    // split, but the parts must still sum to the total.
    cache::GenerationalConfig thirds =
        cache::GenerationalConfig::fromProportions(
            1'000'000, 1.0 / 3.0, 1.0 / 3.0, 10);
    EXPECT_EQ(thirds.nurseryBytes, 333'333u);
    EXPECT_EQ(thirds.probationBytes, 333'333u);
    EXPECT_EQ(thirds.persistentBytes, 333'334u);
    EXPECT_EQ(thirds.totalBytes(), 1'000'000u);

    cache::GenerationalConfig odd =
        cache::GenerationalConfig::fromProportions(999'999, 0.45, 0.10,
                                                   1);
    EXPECT_EQ(odd.nurseryBytes, 450'000u);
    EXPECT_EQ(odd.probationBytes, 100'000u);
    EXPECT_EQ(odd.persistentBytes, 449'999u);
    EXPECT_EQ(odd.totalBytes(), 999'999u);
}

TEST(FromProportions, TinyTotalsNeverZeroByteTier)
{
    // Every feasible tiny total splits into three positive parts that
    // sum exactly; a fraction rounding to zero bytes is bumped to one.
    for (std::uint64_t total = 3; total <= 64; ++total) {
        cache::GenerationalConfig config =
            cache::GenerationalConfig::fromProportions(
                total, 1.0 / 3.0, 1.0 / 3.0, 1);
        EXPECT_GE(config.nurseryBytes, 1u) << total;
        EXPECT_GE(config.probationBytes, 1u) << total;
        EXPECT_GE(config.persistentBytes, 1u) << total;
        EXPECT_EQ(config.totalBytes(), total) << total;
    }
    for (std::uint64_t total = 3; total <= 64; ++total) {
        cache::GenerationalConfig config =
            cache::GenerationalConfig::fromProportions(total, 0.45,
                                                       0.10, 1);
        EXPECT_GE(config.nurseryBytes, 1u) << total;
        EXPECT_GE(config.probationBytes, 1u) << total;
        EXPECT_GE(config.persistentBytes, 1u) << total;
        EXPECT_EQ(config.totalBytes(), total) << total;
    }

    // A vanishing fraction still yields a one-byte tier, not a
    // zero-byte one (which the manager constructor would reject).
    cache::GenerationalConfig sliver =
        cache::GenerationalConfig::fromProportions(1'000'000, 1e-9,
                                                   1e-9, 1);
    EXPECT_EQ(sliver.nurseryBytes, 1u);
    EXPECT_EQ(sliver.probationBytes, 1u);
    EXPECT_EQ(sliver.persistentBytes, 999'998u);
}

TEST(FromProportionsDeathTest, InfeasibleTotalsStillFatal)
{
    // Two bytes cannot hold three positive tiers.
    EXPECT_DEATH(cache::GenerationalConfig::fromProportions(
                     2, 1.0 / 3.0, 1.0 / 3.0, 1),
                 "persistent");
}

// --- satellite: pin bit survives tier moves ---

TEST(PinnedPromotion, PinBitSurvivesEagerUpgrade)
{
    cache::GenerationalConfig config;
    config.nurseryBytes = 64;
    config.probationBytes = 128;
    config.persistentBytes = 256;
    config.promotionThreshold = 1;
    config.eagerPromotion = true;
    cache::GenerationalCacheManager manager(config);

    ASSERT_TRUE(manager.insert(1, 64, cache::kNoModule, 0));
    ASSERT_TRUE(manager.insert(2, 64, cache::kNoModule, 1));
    ASSERT_EQ(manager.generationOf(1), cache::Generation::Probation);

    ASSERT_TRUE(manager.setPinned(1, true));
    ASSERT_TRUE(manager.lookup(1, 2));
    ASSERT_EQ(manager.generationOf(1), cache::Generation::Persistent);

    bool seen = false;
    manager.localCache(cache::Generation::Persistent)
        .forEach([&](const cache::Fragment &frag) {
            if (frag.id == 1) {
                seen = true;
                EXPECT_TRUE(frag.pinned)
                    << "pin bit lost crossing probation -> persistent";
            }
        });
    EXPECT_TRUE(seen);
}

TEST(PinnedPromotion, ShedHandlingClearsPinOnMove)
{
    cache::TierPipelineInit init;
    init.name = "shed-test";
    init.tiers = {
        {64, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Shed},
        {256, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Sticky},
    };
    init.edges.push_back(
        std::make_unique<cache::ThresholdPolicy>(1, /*eager=*/true));
    cache::TierPipeline pipeline(std::move(init));

    ASSERT_TRUE(pipeline.insert(1, 64, cache::kNoModule, 0));
    ASSERT_TRUE(pipeline.setPinned(1, true));
    ASSERT_TRUE(pipeline.lookup(1, 1)); // eager upgrade into tier 1
    ASSERT_EQ(pipeline.tierOf(1), 1u);

    pipeline.tierCache(1).forEach([&](const cache::Fragment &frag) {
        if (frag.id == 1) {
            EXPECT_FALSE(frag.pinned) << "Shed tier kept the pin bit";
        }
    });
}

// --- event-order contracts ---

TEST(EventOrder, SingleTierVictimsPrecedeInsert)
{
    cache::TierPipelineInit init;
    init.name = "unified-order";
    init.tiers = {{128, cache::LocalPolicy::PseudoCircular,
                   cache::PinHandling::Sticky}};
    cache::TierPipeline pipeline(std::move(init));
    DetailedListener events;
    pipeline.setListener(&events);

    ASSERT_TRUE(pipeline.insert(1, 100, cache::kNoModule, 0));
    ASSERT_TRUE(pipeline.insert(2, 100, cache::kNoModule, 1));

    ASSERT_EQ(events.records.size(), 3u);
    EXPECT_EQ(events.records[0].kind, 'i');
    EXPECT_EQ(events.records[0].trace, 1u);
    // Unified order: the capacity victim is reported before the
    // insert, and the insert event carries the placed fragment.
    EXPECT_EQ(events.records[1].kind, 'e');
    EXPECT_EQ(events.records[1].trace, 1u);
    EXPECT_EQ(events.records[1].reason, cache::EvictReason::Capacity);
    EXPECT_EQ(events.records[2].kind, 'i');
    EXPECT_EQ(events.records[2].trace, 2u);
    EXPECT_EQ(events.records[2].gen, cache::Generation::Unified);
}

TEST(EventOrder, MultiTierInsertPrecedesCascade)
{
    cache::TierPipelineInit init;
    init.name = "cascade-order";
    init.tiers = {
        {64, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Sticky},
        {256, cache::LocalPolicy::PseudoCircular,
         cache::PinHandling::Sticky},
    };
    init.edges.push_back(std::make_unique<cache::AlwaysPromotePolicy>());
    cache::TierPipeline pipeline(std::move(init));
    DetailedListener events;
    pipeline.setListener(&events);

    ASSERT_TRUE(pipeline.insert(1, 64, cache::kNoModule, 0));
    ASSERT_TRUE(pipeline.insert(2, 64, cache::kNoModule, 1));

    // Generational order: the insert is reported first, then the
    // victim cascade (evict-for-promotion + promote).
    ASSERT_EQ(events.records.size(), 4u);
    EXPECT_EQ(events.records[0].kind, 'i');
    EXPECT_EQ(events.records[0].trace, 1u);
    EXPECT_EQ(events.records[1].kind, 'i');
    EXPECT_EQ(events.records[1].trace, 2u);
    EXPECT_EQ(events.records[2].kind, 'e');
    EXPECT_EQ(events.records[2].trace, 1u);
    EXPECT_EQ(events.records[2].reason,
              cache::EvictReason::PromotionMove);
    EXPECT_EQ(events.records[3].kind, 'p');
    EXPECT_EQ(events.records[3].trace, 1u);
    EXPECT_EQ(events.records[3].to, cache::Generation::Persistent);
}

// --- tier labels ---

TEST(TierLabels, PaperVocabularyPreserved)
{
    using cache::Generation;
    EXPECT_EQ(cache::tierLabelFor(0, 1), Generation::Unified);

    EXPECT_EQ(cache::tierLabelFor(0, 3), Generation::Nursery);
    EXPECT_EQ(cache::tierLabelFor(1, 3), Generation::Probation);
    EXPECT_EQ(cache::tierLabelFor(2, 3), Generation::Persistent);

    EXPECT_EQ(cache::tierLabelFor(0, 2), Generation::Nursery);
    EXPECT_EQ(cache::tierLabelFor(1, 2), Generation::Persistent);

    EXPECT_EQ(cache::tierLabelFor(0, 4), Generation::Nursery);
    EXPECT_EQ(cache::tierLabelFor(1, 4), Generation::Tier1);
    EXPECT_EQ(cache::tierLabelFor(2, 4), Generation::Tier2);
    EXPECT_EQ(cache::tierLabelFor(3, 4), Generation::Persistent);
}

// --- temperature policy ---

TEST(TemperaturePolicy, CounterDecaysWithVirtualTime)
{
    cache::TemperaturePolicy policy(/*threshold=*/2,
                                    /*half_life=*/100);
    cache::Fragment frag;

    policy.onEnter(frag, 1000);
    EXPECT_EQ(frag.accessCount, 0u);
    EXPECT_EQ(frag.lastAccess, 1000u);

    // Two quick hits within one half-life: no decay, count reaches
    // the threshold and a prompt eviction admits the fragment.
    EXPECT_FALSE(policy.onHit(frag, 1010));
    EXPECT_FALSE(policy.onHit(frag, 1020));
    EXPECT_EQ(frag.accessCount, 2u);
    EXPECT_TRUE(policy.admitOnEviction(frag, 1090));

    // The same burst long ago no longer earns promotion: two whole
    // half-lives quarter the counter down to zero.
    policy.onEnter(frag, 0);
    policy.onHit(frag, 10);
    policy.onHit(frag, 20);
    cache::Fragment cold = frag;
    EXPECT_FALSE(policy.admitOnEviction(cold, 250));
    EXPECT_EQ(cold.accessCount, 0u);
    // The clock advances by whole half-lives only, so the partial
    // period keeps accumulating toward the next decay step.
    EXPECT_EQ(cold.lastAccess, 200u);

    // Very long idle periods collapse the counter outright instead of
    // shifting by more bits than the counter holds.
    cache::Fragment stale;
    stale.accessCount = 1'000'000;
    stale.lastAccess = 0;
    EXPECT_FALSE(policy.admitOnEviction(stale, 100 * 64));
    EXPECT_EQ(stale.accessCount, 0u);
}

TEST(TemperaturePolicyDeathTest, ZeroHalfLifeRejected)
{
    EXPECT_DEATH(cache::TemperaturePolicy(1, 0), "half-life");
}

// --- non-legacy topologies end-to-end ---

TEST(Topology, CatalogSweepsCleanly)
{
    workload::BenchmarkProfile profile = workload::findProfile("gzip");
    const std::vector<cache::TierTopology> &catalog =
        cache::namedTierTopologies();
    sim::TopologySweepResult sweep =
        sim::runTopologySweep(profile, catalog, /*threads=*/1);

    EXPECT_EQ(sweep.benchmark, profile.name);
    EXPECT_GT(sweep.capacityBytes, 0u);
    EXPECT_GT(sweep.unifiedMissRate, 0.0);
    ASSERT_EQ(sweep.cells.size(), catalog.size());
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        const sim::TopologyCell &cell = sweep.cells[i];
        EXPECT_EQ(cell.topology, catalog[i].name);
        EXPECT_EQ(cell.tierCount, catalog[i].fractions.size());
        EXPECT_GT(cell.missRate, 0.0) << cell.topology;
        EXPECT_GT(cell.overheadInstrs, 0u) << cell.topology;
    }
    // best() ranks by miss-rate reduction over the unified baseline.
    const sim::TopologyCell &best = sweep.best();
    for (const sim::TopologyCell &cell : sweep.cells) {
        EXPECT_GE(best.missRateReductionPct,
                  cell.missRateReductionPct);
    }
}

TEST(Topology, CatalogPassesStaticChecks)
{
    workload::BenchmarkProfile profile = workload::findProfile("gzip");
    tracelog::AccessLog log = workload::generateWorkload(profile);
    std::uint64_t capacity = profileCapacity(profile);

    for (const cache::TierTopology &topology :
         cache::namedTierTopologies()) {
        std::unique_ptr<cache::TierPipeline> manager =
            topology.build(capacity);
        EXPECT_EQ(manager->totalCapacity(), capacity)
            << topology.name;
        sim::CacheSimulator simulator(*manager);
        sim::SimResult result = simulator.run(log);
        EXPECT_GT(result.managerStats.promotions, 0u) << topology.name;

        manager->validate();
        analysis::DiagnosticEngine engine =
            analysis::checkManager(*manager);
        EXPECT_EQ(engine.errorCount(), 0u)
            << topology.name << ": " << engine.textReport();
    }
}

TEST(Topology, BatchedTopologyReplayMatchesLegacyPath)
{
    sim::ExperimentRunner runner(workload::findProfile("vortex"));
    std::uint64_t capacity = profileCapacity(runner.profile());
    const std::vector<cache::TierTopology> &catalog =
        cache::namedTierTopologies();

    std::vector<sim::SimResult> batched =
        runner.runTopologyBatch(capacity, catalog);
    ASSERT_EQ(batched.size(), catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        sim::SimResult legacy =
            runner.runTopology(capacity, catalog[i]);
        expectIdentical(legacy, batched[i], catalog[i].name);
        EXPECT_EQ(batched[i].manager, catalog[i].name);
    }
}

TEST(Topology, ExactBudgetSplitAcrossTiers)
{
    const cache::TierTopology *four = cache::findTierTopology("4tier");
    ASSERT_NE(four, nullptr);
    for (std::uint64_t total : {7u, 101u, 4096u, 999'999u}) {
        std::vector<cache::TierSpec> specs = four->tierSpecs(total);
        ASSERT_EQ(specs.size(), 4u);
        std::uint64_t sum = 0;
        for (const cache::TierSpec &spec : specs) {
            EXPECT_GE(spec.capacityBytes, 1u) << total;
            sum += spec.capacityBytes;
        }
        EXPECT_EQ(sum, total);
    }
    EXPECT_EQ(cache::findTierTopology("no-such-topology"), nullptr);
}

cache::Fragment
rripFrag(cache::TraceId id, std::uint32_t size)
{
    cache::Fragment frag;
    frag.id = id;
    frag.sizeBytes = size;
    return frag;
}

TEST(RripCache, SrripEvictsDistantBeforeRecentlyTouched)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(2, 50), evicted));
    EXPECT_TRUE(evicted.empty());

    // A hit predicts a near re-reference; the untouched fragment ages
    // to distant first and is the victim despite being no older.
    srrip.touch(1, 10);
    ASSERT_TRUE(srrip.insert(rripFrag(3, 50), evicted));
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].id, 2u);
    EXPECT_TRUE(srrip.contains(1));
    EXPECT_TRUE(srrip.contains(3));
}

TEST(RripCache, SrripTieBreaksInInsertionOrder)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(2, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(3, 100), evicted));
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0].id, 1u);
    EXPECT_EQ(evicted[1].id, 2u);
}

TEST(RripCache, SurvivorsAgeWhenAnInsertNeedsIt)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 50), evicted));
    ASSERT_TRUE(srrip.insert(rripFrag(2, 50), evicted));
    srrip.touch(1, 10); // rrpv 0
    ASSERT_TRUE(srrip.insert(rripFrag(3, 50), evicted)); // ages once
    const cache::Fragment *survivor = srrip.find(1);
    ASSERT_NE(survivor, nullptr);
    EXPECT_EQ(survivor->rrpv, 1); // 0 + one aging step
}

TEST(RripCache, BrripPredictsDistantExceptEveryPeriodthInsert)
{
    cache::RripCache brrip(1 << 20, /*bimodal=*/true);
    std::vector<cache::Fragment> evicted;
    for (cache::TraceId id = 0;
         id < cache::RripCache::kBimodalPeriod + 1; ++id) {
        ASSERT_TRUE(brrip.insert(rripFrag(id, 8), evicted));
    }
    // Inserts 0 and kBimodalPeriod predict long; all between predict
    // distant — deterministic, no RNG.
    EXPECT_EQ(brrip.find(0)->rrpv, cache::RripCache::kMaxRrpv - 1);
    EXPECT_EQ(brrip.find(1)->rrpv, cache::RripCache::kMaxRrpv);
    EXPECT_EQ(brrip.find(cache::RripCache::kBimodalPeriod - 1)->rrpv,
              cache::RripCache::kMaxRrpv);
    EXPECT_EQ(brrip.find(cache::RripCache::kBimodalPeriod)->rrpv,
              cache::RripCache::kMaxRrpv - 1);
}

TEST(RripCache, FailedInsertLeavesResidencyAndPredictionsUnchanged)
{
    cache::RripCache srrip(100, /*bimodal=*/false);
    std::vector<cache::Fragment> evicted;
    ASSERT_TRUE(srrip.insert(rripFrag(1, 60), evicted));
    srrip.touch(1, 5);
    ASSERT_TRUE(srrip.setPinned(1, true));

    // Oversized fragment: rejected outright.
    EXPECT_FALSE(srrip.insert(rripFrag(2, 200), evicted));
    // Pinned congestion: no evictable plan exists.
    EXPECT_FALSE(srrip.insert(rripFrag(3, 60), evicted));

    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(srrip.stats().placementFailures, 2u);
    ASSERT_TRUE(srrip.contains(1));
    EXPECT_EQ(srrip.find(1)->rrpv, 0); // untouched by failed plans
    EXPECT_FALSE(srrip.contains(2));
    EXPECT_FALSE(srrip.contains(3));
}

TEST(RripCache, FactoryBuildsBothVariants)
{
    auto srrip = cache::makeLocalCache(cache::LocalPolicy::Srrip, 1024);
    auto brrip = cache::makeLocalCache(cache::LocalPolicy::Brrip, 1024);
    EXPECT_STREQ(srrip->policyName(), "srrip");
    EXPECT_STREQ(brrip->policyName(), "brrip");
    EXPECT_TRUE(srrip->observesTouch());
    EXPECT_TRUE(brrip->observesTouch());
    EXPECT_STREQ(cache::localPolicyName(cache::LocalPolicy::Srrip),
                 "srrip");
    EXPECT_STREQ(cache::localPolicyName(cache::LocalPolicy::Brrip),
                 "brrip");
}

// Pipeline-level: RRIP-policied topologies replay cleanly and the
// batched fast path stays bit-identical to the legacy per-event path.
TEST(Topology, RripTopologiesBatchedMatchesLegacy)
{
    workload::BenchmarkProfile profile = workload::findProfile("gzip");
    sim::ExperimentRunner runner(profile);
    std::uint64_t capacity = profileCapacity(profile);

    std::vector<cache::TierTopology> topologies;
    for (cache::LocalPolicy policy :
         {cache::LocalPolicy::Srrip, cache::LocalPolicy::Brrip}) {
        cache::TierTopology topology;
        topology.name = std::string("3tier-") +
                        cache::localPolicyName(policy);
        topology.fractions = {0.45, 0.10, 0.45};
        topology.edges.resize(2);
        topology.edges[0].rule =
            cache::EdgeSpec::Rule::AlwaysPromote;
        topology.edges[1].rule = cache::EdgeSpec::Rule::Threshold;
        topology.edges[1].threshold = 2;
        topology.policy = policy;
        topologies.push_back(std::move(topology));
    }

    std::vector<sim::SimResult> batched =
        runner.runTopologyBatch(capacity, topologies);
    ASSERT_EQ(batched.size(), topologies.size());
    for (std::size_t i = 0; i < topologies.size(); ++i) {
        sim::SimResult legacy =
            runner.runTopology(capacity, topologies[i]);
        expectIdentical(legacy, batched[i], topologies[i].name);
        EXPECT_GT(batched[i].lookups, 0u);
    }
}

} // namespace
