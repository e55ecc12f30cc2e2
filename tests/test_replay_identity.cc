// Bit-identity of the batched compiled-log replay engine against the
// per-event CacheSimulator reference over the AccessLog. The
// CompiledLog relabels traces to dense ids and BatchedReplay streams
// cache-sized chunks across lane blocks with table-priced costs;
// neither may change a single counter of any SimResult.

#include <gtest/gtest.h>

#include <algorithm>

#include "codecache/unified_cache.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
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

/** @return the reference loop's result for @p manager over @p log. */
sim::SimResult
referenceRun(const tracelog::AccessLog &log,
             cache::CacheManager &manager)
{
    sim::CacheSimulator simulator(manager);
    return simulator.run(log);
}

// Every example workload: the baselines (the runner's single-lane
// batched passes over the compiled log) must reproduce the per-event
// CacheSimulator over the AccessLog field for field.
TEST(ReplayIdentity, BatchedMatchesLegacyOnAllWorkloads)
{
    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        sim::ExperimentRunner runner(profile);

        cache::UnifiedCacheManager unboundedManager(0);
        sim::SimResult unbounded =
            referenceRun(runner.log(), unboundedManager);
        unbounded.peakBytes =
            std::max(unbounded.peakBytes, unboundedManager.peakBytes());
        expectIdentical(unbounded, runner.runUnbounded(),
                        profile.name + " unbounded");

        const std::uint64_t capacity = runner.managedCapacity();
        cache::UnifiedCacheManager unifiedManager(
            capacity, cache::LocalPolicy::PseudoCircular);
        expectIdentical(referenceRun(runner.log(), unifiedManager),
                        runner.runUnified(capacity),
                        profile.name + " unified");
    }
}

// Lanes that differ in every layout parameter, at lane counts
// straddling the second lane-block boundary: lane i runs sweep-grid
// layout i, so every block mixes nursery/probation fractions and
// promotion thresholds. Each lane must match its own reference run.
TEST(ReplayIdentity, BlockedKernelMatchesReferenceAcrossLaneCounts)
{
    sim::ExperimentRunner runner(workload::findProfile("gzip"));
    const std::uint64_t capacity = runner.managedCapacity();

    std::vector<sim::GenerationalLayout> grid;
    for (const sim::SweepPoint &point : sim::defaultSweepPoints()) {
        for (std::uint32_t threshold : sim::defaultSweepThresholds()) {
            sim::GenerationalLayout layout;
            layout.label = "grid " + std::to_string(grid.size());
            layout.nurseryFrac = point.nurseryFrac;
            layout.probationFrac = point.probationFrac;
            layout.promotionThreshold = threshold;
            grid.push_back(std::move(layout));
        }
    }

    const std::size_t block = sim::BatchedReplay::kLaneBlock;
    const std::size_t laneCounts[] = {2 * block - 1, 2 * block,
                                      2 * block + 1};
    ASSERT_GE(grid.size(), 2 * block + 1);

    std::vector<sim::SimResult> reference;
    for (std::size_t i = 0; i < 2 * block + 1; ++i) {
        reference.push_back(runner.runGenerational(capacity, grid[i]));
    }

    for (std::size_t lanes : laneCounts) {
        std::vector<sim::GenerationalLayout> laneLayouts(
            grid.begin(), grid.begin() + lanes);
        std::vector<sim::SimResult> blocked =
            runner.runGenerationalBatch(capacity, laneLayouts);
        ASSERT_EQ(blocked.size(), lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
            expectIdentical(reference[i], blocked[i],
                            "lanes " + std::to_string(lanes) +
                                " lane " + std::to_string(i));
        }
    }
}

class ReplayIdentityByProfile
    : public ::testing::TestWithParam<workload::BenchmarkProfile>
{
};

// One profile per test instance. The blocked kernel at lane counts
// straddling the lane-block size (1, a partial block, exactly one
// block, one block plus a straggler) must reproduce the per-event
// CacheSimulator over the AccessLog field for field: counters,
// manager stats, and the overhead breakdown priced by the
// precomputed cost tables.
TEST_P(ReplayIdentityByProfile, BlockedKernelMatchesReference)
{
    const workload::BenchmarkProfile &profile = GetParam();
    sim::ExperimentRunner runner(profile);
    const std::uint64_t capacity = runner.managedCapacity();

    const std::vector<std::uint32_t> thresholds =
        sim::defaultSweepThresholds();
    std::vector<sim::GenerationalLayout> layouts;
    std::vector<sim::SimResult> reference;
    for (std::uint32_t threshold : thresholds) {
        sim::GenerationalLayout layout;
        layout.label = "45-10-45 thr " + std::to_string(threshold);
        layout.nurseryFrac = 0.45;
        layout.probationFrac = 0.10;
        layout.promotionThreshold = threshold;
        reference.push_back(runner.runGenerational(capacity, layout));
        layouts.push_back(std::move(layout));
    }

    const std::size_t block = sim::BatchedReplay::kLaneBlock;
    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}, block,
                              block + 1}) {
        std::vector<sim::GenerationalLayout> laneLayouts;
        for (std::size_t i = 0; i < lanes; ++i) {
            laneLayouts.push_back(layouts[i % layouts.size()]);
        }
        std::vector<sim::SimResult> blocked =
            runner.runGenerationalBatch(capacity, laneLayouts);
        ASSERT_EQ(blocked.size(), lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
            expectIdentical(reference[i % layouts.size()], blocked[i],
                            profile.name + " lanes " +
                                std::to_string(lanes) + " lane " +
                                std::to_string(i));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ReplayIdentityByProfile,
                         ::testing::ValuesIn(workload::allProfiles()));

// Whole-sweep equivalence: the serial and threaded batched sweeps
// against one reference replay per cell.
TEST(ReplayIdentity, SweepEnginesProduceIdenticalCells)
{
    sim::ExperimentRunner runner(workload::findProfile("gcc"));
    auto points = sim::defaultSweepPoints();
    auto thresholds = sim::defaultSweepThresholds();

    sim::SweepResult serial = sim::runSweep(runner, points, thresholds, 1);
    sim::SweepResult threaded =
        sim::runSweep(runner, points, thresholds, 4);
    ASSERT_EQ(serial.cells.size(), points.size() * thresholds.size());

    auto expect_cells = [&](const sim::SweepResult &a,
                            const sim::SweepResult &b) {
        EXPECT_EQ(a.benchmark, b.benchmark);
        EXPECT_EQ(a.capacityBytes, b.capacityBytes);
        EXPECT_EQ(a.unifiedMissRate, b.unifiedMissRate);
        ASSERT_EQ(a.cells.size(), b.cells.size());
        for (std::size_t i = 0; i < a.cells.size(); ++i) {
            EXPECT_EQ(a.cells[i].threshold, b.cells[i].threshold)
                << "cell " << i;
            EXPECT_EQ(a.cells[i].missRate, b.cells[i].missRate)
                << "cell " << i;
            EXPECT_EQ(a.cells[i].promotions, b.cells[i].promotions)
                << "cell " << i;
            EXPECT_EQ(a.cells[i].missRateReductionPct,
                      b.cells[i].missRateReductionPct)
                << "cell " << i;
        }
    };
    expect_cells(serial, threaded);

    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const sim::SweepCell &cell = serial.cells[i];
        sim::GenerationalLayout layout;
        layout.nurseryFrac = cell.point.nurseryFrac;
        layout.probationFrac = cell.point.probationFrac;
        layout.promotionThreshold = cell.threshold;
        sim::SimResult reference =
            runner.runGenerational(serial.capacityBytes, layout);
        EXPECT_EQ(reference.missRate(), cell.missRate) << "cell " << i;
        EXPECT_EQ(reference.managerStats.promotions, cell.promotions)
            << "cell " << i;
    }
}

/** A five-event log: enough for a replay to start. */
tracelog::CompiledLog
tinyCompiledLog()
{
    tracelog::AccessLog log;
    log.setBenchmark("tiny");
    log.append(tracelog::Event::traceCreate(0, 1, 64, cache::kNoModule));
    log.append(tracelog::Event::traceExec(1, 1));
    log.append(tracelog::Event::traceCreate(2, 2, 64, cache::kNoModule));
    log.append(tracelog::Event::traceExec(3, 2));
    log.append(tracelog::Event::traceExec(4, 1));
    log.setDuration(5);
    return tracelog::CompiledLog::compile(log);
}

// A replay starts once: replaying again would run over managers the
// first pass already mutated.
TEST(BatchedReplayDeathTest, SecondRunPanics)
{
    tracelog::CompiledLog log = tinyCompiledLog();
    cache::UnifiedCacheManager manager(4096);
    sim::BatchedReplay replay(log);
    replay.addLane(manager);
    replay.run();
    EXPECT_DEATH(replay.run(), "replay already started");
}

TEST(BatchedReplayDeathTest, RunAfterBeginPanics)
{
    tracelog::CompiledLog log = tinyCompiledLog();
    cache::UnifiedCacheManager manager(4096);
    sim::BatchedReplay replay(log);
    replay.addLane(manager);
    replay.begin();
    EXPECT_DEATH(replay.run(), "replay already started");
}

} // namespace
