#include "sim/sweep.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "support/format.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace gencache::sim {

std::string
SweepPoint::label() const
{
    int nursery = static_cast<int>(std::llround(nurseryFrac * 100));
    int probation =
        static_cast<int>(std::llround(probationFrac * 100));
    return format("{}-{}-{}", nursery, probation,
                  100 - nursery - probation);
}

const SweepCell &
SweepResult::best() const
{
    if (cells.empty()) {
        GENCACHE_PANIC("best() on an empty sweep");
    }
    const SweepCell *winner = &cells.front();
    for (const SweepCell &cell : cells) {
        if (cell.missRateReductionPct >
            winner->missRateReductionPct) {
            winner = &cell;
        }
    }
    return *winner;
}

const SweepCell &
SweepResult::at(std::size_t point_index, std::size_t threshold_index,
                std::size_t threshold_count) const
{
    std::size_t index =
        point_index * threshold_count + threshold_index;
    if (index >= cells.size()) {
        GENCACHE_PANIC("sweep cell ({}, {}) out of range",
                       point_index, threshold_index);
    }
    return cells[index];
}

std::vector<SweepPoint>
defaultSweepPoints()
{
    return {
        {1.0 / 3.0, 1.0 / 3.0}, {0.45, 0.10}, {0.40, 0.20},
        {0.25, 0.50},           {0.60, 0.10}, {0.10, 0.45},
    };
}

std::vector<std::uint32_t>
defaultSweepThresholds()
{
    return {1, 5, 10, 50};
}

namespace {

/** A pool for @p tasks independent passes, or null when @p threads
 *  (0 = the environment default) leaves a single worker. */
std::unique_ptr<ThreadPool>
passPool(std::size_t threads, std::size_t tasks)
{
    if (threads == 0) {
        threads = ThreadPool::defaultThreadCount();
    }
    if (threads <= 1 || tasks <= 1) {
        return nullptr;
    }
    return std::make_unique<ThreadPool>(std::min(threads, tasks));
}

/** Miss-rate reduction (%) of @p sim against the unified baseline's
 *  @p unified_miss_rate; 0 when the baseline never misses. */
double
reductionPct(const SimResult &sim, double unified_miss_rate)
{
    return unified_miss_rate > 0.0
               ? (1.0 - sim.missRate() / unified_miss_rate) * 100.0
               : 0.0;
}

} // namespace

SweepResult
runSweep(const workload::BenchmarkProfile &profile,
         const std::vector<SweepPoint> &points,
         const std::vector<std::uint32_t> &thresholds,
         std::size_t threads)
{
    ExperimentRunner runner(profile);
    return runSweep(runner, points, thresholds, threads);
}

SweepResult
runSweep(const ExperimentRunner &runner,
         const std::vector<SweepPoint> &points,
         const std::vector<std::uint32_t> &thresholds,
         std::size_t threads)
{
    if (points.empty() || thresholds.empty()) {
        fatal("sweep needs at least one point and one threshold");
    }
    SweepResult result;
    result.benchmark = runner.profile().name;
    result.capacityBytes = runner.managedCapacity();
    result.unifiedMissRate =
        runner.runUnified(result.capacityBytes).missRate();

    // The grid, row-major; one batched pass per sweep point advances
    // the point's whole threshold column.
    std::vector<GenerationalLayout> layouts;
    layouts.reserve(points.size() * thresholds.size());
    for (const SweepPoint &point : points) {
        for (std::uint32_t threshold : thresholds) {
            GenerationalLayout layout;
            layout.label = format("{} thr {}", point.label(),
                                  threshold);
            layout.nurseryFrac = point.nurseryFrac;
            layout.probationFrac = point.probationFrac;
            layout.promotionThreshold = threshold;
            layouts.push_back(std::move(layout));
        }
    }

    std::unique_ptr<ThreadPool> pool = passPool(threads, points.size());
    std::vector<SimResult> sims = replayInPasses(
        layouts.size(), thresholds.size(), pool.get(),
        [&](std::size_t first, std::size_t last) {
            return runner.runGenerationalBatch(
                result.capacityBytes,
                {layouts.begin() + static_cast<std::ptrdiff_t>(first),
                 layouts.begin() + static_cast<std::ptrdiff_t>(last)});
        });

    result.cells.reserve(sims.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
        SweepCell cell;
        cell.point = points[i / thresholds.size()];
        cell.threshold = layouts[i].promotionThreshold;
        cell.missRate = sims[i].missRate();
        cell.promotions = sims[i].managerStats.promotions;
        cell.missRateReductionPct =
            reductionPct(sims[i], result.unifiedMissRate);
        result.cells.push_back(cell);
    }
    return result;
}

const TopologyCell &
TopologySweepResult::best() const
{
    if (cells.empty()) {
        GENCACHE_PANIC("best() on an empty topology sweep");
    }
    const TopologyCell *winner = &cells.front();
    for (const TopologyCell &cell : cells) {
        if (cell.missRateReductionPct > winner->missRateReductionPct) {
            winner = &cell;
        }
    }
    return *winner;
}

TopologySweepResult
runTopologySweep(const ExperimentRunner &runner,
                 const std::vector<cache::TierTopology> &topologies,
                 std::size_t threads)
{
    if (topologies.empty()) {
        fatal("topology sweep needs at least one topology");
    }
    TopologySweepResult result;
    result.benchmark = runner.profile().name;
    result.capacityBytes = runner.managedCapacity();
    result.unifiedMissRate =
        runner.runUnified(result.capacityBytes).missRate();

    // Serially one pass advances every topology lane at once; on a
    // pool each topology is its own single-lane pass.
    std::unique_ptr<ThreadPool> pool =
        passPool(threads, topologies.size());
    std::vector<SimResult> sims = replayInPasses(
        topologies.size(), pool ? 1 : topologies.size(), pool.get(),
        [&](std::size_t first, std::size_t last) {
            return runner.runTopologyBatch(
                result.capacityBytes,
                {topologies.begin() + static_cast<std::ptrdiff_t>(first),
                 topologies.begin() +
                     static_cast<std::ptrdiff_t>(last)});
        });

    result.cells.reserve(sims.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
        TopologyCell cell;
        cell.topology = topologies[i].name;
        cell.tierCount = topologies[i].fractions.size();
        cell.missRate = sims[i].missRate();
        cell.promotions = sims[i].managerStats.promotions;
        cell.overheadInstrs = sims[i].overhead.total();
        cell.missRateReductionPct =
            reductionPct(sims[i], result.unifiedMissRate);
        result.cells.push_back(cell);
    }
    return result;
}

TopologySweepResult
runTopologySweep(const workload::BenchmarkProfile &profile,
                 const std::vector<cache::TierTopology> &topologies,
                 std::size_t threads)
{
    ExperimentRunner runner(profile);
    return runTopologySweep(runner, topologies, threads);
}

} // namespace gencache::sim
