/**
 * @file
 * spec_sweep and interactive_pressure: the paper's §6 methodology
 * driven through sim::ExperimentRunner, one profile x one sweep
 * column per pass.
 *
 * Set-up builds, per profile, what the grid reads but never changes:
 * the access log (workload), its CompiledLog (tracelog), the Table 2
 * cost tables (costmodel), and the memoized unbounded and unified
 * baselines that fix the budget (sim).
 *
 * A round on spec_sweep calls sim::runSweep (serial, blocked kernel)
 * once per profile; the results and event rates are those calls'.
 * It then replays each column of the default 6 x 4 proportion x
 * threshold grid with ExperimentRunner::runGenerationalBatch, the
 * call runSweep makes per column: those passes give the pass-time
 * percentiles and the full SimResults the digests cover, and
 * runSweep's cells must equal theirs. runSweep fixes the budget at
 * 0.5 x maxCache, so interactive_pressure, whose budget is 0.1 x,
 * cannot use it: its rounds replay the grid's columns with
 * runGenerationalBatch and the TierTopology catalog with
 * runTopologyBatch, and those passes give every end-to-end number.
 *
 * After the window, a fresh GenerationalCacheManager configured like
 * the 45-10-45 threshold-1 cell is driven call by call through the
 * CacheManager interface over every profile's log. Its counts must
 * equal the batched cell's (an oracle that holds for any seed), and
 * its per-call times are the codecache layer's outside-in cost. That
 * path bypasses BatchedReplay's hot-slot sidecar, so the hit cost it
 * reports is the virtual-call lookup, not the sidecar's.
 */

#include <algorithm>
#include <cmath>

#include "codecache/generational_cache.h"
#include "harness.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "support/format.h"
#include "workload/profile.h"

namespace perfbench {
namespace {

using namespace gencache;

struct SweepShape
{
    bool interactive;
    double scale;        ///< volume and duration factor per profile
    double budgetFactor; ///< managed budget as a share of maxCache
    bool topologies;     ///< also replay the TierTopology catalog
};

/** The 45-10-45 threshold-1 cell: column 1, threshold index 0. */
constexpr std::size_t kProbeColumn = 1;

void
addResult(Digest &digest, const sim::SimResult &result)
{
    const cache::ManagerStats &stats = result.managerStats;
    digest.add(result.benchmark)
        .add(result.manager)
        .add(result.lookups)
        .add(result.hits)
        .add(result.misses)
        .add(result.regenerations)
        .add(result.peakBytes)
        .add(result.createdTraces)
        .add(result.createdBytes)
        .add(stats.lookups)
        .add(stats.hits)
        .add(stats.misses)
        .add(stats.inserts)
        .add(stats.insertedBytes)
        .add(stats.deletions)
        .add(stats.deletedBytes)
        .add(stats.unmapDeletions)
        .add(stats.unmapDeletedBytes)
        .add(stats.promotions)
        .add(stats.promotedBytes)
        .add(stats.probationRejections)
        .add(stats.placementFailures)
        .add(result.overhead.traceGeneration)
        .add(result.overhead.contextSwitches)
        .add(result.overhead.evictions)
        .add(result.overhead.promotions)
        .add(result.overhead.copies);
}

std::uint32_t
digestOf(const sim::SimResult &result)
{
    Digest digest;
    addResult(digest, result);
    return digest.value();
}

bool
conserved(const sim::SimResult &result)
{
    return result.hits + result.misses == result.lookups &&
           result.managerStats.lookups == result.lookups &&
           result.managerStats.hits == result.hits;
}

/** Per-call cost buckets of the outside-in codecache replay. */
struct CallCosts
{
    std::uint64_t calls[4] = {0, 0, 0, 0};
    double ticks[4] = {0, 0, 0, 0};

    enum Bucket { Hit, Miss, Insert, Invalidate };

    void add(Bucket bucket, std::uint64_t start, std::uint64_t end)
    {
        ++calls[bucket];
        ticks[bucket] += static_cast<double>(end - start);
    }

    double meanNs(Bucket bucket) const
    {
        if (calls[bucket] == 0) {
            return 0.0;
        }
        const double n = static_cast<double>(calls[bucket]);
        const double net = ticks[bucket] - n * tickOverhead();
        return std::max(0.0, net) * nanosPerTick() / n;
    }
};

/**
 * Replay @p log into @p manager with the CacheSimulator protocol
 * (insert on create, lookup then regenerate on exec, invalidate on
 * unload, pins), timing every lookup/insert/invalidateModule call.
 */
sim::SimResult
driveManager(const tracelog::CompiledLog &log, cache::CacheManager &manager,
             CallCosts &costs)
{
    sim::SimResult result;
    manager.prepareDenseIds(log.traceCount());
    std::vector<std::uint8_t> pinned(log.traceCount(), 0);
    const auto &types = log.types();
    const auto &times = log.times();
    const auto &traces = log.traces();
    const auto &sizes = log.sizes();
    const auto &modules = log.modules();

    auto note_peak = [&]() {
        result.peakBytes = std::max(result.peakBytes, manager.usedBytes());
    };
    for (std::size_t i = 0; i < log.size(); ++i) {
        const TimeUs now = times[i];
        const tracelog::DenseTraceId id = traces[i];
        switch (types[i]) {
          case tracelog::EventType::TraceCreate: {
            pinned[id] = 0;
            ++result.createdTraces;
            result.createdBytes += sizes[i];
            const std::uint64_t start = ticks();
            manager.insert(id, sizes[i], modules[i], now);
            costs.add(CallCosts::Insert, start, ticks());
            note_peak();
            break;
          }
          case tracelog::EventType::TraceExec: {
            ++result.lookups;
            const std::uint64_t start = ticks();
            const bool hit = manager.lookup(id, now);
            const std::uint64_t end = ticks();
            if (hit) {
                costs.add(CallCosts::Hit, start, end);
                ++result.hits;
                break;
            }
            costs.add(CallCosts::Miss, start, end);
            ++result.misses;
            const std::uint64_t insert_start = ticks();
            const bool placed = manager.insert(id, log.traceSize(id),
                                               log.traceModule(id), now);
            costs.add(CallCosts::Insert, insert_start, ticks());
            if (placed) {
                ++result.regenerations;
                if (pinned[id] != 0) {
                    manager.setPinned(id, true);
                }
            }
            note_peak();
            break;
          }
          case tracelog::EventType::ModuleLoad:
            break;
          case tracelog::EventType::ModuleUnload: {
            const std::uint64_t start = ticks();
            manager.invalidateModule(modules[i], now);
            costs.add(CallCosts::Invalidate, start, ticks());
            break;
          }
          case tracelog::EventType::Pin:
            pinned[id] = 1;
            manager.setPinned(id, true);
            break;
          case tracelog::EventType::Unpin:
            pinned[id] = 0;
            manager.setPinned(id, false);
            break;
        }
    }
    result.managerStats = manager.stats();
    return result;
}

class SweepWorkload : public Workload
{
  public:
    SweepWorkload(SweepShape shape, std::uint64_t seed) : shape_(shape)
    {
        std::vector<workload::BenchmarkProfile> profiles =
            shape.interactive ? workload::interactiveProfiles()
                              : workload::spec2000Profiles();
        for (workload::BenchmarkProfile &profile : profiles) {
            profile.finalCacheKb =
                std::max(16.0, profile.finalCacheKb * shape.scale);
            profile.durationSec =
                std::max(0.25, profile.durationSec * shape.scale);
            profile.seed = mixSeed(profile.seed, seed);
        }
        profiles_ = std::move(profiles);

        const std::vector<std::uint32_t> thresholds =
            sim::defaultSweepThresholds();
        for (const sim::SweepPoint &point : sim::defaultSweepPoints()) {
            std::vector<sim::GenerationalLayout> column;
            for (std::uint32_t threshold : thresholds) {
                sim::GenerationalLayout layout;
                layout.label = gencache::format("{} thr {}", point.label(),
                                                threshold);
                layout.nurseryFrac = point.nurseryFrac;
                layout.probationFrac = point.probationFrac;
                layout.promotionThreshold = threshold;
                column.push_back(std::move(layout));
            }
            columns_.push_back(std::move(column));
        }
    }

    void setup(Tracer &tracer) override
    {
        for (std::size_t i = 0; i < profiles_.size(); ++i) {
            const std::uint64_t request = i + 1;
            {
                SpanScope span(tracer, "workload.generate", request);
                runners_.push_back(
                    std::make_unique<sim::ExperimentRunner>(profiles_[i]));
            }
            const sim::ExperimentRunner &runner = *runners_.back();
            {
                SpanScope span(tracer, "tracelog.compile", request);
                runner.compiled();
            }
            {
                SpanScope span(tracer, "costmodel.tables", request);
                runner.costTables();
            }
            {
                SpanScope span(tracer, "sim.unbounded", request);
                unbounded_.push_back(runner.runUnbounded());
            }
            capacity_.push_back(std::max<std::uint64_t>(
                4096, static_cast<std::uint64_t>(std::llround(
                          static_cast<double>(unbounded_.back().peakBytes) *
                          shape_.budgetFactor))));
            {
                SpanScope span(tracer, "sim.unified", request);
                unified_.push_back(runner.runUnified(capacity_.back()));
            }
        }
    }

    void checkSetup(Ledger &ledger) override
    {
        for (std::size_t i = 0; i < runners_.size(); ++i) {
            const std::string &name = profiles_[i].name;
            ledger.digest(2 * i, digestOf(unbounded_[i]),
                          name + " unbounded");
            ledger.digest(2 * i + 1, digestOf(unified_[i]),
                          name + " unified");
            ledger.expect(conserved(unbounded_[i]) &&
                              conserved(unified_[i]),
                          name + " baseline hits + misses = lookups");
            ledger.expect(unbounded_[i].misses == 0,
                          name + " unbounded replay never misses");
        }
    }

    RoundStats round(Tracer &tracer, Ledger &ledger,
                     std::vector<double> &pass_seconds) override
    {
        RoundStats stats;
        std::size_t slot = 2 * runners_.size();
        const bool keep = firstRound_.empty();
        const bool sweep_rates = usesRunSweep();
        auto pass = [&](std::size_t i, auto &&replay) {
            const sim::ExperimentRunner &runner = *runners_[i];
            SpanScope pass_span(tracer, "bench.pass", i + 1);
            const Clock::time_point start = Clock::now();
            std::vector<sim::SimResult> results;
            {
                SpanScope span(tracer, "sim.replay", i + 1);
                results = replay(runner);
            }
            const double seconds = secondsBetween(start, Clock::now());
            pass_seconds.push_back(seconds);
            laneEvents_ += runner.compiled().size() * results.size();
            if (!sweep_rates) {
                stats.workSeconds += seconds;
                stats.events += runner.compiled().size();
                stats.results += results.size();
            }
            for (const sim::SimResult &result : results) {
                const std::string what =
                    profiles_[i].name + " " + result.manager;
                ledger.digest(slot++, digestOf(result), what);
                ledger.expect(conserved(result),
                              what + " hits + misses = lookups");
                if (keep) {
                    firstRound_.push_back(result);
                }
            }
            return results;
        };
        for (std::size_t i = 0; i < runners_.size(); ++i) {
            sim::SweepResult sweep;
            if (sweep_rates) {
                SpanScope span(tracer, "sim.sweep", i + 1);
                const Clock::time_point start = Clock::now();
                sweep = sim::runSweep(*runners_[i], sim::defaultSweepPoints(),
                                      sim::defaultSweepThresholds(), 1);
                stats.workSeconds += secondsBetween(start, Clock::now());
                stats.events += runners_[i]->compiled().size() *
                                columns_.size();
                stats.results += sweep.cells.size();
            }
            std::vector<sim::SimResult> cells;
            for (const auto &column : columns_) {
                std::vector<sim::SimResult> results =
                    pass(i, [&](const sim::ExperimentRunner &runner) {
                        return runner.runGenerationalBatch(capacity_[i],
                                                           column);
                    });
                cells.insert(cells.end(), results.begin(), results.end());
            }
            if (sweep_rates) {
                ledger.expect(sameCells(sweep, i, cells),
                              profiles_[i].name +
                                  " sim::runSweep cells equal the column "
                                  "passes");
            }
            if (shape_.topologies) {
                pass(i, [&](const sim::ExperimentRunner &runner) {
                    return runner.runTopologyBatch(
                        capacity_[i], cache::namedTierTopologies());
                });
            }
        }
        return stats;
    }

    void finish(Tracer &tracer, Ledger &ledger, Metrics &layers) override
    {
        const std::size_t per_profile =
            columns_.size() * columns_.front().size() +
            (shape_.topologies ? cache::namedTierTopologies().size() : 0);

        // Oracle: the per-call CacheManager path against the batched
        // kernel's 45-10-45 threshold-1 cell, on every profile.
        CallCosts costs;
        const sim::GenerationalLayout &probe = columns_[kProbeColumn][0];
        for (std::size_t i = 0; i < runners_.size(); ++i) {
            cache::GenerationalCacheManager manager(probe.toConfig(
                capacity_[i]));
            sim::SimResult driven;
            {
                SpanScope span(tracer, "codecache.calls", i + 1);
                driven = driveManager(runners_[i]->compiled(), manager,
                                      costs);
            }
            const sim::SimResult &batched =
                firstRound_[i * per_profile +
                            kProbeColumn * columns_.front().size()];
            const cache::ManagerStats &a = driven.managerStats;
            const cache::ManagerStats &b = batched.managerStats;
            ledger.expect(
                driven.lookups == batched.lookups &&
                    driven.hits == batched.hits &&
                    driven.misses == batched.misses &&
                    driven.regenerations == batched.regenerations &&
                    driven.peakBytes == batched.peakBytes &&
                    a.inserts == b.inserts && a.deletions == b.deletions &&
                    a.unmapDeletions == b.unmapDeletions &&
                    a.promotions == b.promotions &&
                    a.probationRejections == b.probationRejections,
                profiles_[i].name +
                    " per-call CacheManager replay equals the batched "
                    "45-10-45 thr 1 cell");
        }

        std::uint64_t events = 0;
        for (const auto &runner : runners_) {
            events += runner->compiled().size();
        }
        layers.set("workload.events", static_cast<double>(events));
        layers.set("tracelog.events", static_cast<double>(events));
        layers.set("sim.lane_events", static_cast<double>(laneEvents_));

        cache::ManagerStats total;
        for (const sim::SimResult &result : firstRound_) {
            const cache::ManagerStats &s = result.managerStats;
            total.lookups += s.lookups;
            total.hits += s.hits;
            total.misses += s.misses;
            total.inserts += s.inserts;
            total.deletions += s.deletions;
            total.promotions += s.promotions;
            total.unmapDeletions += s.unmapDeletions;
        }
        setManagerLayers(total, layers);

        layers.set("codecache.lookup_hit_ns", costs.meanNs(CallCosts::Hit));
        layers.set("codecache.lookup_miss_ns",
                   costs.meanNs(CallCosts::Miss));
        layers.set("codecache.insert_ns", costs.meanNs(CallCosts::Insert));
        layers.set("codecache.invalidate_ns",
                   costs.meanNs(CallCosts::Invalidate));
        layers.set("codecache.lookup_hit_calls",
                   static_cast<double>(costs.calls[CallCosts::Hit]));
        layers.set("codecache.lookup_miss_calls",
                   static_cast<double>(costs.calls[CallCosts::Miss]));
        layers.set("codecache.insert_calls",
                   static_cast<double>(costs.calls[CallCosts::Insert]));
        layers.set("codecache.invalidate_calls",
                   static_cast<double>(costs.calls[CallCosts::Invalidate]));
    }

    void namedMetrics(const std::vector<RoundStats> &rounds,
                      Metrics &named) const override
    {
        named.set("cells_per_s", medianRate(rounds, &RoundStats::results));
    }

  private:
    /** spec_sweep's budget is runSweep's, so its rates time runSweep. */
    bool usesRunSweep() const
    {
        return shape_.budgetFactor == sim::kCachePressureFactor &&
               !shape_.topologies;
    }

    /** @return whether runSweep's cells for profile @p i equal the
     *  column passes' @p cells (row-major, as runSweep orders them). */
    bool sameCells(const sim::SweepResult &sweep, std::size_t i,
                   const std::vector<sim::SimResult> &cells) const
    {
        const double unified = unified_[i].missRate();
        bool same = sweep.capacityBytes == capacity_[i] &&
                    sweep.unifiedMissRate == unified &&
                    sweep.cells.size() == cells.size();
        for (std::size_t c = 0; same && c < cells.size(); ++c) {
            const sim::SweepCell &cell = sweep.cells[c];
            same = cell.missRate == cells[c].missRate() &&
                   cell.promotions == cells[c].managerStats.promotions &&
                   cell.missRateReductionPct ==
                       (unified > 0.0
                            ? (1.0 - cells[c].missRate() / unified) * 100.0
                            : 0.0);
        }
        return same;
    }

    SweepShape shape_;
    std::vector<workload::BenchmarkProfile> profiles_;
    std::vector<std::vector<sim::GenerationalLayout>> columns_;
    std::vector<std::unique_ptr<sim::ExperimentRunner>> runners_;
    std::vector<sim::SimResult> unbounded_;
    std::vector<sim::SimResult> unified_;
    std::vector<std::uint64_t> capacity_;
    std::vector<sim::SimResult> firstRound_;
    std::uint64_t laneEvents_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSweepWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "spec_sweep") {
        return std::make_unique<SweepWorkload>(
            SweepShape{false, 0.1, sim::kCachePressureFactor, false}, seed);
    }
    if (name == "interactive_pressure") {
        return std::make_unique<SweepWorkload>(
            SweepShape{true, 0.03, 0.1, true}, seed);
    }
    return nullptr;
}

} // namespace perfbench
