/**
 * @file
 * fleet_shared: generateFleetWorkload fleets replayed by
 * sim::FleetSimulator, the only workload that touches the
 * SharedCodeStore (probe, publish, attach, stripe locks, invalidation
 * forwarding).
 *
 * Two four-process fleets: "office" with no churn (the dedup story)
 * and "storm" with three fleet-wide unmap storms (the invalidation
 * story), each at three times bench/fleet_replay's per-process
 * volume. A round replays each fleet with sharing off and on using
 * the deterministic round-robin run(), then once with runThreaded()
 * on at most nproc processes. Threaded hit counts race, so those
 * passes are checked only by conservation invariants, and their
 * times feed only fleet_threaded_events_per_s and the per-layer
 * numbers, not the end-to-end rates and pass times.
 */

#include <algorithm>

#include <sched.h>

#include "harness.h"
#include "sim/fleet.h"
#include "support/units.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace gencache;

constexpr double kVolume = 3.0;
constexpr unsigned kProcesses = 4;

struct Fleet
{
    workload::FleetWorkloadConfig config;
    std::vector<tracelog::CompiledLog> logs;
    /** The first min(nproc, processes) logs, for runThreaded(). */
    std::vector<tracelog::CompiledLog> threadedLogs;
    std::vector<std::uint64_t> execs; ///< TraceExec events per process
    std::uint64_t events = 0;
    std::uint64_t threadedEvents = 0;
};

sim::FleetOptions
fleetOptions(const workload::FleetWorkloadConfig &config, bool sharing)
{
    // As bench/fleet_replay: private budget at half of one process's
    // footprint, the store sized for the shared libraries.
    sim::FleetOptions options;
    options.sharing = sharing;
    options.budgetBytes = static_cast<std::uint64_t>(
        (config.sharedLibKb + config.privateKb) *
        static_cast<double>(kKiB) / 2.0);
    options.store.shards = 8;
    options.store.capacityBytes = static_cast<std::uint64_t>(
        config.sharedDlls * config.sharedLibKb * 2.0 *
        static_cast<double>(kKiB));
    return options;
}

std::uint32_t
digestOf(const sim::FleetResult &result)
{
    Digest digest;
    digest.add(result.sharing ? 1 : 0);
    for (const sim::FleetProcessResult &process : result.processes) {
        const sim::SimResult &sim = process.sim;
        const cache::ManagerStats &stats = sim.managerStats;
        digest.add(sim.lookups)
            .add(sim.hits)
            .add(sim.misses)
            .add(sim.regenerations)
            .add(sim.peakBytes)
            .add(sim.createdTraces)
            .add(sim.createdBytes)
            .add(stats.inserts)
            .add(stats.deletions)
            .add(stats.unmapDeletions)
            .add(stats.promotions)
            .add(stats.promotedBytes)
            .add(sim.overhead.total());
        const auto &shared = process.sharedTier;
        digest.add(shared.probes)
            .add(shared.hits)
            .add(shared.publishes)
            .add(shared.publishedInserts)
            .add(shared.publishedAttaches)
            .add(shared.publishedDuplicates)
            .add(shared.publishedRejects)
            .add(shared.invalidationsForwarded);
    }
    const cache::SharedStoreStats &store = result.storeStats;
    digest.add(store.probes)
        .add(store.probeHits)
        .add(store.publishes)
        .add(store.inserts)
        .add(store.attaches)
        .add(store.duplicatePublishes)
        .add(store.rejectedPublishes)
        .add(store.capacityEvictions)
        .add(store.unmapEvictions)
        .add(store.invalidations)
        .add(result.storePeakUsedBytes)
        .add(result.storePeakClaimedBytes)
        .add(result.storeEntries);
    return digest.value();
}

class FleetWorkload : public Workload
{
  public:
    explicit FleetWorkload(std::uint64_t seed)
    {
        workload::FleetWorkloadConfig office;
        office.processes = kProcesses;
        office.sharedDlls = 4;
        office.sharedLibKb = 192.0 * kVolume;
        office.privateKb = 96.0 * kVolume;
        office.durationSec = 20.0 * kVolume;
        office.seed = mixSeed(2003, seed);
        office.namePrefix = "office";

        workload::FleetWorkloadConfig storm = office;
        storm.unmapStorms = 3;
        storm.seed = mixSeed(2004, seed);
        storm.namePrefix = "storm";

        fleets_.resize(2);
        fleets_[0].config = office;
        fleets_[1].config = storm;
    }

    void setup(Tracer &tracer) override
    {
        cpu_set_t cpus;
        CPU_ZERO(&cpus);
        const int usable =
            sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus)
                                                           : 1;
        const std::size_t threaded = std::min<std::size_t>(
            kProcesses, static_cast<std::size_t>(std::max(1, usable)));
        for (std::size_t f = 0; f < fleets_.size(); ++f) {
            Fleet &fleet = fleets_[f];
            std::vector<tracelog::AccessLog> logs;
            {
                SpanScope span(tracer, "workload.generate", f + 1);
                logs = workload::generateFleetWorkload(fleet.config);
            }
            {
                SpanScope span(tracer, "tracelog.compile", f + 1);
                for (const tracelog::AccessLog &log : logs) {
                    fleet.logs.push_back(tracelog::CompiledLog::compile(log));
                }
            }
            for (std::size_t p = 0; p < fleet.logs.size(); ++p) {
                const tracelog::CompiledLog &log = fleet.logs[p];
                fleet.execs.push_back(static_cast<std::uint64_t>(
                    std::count(log.types().begin(), log.types().end(),
                               tracelog::EventType::TraceExec)));
                fleet.events += log.size();
                if (p < threaded) {
                    fleet.threadedEvents += log.size();
                }
            }
            if (threaded < fleet.logs.size()) {
                fleet.threadedLogs.assign(
                    fleet.logs.begin(),
                    fleet.logs.begin() +
                        static_cast<std::ptrdiff_t>(threaded));
            }
        }
    }

    void checkSetup(Ledger &ledger) override
    {
        for (const Fleet &fleet : fleets_) {
            ledger.expect(fleet.logs.size() == kProcesses,
                          fleet.config.namePrefix + " has one log per "
                                                    "process");
        }
    }

    RoundStats round(Tracer &tracer, Ledger &ledger,
                     std::vector<double> &pass_seconds) override
    {
        RoundStats stats;
        Kinds kinds;
        const bool keep = first_.empty();
        for (std::size_t f = 0; f < fleets_.size(); ++f) {
            const Fleet &fleet = fleets_[f];
            const std::uint64_t request = f + 1;
            // Only the single-threaded round-robin passes count towards
            // the end-to-end rates and pass times; the threaded pass
            // competes with whatever else the host runs on its cores.
            auto timed = [&](const char *name, bool counted, auto &&body) {
                SpanScope pass(tracer, "bench.pass", request);
                const Clock::time_point start = Clock::now();
                {
                    SpanScope span(tracer, name, request);
                    body();
                }
                const double seconds = secondsBetween(start, Clock::now());
                if (counted) {
                    pass_seconds.push_back(seconds);
                    stats.workSeconds += seconds;
                    ++stats.results;
                }
                return seconds;
            };

            for (bool sharing : {false, true}) {
                sim::FleetResult result;
                const double seconds = timed(
                    sharing ? "sim.fleet_shared" : "sim.fleet_isolated", true,
                    [&] {
                        sim::FleetSimulator simulator(
                            fleet.logs, fleetOptions(fleet.config, sharing));
                        result = simulator.run();
                    });
                stats.events += fleet.events;
                if (sharing) {
                    kinds.sharedSeconds += seconds;
                    kinds.sharedEvents += fleet.events;
                }
                const std::string what =
                    fleet.config.namePrefix +
                    (sharing ? " shared" : " isolated") + " round-robin";
                ledger.digest(2 * f + (sharing ? 1 : 0), digestOf(result),
                              what);
                checkConservation(ledger, fleet, result, what);
                if (keep) {
                    first_.push_back(result);
                }
            }

            const std::vector<tracelog::CompiledLog> &logs =
                fleet.threadedLogs.empty() ? fleet.logs : fleet.threadedLogs;
            sim::FleetResult threaded;
            std::uint64_t contentions = 0;
            kinds.threadedSeconds += timed("sim.fleet_threaded", false, [&] {
                sim::FleetSimulator simulator(
                    logs, fleetOptions(fleet.config, true));
                threaded = simulator.runThreaded();
                contentions = simulator.store()->stats().lockContentions;
            });
            kinds.threadedEvents += fleet.threadedEvents;
            checkConservation(ledger, fleet, threaded,
                              fleet.config.namePrefix + " threaded");
            if (keep) {
                lockContentions_ += contentions;
            }
        }
        kinds_.push_back(kinds);
        return stats;
    }

    void finish(Tracer &, Ledger &, Metrics &layers) override
    {
        cache::ManagerStats managed;
        cache::SharedStoreStats store;
        std::uint64_t events = 0;
        for (const Fleet &fleet : fleets_) {
            events += fleet.events;
        }
        for (const sim::FleetResult &result : first_) {
            for (const sim::FleetProcessResult &process : result.processes) {
                const cache::ManagerStats &s = process.sim.managerStats;
                managed.lookups += s.lookups;
                managed.hits += s.hits;
                managed.misses += s.misses;
                managed.inserts += s.inserts;
                managed.deletions += s.deletions;
                managed.promotions += s.promotions;
                managed.unmapDeletions += s.unmapDeletions;
            }
            if (result.sharing) {
                store.probes += result.storeStats.probes;
                store.probeHits += result.storeStats.probeHits;
                store.publishes += result.storeStats.publishes;
                store.attaches += result.storeStats.attaches;
                store.invalidations += result.storeStats.invalidations;
            }
        }
        setManagerLayers(managed, layers);
        layers.set("workload.events", static_cast<double>(events));
        layers.set("tracelog.events", static_cast<double>(events));
        layers.set("codecache.store_probes",
                   static_cast<double>(store.probes));
        layers.set("codecache.store_probe_hit_ratio",
                   store.probes == 0
                       ? 0.0
                       : static_cast<double>(store.probeHits) /
                             static_cast<double>(store.probes));
        layers.set("codecache.store_publishes",
                   static_cast<double>(store.publishes));
        layers.set("codecache.store_attaches",
                   static_cast<double>(store.attaches));
        layers.set("codecache.store_invalidations",
                   static_cast<double>(store.invalidations));
        layers.set("codecache.store_lock_contentions",
                   static_cast<double>(lockContentions_));
        double threaded_seconds = 0.0;
        std::uint64_t threaded_events = 0;
        for (const Kinds &kinds : kinds_) {
            threaded_seconds += kinds.threadedSeconds;
            threaded_events += kinds.threadedEvents;
        }
        layers.set("sim.fleet_threaded_events_per_s",
                   static_cast<double>(threaded_events) / threaded_seconds);
    }

    void namedMetrics(const std::vector<RoundStats> &rounds,
                      Metrics &named) const override
    {
        // The window's rounds are the last ones run (after warm-up);
        // as for the end-to-end rates, report the median round.
        std::vector<double> shared;
        std::vector<double> threaded;
        for (std::size_t i = kinds_.size() - rounds.size();
             i < kinds_.size(); ++i) {
            const Kinds &kinds = kinds_[i];
            shared.push_back(static_cast<double>(kinds.sharedEvents) /
                             kinds.sharedSeconds);
            threaded.push_back(static_cast<double>(kinds.threadedEvents) /
                               kinds.threadedSeconds);
        }
        named.set("fleet_events_per_s", median(shared));
        named.set("fleet_threaded_events_per_s", median(threaded));
    }

  private:
    /** Per-round time and events of the shared round-robin and the
     *  threaded passes. */
    struct Kinds
    {
        double sharedSeconds = 0.0;
        std::uint64_t sharedEvents = 0;
        double threadedSeconds = 0.0;
        std::uint64_t threadedEvents = 0;
    };

    /** Invariants that hold under any interleaving: every process
     *  looked up each of its executions exactly once, and the store
     *  never held more than its budget. */
    static void checkConservation(Ledger &ledger, const Fleet &fleet,
                                  const sim::FleetResult &result,
                                  const std::string &what)
    {
        bool ok = true;
        for (std::size_t p = 0; p < result.processes.size(); ++p) {
            const sim::SimResult &sim = result.processes[p].sim;
            ok = ok && sim.lookups == fleet.execs[p] &&
                 sim.hits + sim.misses == sim.lookups;
        }
        ledger.expect(ok, what + " per-process lookups = executions and "
                                 "hits + misses = lookups");
        if (result.sharing) {
            ledger.expect(
                result.storePeakUsedBytes <=
                    fleetOptions(fleet.config, true).store.capacityBytes,
                what + " store bytes within budget");
        }
    }

    std::vector<Fleet> fleets_;
    std::vector<sim::FleetResult> first_;
    std::vector<Kinds> kinds_;
    std::uint64_t lockContentions_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFleetWorkload(std::uint64_t seed)
{
    return std::make_unique<FleetWorkload>(seed);
}

} // namespace perfbench
