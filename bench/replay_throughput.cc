/**
 * @file
 * Replay throughput of the batched compiled-log engine on the
 * standard §6.1 sweep grid, serial and threaded.
 *
 * For each benchmark the workload is generated once and the memoized
 * unbounded/unified baselines are primed before any timing, so the
 * measured interval is pure generational-cell replay. The one-time
 * CompiledLog build is timed separately and reported alongside.
 *
 * Emits BENCH_replay.json: per-benchmark and total wall times and
 * lane-events/sec of the serial and the threaded (GENCACHE_THREADS /
 * hardware concurrency) sweep, the threaded speedup, and whether both
 * sweeps produced identical cells. Exits 1 when they did not.
 */

#include <cstdio>

#include "bench_util.h"
#include "sim/sweep.h"
#include "support/format.h"
#include "support/thread_pool.h"

namespace {

using namespace gencache;

const char *const kSubset[] = {"gzip", "vpr", "gcc", "crafty", "eon",
                               "art", "applu", "word", "solitaire"};

bool
cellsIdentical(const sim::SweepResult &a, const sim::SweepResult &b)
{
    if (a.capacityBytes != b.capacityBytes ||
        a.unifiedMissRate != b.unifiedMissRate ||
        a.cells.size() != b.cells.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const sim::SweepCell &x = a.cells[i];
        const sim::SweepCell &y = b.cells[i];
        if (x.missRate != y.missRate ||
            x.promotions != y.promotions ||
            x.missRateReductionPct != y.missRateReductionPct ||
            x.threshold != y.threshold) {
            return false;
        }
    }
    return true;
}

double
eventsPerSec(std::uint64_t events, std::size_t cells, double seconds)
{
    if (seconds <= 0.0) {
        return 0.0;
    }
    return static_cast<double>(events) *
           static_cast<double>(cells) / seconds;
}

} // namespace

int
main()
{
    std::size_t threads = ThreadPool::defaultThreadCount();
    bench::banner(
        format("Replay throughput: batched compiled-log sweep, serial "
               "and {} threads", threads));

    std::vector<sim::SweepPoint> points = sim::defaultSweepPoints();
    std::vector<std::uint32_t> thresholds =
        sim::defaultSweepThresholds();
    const std::size_t cells = points.size() * thresholds.size();

    bench::JsonArray benchmarks;
    double total_serial = 0.0;
    double total_threaded = 0.0;
    double total_compile_sec = 0.0;
    std::uint64_t total_events = 0;
    bool all_identical = true;

    for (const char *name : kSubset) {
        workload::BenchmarkProfile profile =
            bench::scaled(workload::findProfile(name));
        sim::ExperimentRunner runner(profile);
        const std::uint64_t events = runner.log().size();

        bench::WallTimer compile_timer;
        runner.compiled();
        double compile_sec = compile_timer.seconds();

        // Prime the memoized baselines (and thereby the capacity) so
        // both sweeps time pure generational-cell replay.
        sim::SweepResult warm =
            sim::runSweep(runner, points, {thresholds.front()}, 1);

        bench::WallTimer timer;
        sim::SweepResult serial =
            sim::runSweep(runner, points, thresholds, 1);
        double serial_sec = timer.seconds();

        timer.reset();
        sim::SweepResult threaded =
            sim::runSweep(runner, points, thresholds, threads);
        double threaded_sec = timer.seconds();

        bool identical = cellsIdentical(serial, threaded) &&
                         warm.capacityBytes == serial.capacityBytes;
        all_identical = all_identical && identical;

        double speedup =
            threaded_sec > 0.0 ? serial_sec / threaded_sec : 0.0;

        total_serial += serial_sec;
        total_threaded += threaded_sec;
        total_compile_sec += compile_sec;
        total_events += events;

        std::printf("%-10s %9llu events  serial %.3fs  %zu-thread "
                    "%.3fs (%.2fx)  compile %.3fs  cells %s\n",
                    name, static_cast<unsigned long long>(events),
                    serial_sec, threads, threaded_sec, speedup,
                    compile_sec, identical ? "identical" : "MISMATCH");

        bench::JsonObject entry;
        entry.put("name", name)
            .put("events", events)
            .put("cells", static_cast<std::uint64_t>(cells))
            .put("compile_sec", compile_sec)
            .put("serial_sec", serial_sec)
            .put("serial_events_per_sec",
                 eventsPerSec(events, cells, serial_sec))
            .put("threaded_sec", threaded_sec)
            .put("threaded_events_per_sec",
                 eventsPerSec(events, cells, threaded_sec))
            .put("threaded_speedup", speedup)
            .put("cells_identical", identical);
        benchmarks.push(entry);
    }

    double speedup =
        total_threaded > 0.0 ? total_serial / total_threaded : 0.0;

    std::printf("\ntotal: serial %.2fs, %zu-thread %.2fs (%.2fx), "
                "compile %.2fs, cells %s\n",
                total_serial, threads, total_threaded, speedup,
                total_compile_sec,
                all_identical ? "identical" : "MISMATCH");

    bench::JsonObject artifact;
    artifact.put("bench", "replay_throughput")
        .put("threads", static_cast<std::uint64_t>(threads))
        .put("scale", bench::scaleFactor())
        .put("sweep_cells", static_cast<std::uint64_t>(cells))
        .putRaw("benchmarks", benchmarks.toString())
        .put("total_events", total_events)
        .put("total_compile_sec", total_compile_sec)
        .put("serial_sec", total_serial)
        .put("serial_events_per_sec",
             eventsPerSec(total_events, cells, total_serial))
        .put("threaded_sec", total_threaded)
        .put("threaded_events_per_sec",
             eventsPerSec(total_events, cells, total_threaded))
        .put("threaded_speedup", speedup)
        .put("all_cells_identical", all_identical);
    bench::writeJsonArtifact("BENCH_replay.json", artifact);

    return all_identical ? 0 : 1;
}
