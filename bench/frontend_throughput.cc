/**
 * @file
 * Front-end throughput: the predecoded runtime generating live access
 * logs on the standard nine benchmarks (gzip, vpr, gcc, crafty, eon,
 * art, applu, word, solitaire).
 *
 * Each benchmark name maps deterministically to a synthetic guest
 * program whose shape mimics the profile class: tight hot loops for
 * the SPEC floating-point codes, wide flat code for gcc, phased
 * DLL-heavy runs for the interactive programs. Each program runs to
 * completion once; the timed interval is module load (which includes
 * predecoding) through guest halt — the full single-threaded
 * log-generation path. The harness exits nonzero when a program does
 * not halt, and panics when a log fails AccessLog::validate().
 *
 * Emits BENCH_frontend.json: per-benchmark and total wall times,
 * retired guest instructions/sec and events/sec.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "codecache/unified_cache.h"
#include "guest/address_space.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"

namespace {

using namespace gencache;

/** Shape class of a benchmark's synthetic stand-in. */
struct BenchShape
{
    const char *name;
    unsigned phases;
    unsigned functionsPerPhase;
    unsigned sharedFunctions;
    unsigned dllCount;
    unsigned blocksPerFunction;
    unsigned phaseIterations; ///< scaled by GENCACHE_SCALE
    unsigned innerIterations;
};

/** The §6.1 nine-benchmark grid, as front-end workload shapes.
 *  SPEC integer codes: moderate footprints, warm loops. gcc: wide
 *  flat code, dispatch-heavy. SPEC fp (art, applu): tiny scorching
 *  loops. Interactive (word, solitaire): phased, DLL churn. */
const BenchShape kShapes[] = {
    {"gzip", 3, 4, 2, 1, 4, 900, 60},
    {"vpr", 3, 5, 2, 1, 5, 700, 50},
    {"gcc", 5, 8, 3, 2, 6, 500, 25},
    {"crafty", 3, 6, 3, 1, 5, 700, 45},
    {"eon", 4, 5, 2, 1, 5, 650, 45},
    {"art", 2, 3, 2, 0, 3, 1400, 120},
    {"applu", 2, 3, 2, 0, 4, 1200, 110},
    {"word", 6, 5, 2, 3, 4, 450, 30},
    {"solitaire", 6, 4, 2, 3, 4, 500, 30},
};

/** Deterministic seed from the benchmark name (FNV-1a). */
std::uint64_t
seedOf(const char *name)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char *c = name; *c != '\0'; ++c) {
        hash ^= static_cast<unsigned char>(*c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

guest::SyntheticProgramConfig
configOf(const BenchShape &shape)
{
    double scale = bench::scaleFactor();
    guest::SyntheticProgramConfig config;
    config.seed = seedOf(shape.name);
    config.phases = shape.phases;
    config.functionsPerPhase = shape.functionsPerPhase;
    config.sharedFunctions = shape.sharedFunctions;
    config.dllCount = shape.dllCount;
    config.blocksPerFunction = shape.blocksPerFunction;
    auto iterations = static_cast<unsigned>(
        static_cast<double>(shape.phaseIterations) * scale);
    config.phaseIterations = iterations < 1 ? 1 : iterations;
    config.innerIterations = shape.innerIterations;
    return config;
}

/** One complete run: load, execute to halt, capture observables. */
struct RunResult
{
    double seconds = 0.0;
    std::uint64_t instructions = 0;
    std::size_t events = 0;
    bool finished = false;
};

RunResult
runOnce(const guest::SyntheticProgram &synthetic)
{
    cache::UnifiedCacheManager manager(0);
    guest::AddressSpace space;
    runtime::Runtime runtime(space, manager);

    bench::WallTimer timer;
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
    }
    runtime.start(synthetic.program.entry());
    runtime.run();

    RunResult result;
    result.seconds = timer.seconds();
    result.instructions = runtime.stats().totalInstructions();
    result.events = runtime.log().size();
    result.finished = runtime.finished();
    runtime.log().validate();
    return result;
}

double
perSec(std::uint64_t count, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

} // namespace

int
main()
{
    bench::banner("Front-end throughput: predecoded runtime "
                  "(single-threaded log generation)");

    bench::JsonArray benchmarks;
    double total_sec = 0.0;
    std::uint64_t total_instructions = 0;
    std::uint64_t total_events = 0;
    bool all_finished = true;

    for (const BenchShape &shape : kShapes) {
        guest::SyntheticProgram synthetic =
            guest::generateSyntheticProgram(configOf(shape));
        RunResult run = runOnce(synthetic);
        all_finished = all_finished && run.finished;
        total_sec += run.seconds;
        total_instructions += run.instructions;
        total_events += run.events;

        std::printf("%-10s %10llu insts %8zu events  %.3fs  "
                    "%.1f Minsts/s  %.2f Mevents/s%s\n",
                    shape.name,
                    static_cast<unsigned long long>(run.instructions),
                    run.events, run.seconds,
                    perSec(run.instructions, run.seconds) / 1e6,
                    perSec(run.events, run.seconds) / 1e6,
                    run.finished ? "" : "  DID NOT HALT");

        bench::JsonObject entry;
        entry.put("name", shape.name)
            .put("instructions", run.instructions)
            .put("events", static_cast<std::uint64_t>(run.events))
            .put("sec", run.seconds)
            .put("insts_per_sec", perSec(run.instructions, run.seconds))
            .put("events_per_sec", perSec(run.events, run.seconds))
            .put("finished", run.finished);
        benchmarks.push(entry);
    }

    std::printf("\ntotal: %.2fs, %.1f Minsts/s, %.2f Mevents/s%s\n",
                total_sec, perSec(total_instructions, total_sec) / 1e6,
                perSec(total_events, total_sec) / 1e6,
                all_finished ? "" : ", some programs DID NOT HALT");

    bench::JsonObject artifact;
    artifact.put("bench", "frontend_throughput")
        .put("threads", static_cast<std::uint64_t>(1))
        .put("scale", bench::scaleFactor())
        .putRaw("benchmarks", benchmarks.toString())
        .put("total_instructions", total_instructions)
        .put("total_events", total_events)
        .put("sec", total_sec)
        .put("insts_per_sec", perSec(total_instructions, total_sec))
        .put("events_per_sec", perSec(total_events, total_sec))
        .put("all_finished", all_finished);
    bench::writeJsonArtifact("BENCH_frontend.json", artifact);

    return all_finished ? 0 : 1;
}
