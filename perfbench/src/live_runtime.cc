/**
 * @file
 * live_runtime: the nine synthetic guest-program shapes of
 * bench/frontend_throughput executed by runtime::Runtime with the
 * predecoded front end; a pass is one slice of 10 M guest
 * instructions (the first also loads the modules).
 *
 * As in the paper's §6 methodology, set-up runs each program once
 * against an unbounded cache to find its trace footprint (maxCache);
 * every pass then runs it under a 45-10-45 GenerationalCacheManager
 * of half that size, so evictions force trace regeneration on every
 * program. checkRuntime gives each run's verdict. guest, interp,
 * runtime and opt do the work here; sim and the CompiledLog build do
 * none.
 */

#include <algorithm>

#include "analysis/checker.h"
#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "guest/address_space.h"
#include "guest/synthetic_program.h"
#include "harness.h"
#include "runtime/runtime.h"

namespace perfbench {
namespace {

using namespace gencache;

/** One frontend_throughput shape (see bench/frontend_throughput.cc). */
struct Shape
{
    const char *name;
    unsigned phases;
    unsigned functionsPerPhase;
    unsigned sharedFunctions;
    unsigned dllCount;
    unsigned blocksPerFunction;
    unsigned phaseIterations;
    unsigned innerIterations;
};

const Shape kShapes[] = {
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

/** Managed budget as a share of the unbounded footprint (the paper's
 *  0.5 x maxCache). */
constexpr double kPressure = 0.5;

/** Guest instructions per pass. Runtime::run stops only between
 *  dispatches, so slicing a run changes none of its results; it gives
 *  ~20 comparable passes per round where whole programs would give
 *  nine of very different lengths. Longer slices average trace
 *  building with trace execution, so the pass-time percentiles depend
 *  less on where in a program the building falls. */
constexpr std::uint64_t kSliceInstructions = 10'000'000;

std::uint64_t
fnv(const char *name)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char *c = name; *c != '\0'; ++c) {
        hash ^= static_cast<unsigned char>(*c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

class LiveRuntimeWorkload : public Workload
{
  public:
    explicit LiveRuntimeWorkload(std::uint64_t seed) : seed_(seed) {}

    void setup(Tracer &tracer) override
    {
        for (std::size_t i = 0; i < std::size(kShapes); ++i) {
            const Shape &shape = kShapes[i];
            guest::SyntheticProgramConfig config;
            config.seed = mixSeed(fnv(shape.name), seed_);
            config.phases = shape.phases;
            config.functionsPerPhase = shape.functionsPerPhase;
            config.sharedFunctions = shape.sharedFunctions;
            config.dllCount = shape.dllCount;
            config.blocksPerFunction = shape.blocksPerFunction;
            config.phaseIterations = shape.phaseIterations;
            config.innerIterations = shape.innerIterations;
            {
                SpanScope span(tracer, "guest.synth", i + 1);
                programs_.push_back(guest::generateSyntheticProgram(config));
            }
            SpanScope span(tracer, "runtime.unbounded", i + 1);
            cache::UnifiedCacheManager manager(0);
            guest::AddressSpace space;
            runtime::Runtime runtime(space, manager);
            for (const auto &module : programs_.back().program.modules()) {
                runtime.loadModule(*module);
            }
            runtime.start(programs_.back().program.entry());
            runtime.run();
            unbounded_.push_back({runtime.stats(), manager.stats(), 0});
            budgets_.push_back(std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       static_cast<double>(manager.peakBytes()) *
                       kPressure)));
        }
    }

    void checkSetup(Ledger &ledger) override
    {
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const std::string name = kShapes[i].name;
            const Outcome &run = unbounded_[i];
            ledger.expect(run.stats.traceRegenerations == 0 &&
                              run.managed.misses == 0,
                          name + " unbounded run never regenerates");
            Digest digest;
            digest.add(budgets_[i])
                .add(run.stats.instructionsInterpreted)
                .add(run.stats.instructionsInTraces)
                .add(run.stats.tracesBuilt)
                .add(run.managed.lookups)
                .add(run.managed.inserts);
            ledger.digest(i, digest.value(), name + " unbounded run");
        }
    }

    RoundStats round(Tracer &tracer, Ledger &ledger,
                     std::vector<double> &pass_seconds) override
    {
        RoundStats stats;
        const bool keep = first_.empty();
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const std::uint64_t request = i + 1;
            const guest::SyntheticProgram &synthetic = programs_[i];
            cache::GenerationalCacheManager manager(
                cache::GenerationalConfig::fromProportions(
                    budgets_[i], 0.45, 0.10, 1));
            guest::AddressSpace space;
            runtime::Runtime runtime(space, manager);

            auto slice = [&](auto &&body) {
                SpanScope pass(tracer, "bench.pass", request);
                const Clock::time_point start = Clock::now();
                body();
                const double seconds = secondsBetween(start, Clock::now());
                pass_seconds.push_back(seconds);
                stats.workSeconds += seconds;
            };
            slice([&] {
                {
                    SpanScope span(tracer, "runtime.load", request);
                    for (const auto &module : synthetic.program.modules()) {
                        runtime.loadModule(*module);
                    }
                }
                runtime.start(synthetic.program.entry());
                SpanScope span(tracer, "runtime.run", request);
                runtime.run(kSliceInstructions);
            });
            while (!runtime.finished()) {
                slice([&] {
                    SpanScope span(tracer, "runtime.run", request);
                    runtime.run(kSliceInstructions);
                });
            }
            stats.events += runtime.stats().totalInstructions();
            ++stats.results;

            std::size_t errors = 0;
            {
                SpanScope span(tracer, "analysis.check", request);
                errors = analysis::checkRuntime(synthetic.program, runtime)
                             .errorCount();
            }
            const std::string name = kShapes[i].name;
            const cache::ManagerStats &managed = manager.stats();
            ledger.expect(errors == 0, name + " checkRuntime reports no "
                                              "errors");
            ledger.expect(runtime.finished(), name + " guest halted");
            ledger.expect(managed.hits + managed.misses == managed.lookups,
                          name + " hits + misses = lookups");
            ledger.digest(programs_.size() + i, digestOf(runtime, managed),
                          name + " run");
            if (keep) {
                first_.push_back({runtime.stats(), managed, errors});
            }
        }
        return stats;
    }

    void finish(Tracer &, Ledger &, Metrics &layers) override
    {
        runtime::RuntimeStats total;
        cache::ManagerStats managed;
        std::uint64_t errors = 0;
        for (const Outcome &run : first_) {
            total.instructionsInterpreted +=
                run.stats.instructionsInterpreted;
            total.instructionsInTraces += run.stats.instructionsInTraces;
            total.tracesBuilt += run.stats.tracesBuilt;
            total.traceRegenerations += run.stats.traceRegenerations;
            managed.lookups += run.managed.lookups;
            managed.hits += run.managed.hits;
            managed.misses += run.managed.misses;
            managed.inserts += run.managed.inserts;
            managed.deletions += run.managed.deletions;
            managed.promotions += run.managed.promotions;
            managed.unmapDeletions += run.managed.unmapDeletions;
            errors += run.errors;
        }
        layers.set("runtime.guest_instructions",
                   static_cast<double>(total.totalInstructions()));
        layers.set("runtime.trace_residency", total.cacheResidency());
        layers.set("runtime.traces_built",
                   static_cast<double>(total.tracesBuilt));
        layers.set("runtime.trace_regenerations",
                   static_cast<double>(total.traceRegenerations));
        layers.set("analysis.errors", static_cast<double>(errors));
        setManagerLayers(managed, layers);
    }

    void namedMetrics(const std::vector<RoundStats> &rounds,
                      Metrics &named) const override
    {
        named.set("guest_minst_per_s",
                  medianRate(rounds, &RoundStats::events) / 1e6);
    }

  private:
    struct Outcome
    {
        runtime::RuntimeStats stats;
        cache::ManagerStats managed;
        std::size_t errors = 0;
    };

    static std::uint32_t digestOf(const runtime::Runtime &runtime,
                                  const cache::ManagerStats &managed)
    {
        Digest digest;
        for (const tracelog::Event &event : runtime.log().events()) {
            digest.addWord(event.time)
                .addWord(event.trace)
                .addWord((static_cast<std::uint64_t>(event.type) << 32) |
                         event.sizeBytes)
                .addWord(event.module);
        }
        const runtime::RuntimeStats &stats = runtime.stats();
        digest.add(stats.instructionsInterpreted)
            .add(stats.instructionsInTraces)
            .add(stats.contextSwitches)
            .add(stats.tracesBuilt)
            .add(stats.traceRegenerations)
            .add(stats.traceExecutions)
            .add(stats.blocksInterpreted)
            .add(stats.tracesOptimized)
            .add(stats.optimizerBytesSaved)
            .add(stats.optimizerInstsRemoved)
            .add(managed.lookups)
            .add(managed.hits)
            .add(managed.misses)
            .add(managed.inserts)
            .add(managed.insertedBytes)
            .add(managed.deletions)
            .add(managed.deletedBytes)
            .add(managed.unmapDeletions)
            .add(managed.promotions)
            .add(managed.promotedBytes)
            .add(managed.probationRejections)
            .add(managed.placementFailures);
        return digest.value();
    }

    std::uint64_t seed_;
    std::vector<guest::SyntheticProgram> programs_;
    std::vector<Outcome> unbounded_;
    std::vector<std::uint64_t> budgets_;
    std::vector<Outcome> first_;
};

} // namespace

std::unique_ptr<Workload>
makeLiveRuntimeWorkload(std::uint64_t seed)
{
    return std::make_unique<LiveRuntimeWorkload>(seed);
}

} // namespace perfbench
