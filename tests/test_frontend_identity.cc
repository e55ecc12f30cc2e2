/**
 * @file
 * Front-end identity tests: the runtime's output is pinned by golden
 * digests, and its guest semantics by an interpreter oracle.
 *
 * The grid runs five synthetic workload profiles — steady loops,
 * phased programs with transient DLLs, wide code footprints — under
 * unbounded, pressured-unified, and generational cache managers, once
 * straight through and once with a harness that unmaps each DLL after
 * its last phase, plus one unload-then-reload run. Every cell is
 * reduced to a 64-bit FNV-1a digest over each event's type, time,
 * trace, size and module, the log totals, RuntimeStats, BbCacheStats
 * and LinkerStats, and compared with a committed table.
 *
 * The table was recorded while the runtime still carried a second,
 * hash-map front end next to the predecoded one; both produced the
 * same digest on every row. There is no regeneration tool: a change
 * that moves a digest edits the table in a reviewed diff.
 *
 * The digests only say "same as before".
 * GuestStateMatchesPlainInterpreter adds a reference that owes nothing
 * to the front end: the same program run by Interpreter::run on a
 * fully mapped AddressSpace must end in the same CPU state after the
 * same number of instructions.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "codecache/generational_cache.h"
#include "codecache/unified_cache.h"
#include "guest/address_space.h"
#include "guest/synthetic_program.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "support/units.h"
#include "tracelog/event.h"

namespace gencache {
namespace {

/** Everything observable from one complete run. */
struct RunObservation
{
    tracelog::AccessLog log;
    runtime::RuntimeStats stats;
    runtime::BbCacheStats bbStats;
    runtime::LinkerStats linkStats;
    interp::CpuState cpu;
};

/** The cache-manager shapes each profile is crossed with. */
enum class ManagerShape {
    Unbounded,    ///< UnifiedCacheManager(0): no evictions
    SmallUnified, ///< pressured FIFO: evictions and regenerations
    Generational, ///< small nursery/probation/persistent pipeline
};

const ManagerShape kShapes[] = {ManagerShape::Unbounded,
                                ManagerShape::SmallUnified,
                                ManagerShape::Generational};

std::unique_ptr<cache::CacheManager>
makeManager(ManagerShape shape)
{
    switch (shape) {
    case ManagerShape::Unbounded:
        return std::make_unique<cache::UnifiedCacheManager>(0);
    case ManagerShape::SmallUnified:
        return std::make_unique<cache::UnifiedCacheManager>(3 * kKiB);
    case ManagerShape::Generational:
        return std::make_unique<cache::GenerationalCacheManager>(
            cache::GenerationalConfig::fromProportions(3 * kKiB, 0.40,
                                                       0.30, 1));
    }
    return nullptr;
}

const char *
managerShapeName(ManagerShape shape)
{
    switch (shape) {
    case ManagerShape::Unbounded:
        return "unbounded";
    case ManagerShape::SmallUnified:
        return "small-unified";
    case ManagerShape::Generational:
        return "generational";
    }
    return "?";
}

/** One workload profile of the identity grid. Each profile has more
 *  DLLs than functions per phase, so at least one DLL is called for
 *  the last time before the final phase and the unload harness
 *  unmaps it while the guest is still running. */
struct Profile
{
    const char *name;
    guest::SyntheticProgramConfig config;
    std::uint32_t threshold;
};

std::vector<Profile>
profileGrid()
{
    std::vector<Profile> grid;

    guest::SyntheticProgramConfig small;
    small.seed = 7;
    small.phases = 2;
    small.phaseIterations = 8;
    small.innerIterations = 6;
    small.dllCount = 5;
    grid.push_back({"small", small, 10});

    guest::SyntheticProgramConfig phased;
    phased.seed = 21;
    phased.phases = 4;
    phased.phaseIterations = 12;
    phased.innerIterations = 8;
    phased.dllCount = 5;
    grid.push_back({"phased", phased, 10});

    guest::SyntheticProgramConfig wide;
    wide.seed = 33;
    wide.phases = 3;
    wide.functionsPerPhase = 6;
    wide.blocksPerFunction = 6;
    wide.phaseIterations = 10;
    wide.innerIterations = 8;
    wide.dllCount = 7;
    grid.push_back({"wide", wide, 10});

    guest::SyntheticProgramConfig hot;
    hot.seed = 55;
    hot.phases = 2;
    hot.sharedFunctions = 4;
    hot.phaseIterations = 15;
    hot.innerIterations = 30;
    hot.dllCount = 5;
    grid.push_back({"hot-loop", hot, 20});

    guest::SyntheticProgramConfig churn;
    churn.seed = 77;
    churn.phases = 5;
    churn.phaseIterations = 20;
    churn.innerIterations = 10;
    churn.dllCount = 6;
    grid.push_back({"churn", churn, 10});

    return grid;
}

/** Capture everything observable from @p runtime after its run. */
RunObservation
observe(const runtime::Runtime &runtime)
{
    RunObservation observation;
    observation.log = runtime.log();
    observation.stats = runtime.stats();
    observation.bbStats = runtime.bbCacheStats();
    observation.linkStats = runtime.linker().stats();
    observation.cpu = runtime.cpu();
    return observation;
}

/**
 * Run @p config to completion and capture everything observable. With
 * @p unload_dlls the harness polls the guest's phase register between
 * bounded run() slices and unmaps each transient DLL once its last
 * phase has passed — the mid-run invalidation path.
 */
RunObservation
runProgram(const guest::SyntheticProgramConfig &config,
           std::uint32_t threshold, ManagerShape shape,
           bool unload_dlls)
{
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);
    std::unique_ptr<cache::CacheManager> manager = makeManager(shape);

    guest::AddressSpace space;
    runtime::Runtime runtime(space, *manager, threshold);
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
    }
    runtime.start(synthetic.program.entry());

    if (!unload_dlls) {
        runtime.run();
    } else {
        std::vector<bool> unloaded(synthetic.dllLastPhase.size(),
                                   false);
        bool unloaded_mid_run = false;
        while (!runtime.finished()) {
            runtime.run(512);
            auto phase = static_cast<unsigned>(
                runtime.guestReg(guest::kPhaseRegister));
            for (std::size_t i = 0;
                 i < synthetic.dllLastPhase.size(); ++i) {
                if (!unloaded[i] &&
                    phase > synthetic.dllLastPhase[i].second) {
                    runtime.unloadModule(
                        synthetic.dllLastPhase[i].first);
                    unloaded[i] = true;
                    unloaded_mid_run =
                        unloaded_mid_run || !runtime.finished();
                }
            }
        }
        // Guards the grid itself: a profile whose DLLs all live to the
        // last phase would make its unload cells repeat the plain ones.
        EXPECT_TRUE(unloaded_mid_run) << "no DLL was unmapped mid-run";
    }
    EXPECT_TRUE(runtime.finished());
    runtime.log().validate();
    return observe(runtime);
}

/** 64-bit FNV-1a over every observable field of @p run except the
 *  guest state (which GuestStateMatchesPlainInterpreter checks). */
std::uint64_t
digestOf(const RunObservation &run)
{
    std::uint64_t hash = 14695981039346656037ull;
    auto add = [&hash](std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (8 * i)) & 0xffu;
            hash *= 1099511628211ull;
        }
    };
    for (const tracelog::Event &event : run.log.events()) {
        add(static_cast<std::uint64_t>(event.type));
        add(event.time);
        add(event.trace);
        add(event.sizeBytes);
        add(event.module);
    }
    for (std::uint64_t value :
         {static_cast<std::uint64_t>(run.log.duration()),
          run.log.footprintBytes(), run.log.createdTraceBytes(),
          run.log.createdTraceCount()}) {
        add(value);
    }
    const runtime::RuntimeStats &stats = run.stats;
    for (std::uint64_t value :
         {stats.instructionsInterpreted, stats.instructionsInTraces,
          stats.contextSwitches, stats.tracesBuilt,
          stats.traceRegenerations, stats.traceExecutions,
          stats.blocksInterpreted, stats.tracesOptimized,
          stats.optimizerBytesSaved, stats.optimizerInstsRemoved}) {
        add(value);
    }
    for (std::uint64_t value :
         {run.bbStats.copies, run.bbStats.copiedBytes, run.bbStats.hits,
          run.bbStats.invalidations, run.linkStats.linksPatched,
          run.linkStats.linksUnpatched, run.linkStats.relocations}) {
        add(value);
    }
    return hash;
}

/** One pinned cell: event count, retired instructions, digest. */
struct Golden
{
    std::size_t events;
    std::uint64_t instructions;
    std::uint64_t digest;
};

// Rows in grid order: profileGrid() x {unbounded, small-unified,
// generational}.
const std::vector<Golden> kPlainGoldens = {
    {1266, 20261, 0xa41b56b00e7edde3ull}, // small / unbounded
    {1266, 20261, 0xa41b56b00e7edde3ull}, // small / small-unified
    {1266, 20261, 0x407b66feb328ae76ull}, // small / generational
    {4420, 77027, 0x4501ca4094c0c0dcull}, // phased / unbounded
    {4420, 77027, 0x466a338248ad88deull}, // phased / small-unified
    {4420, 77027, 0xa572e0616a92180cull}, // phased / generational
    {3540, 87498, 0x1e56d7a491cadcc4ull}, // wide / unbounded
    {3540, 87498, 0x5c5df1051689a487ull}, // wide / small-unified
    {3540, 87498, 0xe5562e02ab48c54cull}, // wide / generational
    {7758, 195598, 0x46728c7c890853d6ull}, // hot-loop / unbounded
    {7758, 195598, 0x46728c7c890853d6ull}, // hot-loop / small-unified
    {7758, 195598, 0x3beac283af5499c9ull}, // hot-loop / generational
    {11522, 187228, 0xf688cb4b582ec23dull}, // churn / unbounded
    {11522, 187228, 0x96a425f7dc96ffceull}, // churn / small-unified
    {11522, 187228, 0xb8ed9245d2eabdf5ull}, // churn / generational
};

const std::vector<Golden> kUnloadGoldens = {
    {1267, 20261, 0x41f8284ce30ea3faull}, // small / unbounded
    {1267, 20261, 0x41f8284ce30ea3faull}, // small / small-unified
    {1267, 20261, 0x47589f35f059bcafull}, // small / generational
    {4421, 77027, 0x9449943f720a3329ull}, // phased / unbounded
    {4421, 77027, 0xb08ea9b05fb0c5afull}, // phased / small-unified
    {4421, 77027, 0x344c48f2efd47c9cull}, // phased / generational
    {3541, 87498, 0xb12ae0d2bf900e4dull}, // wide / unbounded
    {3541, 87498, 0x982da520cb1374e9ull}, // wide / small-unified
    {3541, 87498, 0xc809f9782fcbc7f0ull}, // wide / generational
    {7759, 195598, 0x75f9d945dbd30ac7ull}, // hot-loop / unbounded
    {7759, 195598, 0x75f9d945dbd30ac7ull}, // hot-loop / small-unified
    {7759, 195598, 0x0271a8b2997e0898ull}, // hot-loop / generational
    {11524, 187228, 0xdd2e0be7adbb6f02ull}, // churn / unbounded
    {11524, 187228, 0xa7eed573e512c19cull}, // churn / small-unified
    {11524, 187228, 0x4d5256e712a1e656ull}, // churn / generational
};

/** The unload-then-reload run (ReloadAfterUnloadStaysIdentical). */
const Golden kReloadGolden = {5029, 67466, 0x813850ffba424f7dull};

void
expectGolden(const RunObservation &run, const Golden &golden,
             const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(run.log.size(), golden.events);
    EXPECT_EQ(run.stats.totalInstructions(), golden.instructions);
    EXPECT_EQ(digestOf(run), golden.digest);
}

void
runGrid(bool unload_dlls, const std::vector<Golden> &goldens)
{
    std::vector<Profile> grid = profileGrid();
    ASSERT_EQ(goldens.size(), grid.size() * std::size(kShapes));
    std::size_t row = 0;
    for (const Profile &profile : grid) {
        for (ManagerShape shape : kShapes) {
            RunObservation run =
                runProgram(profile.config, profile.threshold, shape,
                           unload_dlls);
            expectGolden(run, goldens[row++],
                         std::string(profile.name) + " / " +
                             managerShapeName(shape));
        }
    }
}

TEST(FrontendIdentity, AllProfilesAndManagersMatch)
{
    runGrid(false, kPlainGoldens);
}

TEST(FrontendIdentity, MidRunDllUnloadsMatch)
{
    runGrid(true, kUnloadGoldens);
}

TEST(FrontendIdentity, ReloadAfterUnloadStaysIdentical)
{
    // Remapping a module assigns fresh dense block ids; the run must
    // stay pinned across the id turnover.
    guest::SyntheticProgramConfig config;
    config.seed = 33;
    config.phases = 2;
    config.phaseIterations = 10;
    config.innerIterations = 8;
    config.dllCount = 1;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);

    cache::UnifiedCacheManager manager(0);
    guest::AddressSpace space;
    runtime::Runtime runtime(space, manager, 10);
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    EXPECT_TRUE(runtime.finished());

    ASSERT_FALSE(synthetic.dllLastPhase.empty());
    guest::ModuleId dll = synthetic.dllLastPhase[0].first;
    runtime.unloadModule(dll);
    for (const auto &module : synthetic.program.modules()) {
        if (module->id() == dll) {
            runtime.loadModule(*module);
        }
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    EXPECT_TRUE(runtime.finished());
    runtime.log().validate();

    expectGolden(observe(runtime), kReloadGolden, "reload-after-unload");
}

TEST(FrontendIdentity, GuestStateMatchesPlainInterpreter)
{
    // Independent of the front end: the plain block interpreter on a
    // fully mapped address space is the reference for what the guest
    // computes and how many instructions it retires.
    for (const Profile &profile : profileGrid()) {
        guest::SyntheticProgram synthetic =
            guest::generateSyntheticProgram(profile.config);
        guest::AddressSpace space;
        for (const auto &module : synthetic.program.modules()) {
            space.map(*module);
        }
        interp::Interpreter interpreter(space);
        interp::CpuState expected;
        expected.reset(synthetic.program.entry());
        interpreter.run(expected, ~0ULL);
        ASSERT_TRUE(expected.halted) << profile.name;

        for (ManagerShape shape : kShapes) {
            SCOPED_TRACE(std::string(profile.name) + " / " +
                         managerShapeName(shape));
            RunObservation run = runProgram(
                profile.config, profile.threshold, shape, false);
            EXPECT_EQ(run.cpu.regs, expected.regs);
            EXPECT_EQ(run.cpu.memory, expected.memory);
            EXPECT_EQ(run.cpu.callStack, expected.callStack);
            EXPECT_EQ(run.cpu.pc, expected.pc);
            EXPECT_EQ(run.cpu.halted, expected.halted);
            EXPECT_EQ(run.stats.totalInstructions(),
                      interpreter.instructionsRetired());
        }
    }
}

} // namespace
} // namespace gencache
