/**
 * @file
 * perfbench: runs one named workload as a closed loop from a
 * single process and prints one JSON report on standard output.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--digests FILE] [--spans FILE] [--record]
 *             [--perturb-digest SLOT]
 *
 * A run sets the workload up several times (setup_s is the median),
 * runs one untimed warm-up round, then repeats identical rounds of
 * checked work until S seconds have passed (at least one round).
 * With --trace 1 it then does the same again with spans on, and
 * reports per-layer numbers from that traced pass plus the tracing
 * overhead (traced minus untraced) of every end-to-end metric;
 * end-to-end numbers always come from the untraced pass.
 * perfbench/run.py builds this binary and wraps its report.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.h"
#include "support/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

std::unique_ptr<Workload> makeSweepWorkload(const std::string &name,
                                            std::uint64_t seed);
std::unique_ptr<Workload> makeLiveRuntimeWorkload(std::uint64_t seed);
std::unique_ptr<Workload> makeFleetWorkload(std::uint64_t seed);

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "live_runtime") {
        return makeLiveRuntimeWorkload(seed);
    }
    if (name == "fleet_shared") {
        return makeFleetWorkload(seed);
    }
    return makeSweepWorkload(name, seed);
}

void
setManagerLayers(const gencache::cache::ManagerStats &total,
                 Metrics &layers)
{
    auto ratio = [](std::uint64_t part, std::uint64_t whole) {
        return whole == 0 ? 0.0
                          : static_cast<double>(part) /
                                static_cast<double>(whole);
    };
    layers.set("codecache.lookups", static_cast<double>(total.lookups));
    layers.set("codecache.hit_ratio", ratio(total.hits, total.lookups));
    layers.set("codecache.inserts", static_cast<double>(total.inserts));
    layers.set("codecache.deletions",
               static_cast<double>(total.deletions));
    layers.set("codecache.promotions",
               static_cast<double>(total.promotions));
    layers.set("codecache.unmap_deletions",
               static_cast<double>(total.unmapDeletions));
    layers.set("prop.miss_share", ratio(total.misses, total.lookups));
    layers.set("prop.unmap_deletion_share",
               ratio(total.unmapDeletions,
                     total.deletions + total.unmapDeletions));
}

namespace {

/** Every per-layer metric a traced run reports, in output order. A
 *  layer a workload never calls reads 0. */
const char *const kLayerMetrics[] = {
    "workload.generate_s",
    "workload.events",
    "guest.synth_s",
    "tracelog.compile_s",
    "tracelog.compile_events_per_s",
    "costmodel.tables_s",
    "sim.unbounded_s",
    "sim.unified_s",
    "sim.sweep_s",
    "sim.replay_s",
    "sim.lane_events_per_s",
    "sim.pass_count",
    "codecache.lookups",
    "codecache.hit_ratio",
    "codecache.inserts",
    "codecache.deletions",
    "codecache.promotions",
    "codecache.unmap_deletions",
    "codecache.lookup_hit_ns",
    "codecache.lookup_miss_ns",
    "codecache.insert_ns",
    "codecache.invalidate_ns",
    "codecache.lookup_hit_calls",
    "codecache.lookup_miss_calls",
    "codecache.insert_calls",
    "codecache.invalidate_calls",
    "codecache.store_probes",
    "codecache.store_probe_hit_ratio",
    "codecache.store_publishes",
    "codecache.store_attaches",
    "codecache.store_invalidations",
    "codecache.store_lock_contentions",
    "sim.fleet_isolated_s",
    "sim.fleet_shared_s",
    "sim.fleet_threaded_s",
    "sim.fleet_shared_over_isolated",
    "sim.fleet_threaded_events_per_s",
    "runtime.unbounded_s",
    "runtime.load_s",
    "runtime.run_s",
    "runtime.guest_instructions",
    "runtime.trace_residency",
    "runtime.traces_built",
    "runtime.trace_regenerations",
    "analysis.check_s",
    "analysis.errors",
    "prop.miss_share",
    "prop.unmap_deletion_share",
};

/** Layers whose self time a traced run reports (self_s.<layer>). */
const char *const kLayers[] = {
    "bench", "workload", "guest", "tracelog", "costmodel",
    "sim",   "codecache", "runtime", "analysis",
};

/** A run sets up at least kSetupRepeats times, and more (up to
 *  kSetupMaxRepeats) until kSetupSeconds have gone into set-up, so a
 *  quick set-up gets as many samples as a slow one gets time;
 *  setup_s is the median. */
constexpr unsigned kSetupRepeats = 3;
constexpr unsigned kSetupMaxRepeats = 9;
constexpr double kSetupSeconds = 2.0;

/** End-to-end metrics, in output order. */
const char *const kEndToEnd[] = {
    "setup_s",     "results_per_s", "events_per_s",
    "pass_ms_p50", "pass_ms_p90",   "peak_rss_mb",
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string spans;
    bool record = false;
    long perturb = -1;
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--digests FILE] [--spans FILE] "
                 "[--record] [--perturb-digest SLOT]\n",
                 message);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        auto number = [&](const std::string &text) {
            char *end = nullptr;
            const double parsed = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || parsed < 0) {
                usage(("bad number for " + arg + ": " + text).c_str());
            }
            return parsed;
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            const std::string text = value();
            char *end = nullptr;
            options.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || *end != '\0' || text[0] == '-') {
                usage(("bad seed: " + text).c_str());
            }
        } else if (arg == "--seconds") {
            options.seconds = number(value());
        } else if (arg == "--trace") {
            const std::string text = value();
            if (text != "0" && text != "1") {
                usage("--trace takes 0 or 1");
            }
            options.trace = text == "1";
        } else if (arg == "--digests") {
            options.digests = value();
        } else if (arg == "--spans") {
            options.spans = value();
        } else if (arg == "--record") {
            options.record = true;
        } else if (arg == "--perturb-digest") {
            options.perturb = static_cast<long>(number(value()));
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (options.workload.empty()) {
        usage("--workload is required");
    }
    return options;
}

/** The digests recorded for @p seed: a line "<seed> <hex8>...". */
std::vector<std::uint32_t>
loadDigests(const std::string &path, std::uint64_t seed)
{
    std::vector<std::uint32_t> digests;
    if (path.empty()) {
        return digests;
    }
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::uint64_t line_seed = 0;
        std::string hex;
        if (!(fields >> line_seed >> hex) || line_seed != seed) {
            continue;
        }
        for (std::size_t i = 0; i + 8 <= hex.size(); i += 8) {
            digests.push_back(static_cast<std::uint32_t>(
                std::stoul(hex.substr(i, 8), nullptr, 16)));
        }
        break;
    }
    return digests;
}

struct Window
{
    std::vector<RoundStats> rounds;
    std::vector<double> p50;  ///< per round: median pass seconds
    std::vector<double> p90;  ///< per round: 90th-percentile pass
    std::size_t passes = 0;
};

Window
runWindow(Workload &workload, Tracer &tracer, Ledger &ledger,
          double seconds)
{
    Window window;
    {
        // One untimed round first: the allocator's high-water marks
        // and first-touch page faults belong to warm-up, not to the
        // steady state a long sweep sees.
        std::vector<double> warmup;
        workload.round(tracer, ledger, warmup);
    }
    const Clock::time_point start = Clock::now();
    do {
        SpanScope span(tracer, "bench.round", 0);
        std::vector<double> passes;
        window.rounds.push_back(workload.round(tracer, ledger, passes));
        window.p50.push_back(quantile(passes, 0.5));
        window.p90.push_back(quantile(passes, 0.9));
        window.passes += passes.size();
    } while (secondsBetween(start, Clock::now()) < seconds);
    return window;
}

Metrics
endToEnd(double setup_seconds, const Window &window, double rss_mb)
{
    // Rates are medians of per-round rates: on a shared host, rounds
    // run at one typical speed with bursts of faster or slower ones
    // while neighbours come and go, and a total would count the
    // bursts in proportion to the time they happened to take.
    Metrics metrics;
    metrics.set("setup_s", setup_seconds);
    metrics.set("results_per_s",
                medianRate(window.rounds, &RoundStats::results));
    metrics.set("events_per_s",
                medianRate(window.rounds, &RoundStats::events));
    // Pass percentiles are taken within each round, where a given
    // order statistic is always the same kind of pass, then the
    // median across rounds. Pooling all rounds would put a percentile
    // that falls between two kinds of pass (e.g. small and large
    // programs) on the fastest or slowest of a kind.
    metrics.set("pass_ms_p50", median(window.p50) * 1e3);
    metrics.set("pass_ms_p90", median(window.p90) * 1e3);
    metrics.set("peak_rss_mb", rss_mb);
    return metrics;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

std::string
buildJson()
{
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__)
    const std::string sanitizers = "address";
#elif defined(__SANITIZE_THREAD__)
    const std::string sanitizers = "thread";
#else
    const std::string sanitizers;
#endif
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return std::string("{\"optimized\":") + (optimized ? "true" : "false") +
           ",\"sanitizers\":" + jsonString(sanitizers) +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"cxx_flags\":" + jsonString(PERFBENCH_CXX_FLAGS) +
           ",\"compiler\":" + jsonString(compiler) +
           ",\"simd\":" + jsonString(gencache::simd::activeSimdMode()) +
           "}";
}

/** Per-layer numbers of a traced pass. */
Metrics
layerMetrics(const Tracer &tracer, const Metrics &counters,
             const Metrics &untraced, const Metrics &traced)
{
    Metrics layers;
    for (const char *name : kLayerMetrics) {
        layers.set(name, counters.get(name));
    }
    auto spanSeconds = [&](const char *metric, const char *span) {
        layers.set(metric, tracer.totalSeconds(span));
    };
    spanSeconds("workload.generate_s", "workload.generate");
    spanSeconds("guest.synth_s", "guest.synth");
    spanSeconds("tracelog.compile_s", "tracelog.compile");
    spanSeconds("costmodel.tables_s", "costmodel.tables");
    spanSeconds("sim.unbounded_s", "sim.unbounded");
    spanSeconds("sim.unified_s", "sim.unified");
    spanSeconds("sim.sweep_s", "sim.sweep");
    spanSeconds("sim.replay_s", "sim.replay");
    spanSeconds("sim.fleet_isolated_s", "sim.fleet_isolated");
    spanSeconds("sim.fleet_shared_s", "sim.fleet_shared");
    spanSeconds("sim.fleet_threaded_s", "sim.fleet_threaded");
    spanSeconds("runtime.unbounded_s", "runtime.unbounded");
    spanSeconds("runtime.load_s", "runtime.load");
    spanSeconds("runtime.run_s", "runtime.run");
    spanSeconds("analysis.check_s", "analysis.check");

    auto per = [](double count, double seconds) {
        return seconds > 0.0 ? count / seconds : 0.0;
    };
    layers.set("tracelog.compile_events_per_s",
               per(counters.get("tracelog.events"),
                   layers.get("tracelog.compile_s")));
    layers.set("sim.lane_events_per_s",
               per(counters.get("sim.lane_events"),
                   layers.get("sim.replay_s")));
    double passes = 0;
    for (const Span &span : tracer.spans()) {
        if (span.name == "sim.replay" ||
            span.name.rfind("sim.fleet_", 0) == 0) {
            ++passes;
        }
    }
    layers.set("sim.pass_count", passes);
    const double isolated = layers.get("sim.fleet_isolated_s");
    layers.set("sim.fleet_shared_over_isolated",
               isolated > 0.0 ? layers.get("sim.fleet_shared_s") / isolated
                              : 0.0);

    const std::map<std::string, double> self = tracer.selfSeconds();
    for (const char *layer : kLayers) {
        auto it = self.find(layer);
        layers.set(std::string("self_s.") + layer,
                   it == self.end() ? 0.0 : it->second);
    }
    for (const char *name : kEndToEnd) {
        layers.set(std::string("trace_overhead.") + name,
                   traced.get(name) - untraced.get(name));
    }
    return layers;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options options = parseOptions(argc, argv);
    if (makeWorkload(options.workload, options.seed) == nullptr) {
        usage(("unknown workload " + options.workload).c_str());
    }

    std::vector<std::uint32_t> expected =
        loadDigests(options.digests, options.seed);
    if (options.perturb >= 0 &&
        static_cast<std::size_t>(options.perturb) < expected.size()) {
        expected[static_cast<std::size_t>(options.perturb)] ^= 1u;
    }
    Ledger ledger(std::move(expected));

    // Untraced: set up several times, keep the last, run the window.
    Tracer off(false);
    std::vector<double> setup_samples;
    std::unique_ptr<Workload> workload;
    double setup_total = 0.0;
    while (setup_samples.size() < kSetupMaxRepeats &&
           (setup_samples.size() < kSetupRepeats ||
            setup_total < kSetupSeconds)) {
        workload.reset();
        workload = makeWorkload(options.workload, options.seed);
        const Clock::time_point start = Clock::now();
        workload->setup(off);
        setup_samples.push_back(secondsBetween(start, Clock::now()));
        setup_total += setup_samples.back();
    }
    workload->checkSetup(ledger);
    // Peak memory is that of the measured work over the built inputs;
    // set-up's transient peaks depend on allocator growth steps.
    resetPeakRss();
    const Window window = runWindow(*workload, off, ledger,
                                    options.record ? 0.0 : options.seconds);
    Metrics named;
    workload->namedMetrics(window.rounds, named);
    const Metrics untraced =
        endToEnd(median(setup_samples), window, peakRssMb());

    Metrics layers;
    if (options.trace) {
        workload.reset();
        Tracer tracer(true);
        std::unique_ptr<Workload> traced_workload =
            makeWorkload(options.workload, options.seed);
        Clock::time_point start = Clock::now();
        {
            SpanScope span(tracer, "bench.setup", 0);
            traced_workload->setup(tracer);
        }
        const double traced_setup = secondsBetween(start, Clock::now());
        traced_workload->checkSetup(ledger);
        resetPeakRss();
        const Window traced_window =
            runWindow(*traced_workload, tracer, ledger, options.seconds);
        const Metrics traced =
            endToEnd(traced_setup, traced_window, peakRssMb());
        Metrics counters;
        traced_workload->finish(tracer, ledger, counters);
        layers = layerMetrics(tracer, counters, untraced, traced);
        if (!options.spans.empty() && !tracer.write(options.spans)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         options.spans.c_str());
            return 1;
        }
    } else {
        Metrics unused;
        workload->finish(off, ledger, unused);
    }

    std::string failures = "[";
    for (std::size_t i = 0; i < ledger.failures().size(); ++i) {
        failures += (i == 0 ? "" : ",") + jsonString(ledger.failures()[i]);
    }
    failures += "]";
    std::string round_seconds = "[";
    for (std::size_t i = 0; i < window.rounds.size(); ++i) {
        char number[32];
        std::snprintf(number, sizeof(number), "%s%.6f", i == 0 ? "" : ",",
                      window.rounds[i].workSeconds);
        round_seconds += number;
    }
    round_seconds += "]";
    std::string record;
    for (std::uint32_t value : ledger.seen()) {
        char hex[9];
        std::snprintf(hex, sizeof(hex), "%08x", value);
        record += hex;
    }

    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"build\":%s,\"attempted\":%llu,"
        "\"failed\":%llu,\"failures\":%s,\"digests_checked\":%s,"
        "\"rounds\":%zu,\"round_seconds\":%s,\"passes\":%zu,\"e2e\":%s,"
        "\"named\":%s,\"layers\":%s,\"record\":%s}\n",
        jsonString(options.workload).c_str(),
        static_cast<unsigned long long>(options.seed), buildJson().c_str(),
        static_cast<unsigned long long>(ledger.attempted()),
        static_cast<unsigned long long>(ledger.failed()), failures.c_str(),
        ledger.hasDigests() ? "true" : "false", window.rounds.size(),
        round_seconds.c_str(), window.passes, untraced.json().c_str(),
        named.json().c_str(), layers.json().c_str(),
        jsonString(record).c_str());
    return 0;
}
