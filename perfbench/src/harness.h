/**
 * @file
 * Shared pieces of the perfbench harness: the span tracer, the result
 * digests and correctness ledger, and the workload interface the
 * closed loop in main.cc drives.
 *
 * The benchmark measures each layer from the outside: spans wrap the
 * calls the benchmark makes into a module's public functions, never
 * code inside the library. A span's layer is the prefix of its name
 * before the first '.', e.g. "sim.replay" belongs to layer "sim".
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codecache/cache_manager.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/** One recorded interval around a call into a layer. */
struct Span
{
    std::string name;     ///< "<layer>.<call>", e.g. "sim.replay"
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;      ///< index of the enclosing span, -1 at top
    std::uint64_t request = 0; ///< profile, program or fleet id
};

/** In-memory span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Open a span under the innermost open one.
     *  @return its index, or -1 when disabled. */
    int begin(const char *name, std::uint64_t request);
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of every span named @p name. */
    double totalSeconds(const std::string &name) const;

    /** Per layer: span durations minus the time their child spans
     *  cover. */
    std::map<std::string, double> selfSeconds() const;

    /** Write all spans as one JSON document. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; free when the tracer is disabled. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, std::uint64_t request)
        : tracer_(tracer), index_(tracer.begin(name, request))
    {
    }
    ~SpanScope() { tracer_.end(index_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** FNV-1a over a sequence of integers (plus a cheaper word mix for
 *  bulk data). */
class Digest
{
  public:
    Digest &add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffu;
            hash_ *= 1099511628211ULL;
        }
        return *this;
    }
    Digest &add(const std::string &text)
    {
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= 1099511628211ULL;
        }
        return add(text.size());
    }
    /** Word-at-a-time mixing, for long inputs such as access logs. */
    Digest &addWord(std::uint64_t value)
    {
        hash_ = (hash_ ^ value) * 0x9e3779b97f4a7c15ULL;
        hash_ ^= hash_ >> 32;
        return *this;
    }
    /** The stored form: the 64-bit hash folded to 32 bits. */
    std::uint32_t value() const
    {
        return static_cast<std::uint32_t>(hash_ ^ (hash_ >> 32));
    }

  private:
    std::uint64_t hash_ = 1469598103934665603ULL;
};

/**
 * Correctness ledger. Every checked result is one attempt; it fails
 * when its digest differs from the one recorded for this seed, or
 * when an invariant that holds for any seed is violated.
 */
class Ledger
{
  public:
    /** @param expected digests recorded for this seed, in result
     *  order; empty when none were shipped for it. */
    explicit Ledger(std::vector<std::uint32_t> expected)
        : expected_(std::move(expected))
    {
    }

    bool hasDigests() const { return !expected_.empty(); }

    /** Check result number @p slot (its position in the recorded
     *  order) against the recorded digest and keep it for --record. */
    void digest(std::size_t slot, std::uint32_t value,
                const std::string &what);

    /** An invariant: one attempt, failed unless @p ok. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }
    /** Digests seen so far, by slot (the --record output). */
    const std::vector<std::uint32_t> &seen() const { return seen_; }

  private:
    void fail(const std::string &what);

    std::vector<std::uint32_t> expected_;
    std::vector<std::uint32_t> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** What one round of a workload did. */
struct RoundStats
{
    double workSeconds = 0.0;  ///< summed time of the work the rates
                               ///< cover (the passes; spec_sweep's
                               ///< runSweep calls)
    std::uint64_t results = 0; ///< checked results produced
    std::uint64_t events = 0;  ///< input events consumed
};

/** Median over @p rounds of each round's @p count per work second. */
double medianRate(const std::vector<RoundStats> &rounds,
                  std::uint64_t RoundStats::*count);

/** Named numbers in insertion order (JSON object on output). */
class Metrics
{
  public:
    void set(const std::string &name, double value);
    double get(const std::string &name) const;
    std::string json() const;

  private:
    std::vector<std::pair<std::string, double>> values_;
};

/**
 * One workload instance: inputs made from the seed at setup(), then
 * any number of identical rounds of checked work.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build the inputs (generation, compilation, tables). */
    virtual void setup(Tracer &tracer) = 0;

    /** Check what setup() produced that rounds do not redo. */
    virtual void checkSetup(Ledger &ledger) = 0;

    /** One round of passes. Appends each pass's wall time (seconds)
     *  to @p pass_seconds and checks every result in @p ledger. */
    virtual RoundStats round(Tracer &tracer, Ledger &ledger,
                             std::vector<double> &pass_seconds) = 0;

    /** After the window: seed-independent cross-checks and the
     *  per-layer numbers only a finished run can give. */
    virtual void finish(Tracer &tracer, Ledger &ledger,
                        Metrics &layers) = 0;

    /** Workload-specific end-to-end figures (cells_per_s,
     *  guest_minst_per_s, ...), printed beside the common ones. */
    virtual void namedMetrics(const std::vector<RoundStats> &rounds,
                              Metrics &named) const = 0;

  protected:
    Workload() = default;
};

/** Set the codecache.* counters and the miss and unmap-deletion
 *  property shares from summed manager statistics. */
void setManagerLayers(const gencache::cache::ManagerStats &total,
                      Metrics &layers);

/** Workload factory by name; nullptr when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Mix @p seed into a per-input seed @p base (splitmix64). */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t seed);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Linear-interpolated quantile @p q in [0, 1] (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Peak resident set of this process in MB (VmHWM). */
double peakRssMb();

/** Return freed heap to the OS and reset the peak-RSS high-water
 *  mark (when the kernel allows it). */
void resetPeakRss();

/** Cycle-counter stopwatch for per-call timing (ticks), with its
 *  calibration against the steady clock. */
std::uint64_t ticks();
double nanosPerTick();
/** Median cost of one empty ticks() pair, in ticks. */
double tickOverhead();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
