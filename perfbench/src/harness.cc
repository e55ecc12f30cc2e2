#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
{
}

int
Tracer::begin(const char *name, std::uint64_t request)
{
    if (!enabled_) {
        return -1;
    }
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int index)
{
    if (index < 0) {
        return;
    }
    spans_[static_cast<std::size_t>(index)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    open_.pop_back();
}

double
Tracer::totalSeconds(const std::string &name) const
{
    std::int64_t total = 0;
    for (const Span &span : spans_) {
        if (span.name == name) {
            total += span.endNs - span.startNs;
        }
    }
    return static_cast<double>(total) * 1e-9;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = spans_[i].endNs - spans_[i].startNs;
    }
    for (const Span &span : spans_) {
        if (span.parent >= 0) {
            self[static_cast<std::size_t>(span.parent)] -=
                span.endNs - span.startNs;
        }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string &name = spans_[i].name;
        out[name.substr(0, name.find('.'))] +=
            static_cast<double>(self[i]) * 1e-9;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "{\"schema\":\"perfbench-spans/1\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"id\":" << i
            << ",\"name\":\"" << span.name
            << "\",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs
            << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
Ledger::fail(const std::string &what)
{
    ++failed_;
    if (failures_.size() < 20) {
        failures_.push_back(what);
    }
}

void
Ledger::digest(std::size_t slot, std::uint32_t value,
               const std::string &what)
{
    if (seen_.size() <= slot) {
        seen_.resize(slot + 1, 0);
    }
    seen_[slot] = value;
    if (expected_.empty()) {
        return;
    }
    ++attempted_;
    if (slot >= expected_.size() || expected_[slot] != value) {
        fail("digest mismatch: " + what);
    }
}

void
Ledger::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        fail("invariant: " + what);
    }
}

double
medianRate(const std::vector<RoundStats> &rounds,
           std::uint64_t RoundStats::*count)
{
    std::vector<double> rates;
    for (const RoundStats &round : rounds) {
        if (round.workSeconds > 0.0) {
            rates.push_back(static_cast<double>(round.*count) /
                            round.workSeconds);
        }
    }
    return median(std::move(rates));
}

void
Metrics::set(const std::string &name, double value)
{
    for (auto &entry : values_) {
        if (entry.first == name) {
            entry.second = value;
            return;
        }
    }
    values_.emplace_back(name, value);
}

double
Metrics::get(const std::string &name) const
{
    for (const auto &entry : values_) {
        if (entry.first == name) {
            return entry.second;
        }
    }
    return 0.0;
}

std::string
Metrics::json() const
{
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
        char number[40];
        std::snprintf(number, sizeof(number), "%.17g",
                      values_[i].second);
        out << (i == 0 ? "" : ",") << "\"" << values_[i].first
            << "\":" << number;
    }
    out << "}";
    return out.str();
}

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (seed + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto low = static_cast<std::size_t>(position);
    const std::size_t high = std::min(low + 1, values.size() - 1);
    const double weight = position - static_cast<double>(low);
    return values[low] * (1.0 - weight) + values[high] * weight;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

void
resetPeakRss()
{
#if defined(__GLIBC__)
    // Hand memory freed by earlier set-ups back first, so the peak
    // counts live data, not what the allocator happened to retain.
    malloc_trim(0);
#endif
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5\n";
}

std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

double
nanosPerTick()
{
    static const double value = [] {
        const Clock::time_point start = Clock::now();
        const std::uint64_t first = ticks();
        while (secondsBetween(start, Clock::now()) < 0.02) {
        }
        const std::uint64_t last = ticks();
        const double ns = secondsBetween(start, Clock::now()) * 1e9;
        return last > first ? ns / static_cast<double>(last - first)
                            : 1.0;
    }();
    return value;
}

double
tickOverhead()
{
    static const double value = [] {
        std::vector<double> samples;
        samples.reserve(1001);
        for (int i = 0; i < 1001; ++i) {
            const std::uint64_t a = ticks();
            const std::uint64_t b = ticks();
            samples.push_back(static_cast<double>(b - a));
        }
        return median(samples);
    }();
    return value;
}

} // namespace perfbench
