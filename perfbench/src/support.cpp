#include "support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include <sys/resource.h>

namespace perfbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

thread_local std::uint64_t Tracer::open_span_ = 0;

std::uint64_t
Tracer::add(Span span)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = next_id_++;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

Tracer::Scope::Scope(Tracer &tracer, std::string layer, std::string name,
                     std::uint64_t job)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    span_.layer = std::move(layer);
    span_.name = std::move(name);
    span_.job = job;
    span_.parent = open_span_;
    // Reserve the id now so spans opened inside this one can name it as
    // their parent before it closes.
    {
        std::lock_guard<std::mutex> lock(tracer_.mutex_);
        span_.id = tracer_.next_id_++;
    }
    saved_parent_ = open_span_;
    open_span_ = span_.id;
    span_.start = tracer_.now();
}

Tracer::Scope::~Scope()
{
    if (!tracer_.enabled_)
        return;
    span_.end = tracer_.now();
    open_span_ = saved_parent_;
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    tracer_.spans_.push_back(std::move(span_));
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans_)
        if (s.call && s.parent)
            children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        if (!s.call)
            continue;
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = -1.0, hi = -1.0;
            for (const auto &[a, b] : iv) {
                const double ca = std::max(a, s.start);
                const double cb = std::min(b, s.end);
                if (cb <= ca)
                    continue;
                if (ca > hi) {
                    covered += std::max(0.0, hi - lo);
                    lo = ca;
                    hi = cb;
                } else {
                    hi = std::max(hi, cb);
                }
            }
            covered += std::max(0.0, hi - lo);
        }
        self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %llu, \"ts\": %.3f, "
                     "\"dur\": %.3f, \"args\": {\"span\": %llu, "
                     "\"parent\": %llu, \"job\": %llu}}%s\n",
                     jsonString(s.name).c_str(),
                     jsonString(s.layer).c_str(),
                     static_cast<unsigned long long>(s.job),
                     s.start * 1e6, (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.job),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(f) == 0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream +
                      0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
