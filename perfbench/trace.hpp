/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded only in the benchmark's own code, around each call into
 * a library layer; nothing inside src/ is instrumented. A span has a name
 * ("<layer>.<what>", e.g. "pcs.srs.derive"), a start, an end and a parent.
 * Spans stay in memory and are written once, at exit, as Chrome trace-event
 * JSON (load it in chrome://tracing or https://ui.perfetto.dev). A layer's
 * self time is the total duration of its spans minus the part of each span
 * that the span's children cover.
 *
 * With tracing off every call is a branch on one bool and records nothing.
 * The recorder is used from the benchmark's main thread only.
 */
#ifndef ZKBENCH_TRACE_HPP
#define ZKBENCH_TRACE_HPP

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace zkbench {

using Clock = std::chrono::steady_clock;

struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent = -1; ///< Index of the causing span; -1 for a root.
    int lane = 0;    ///< Trace row; overlapping siblings use distinct lanes.
};

class Tracer
{
  public:
    explicit Tracer(bool on) : on(on), origin(Clock::now()) {}

    bool enabled() const { return on; }

    /** Open a nested span on the main lane; returns its id (-1 when off). */
    int begin(std::string name)
    {
        if (!on)
            return -1;
        const int parent = open.empty() ? -1 : open.back();
        spans.push_back({std::move(name), Clock::now(), {}, parent, 0});
        open.push_back(int(spans.size()) - 1);
        return open.back();
    }

    void end(int id)
    {
        if (id < 0)
            return;
        spans[std::size_t(id)].end = Clock::now();
        open.erase(std::find(open.begin(), open.end(), id));
    }

    /** Record a finished span whose interval may overlap its siblings
     *  (a service job in flight beside other jobs). */
    void record(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, int lane)
    {
        if (on)
            spans.push_back({std::move(name), start, end, parent, lane});
    }

    const std::vector<Span> &all() const { return spans; }

    /** Durations (ms) of every span with this exact name, in order. */
    std::vector<double> durationsMs(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans)
            if (s.name == name)
                out.push_back(ms(s.start, s.end));
        return out;
    }

    /** Self time (ms) summed per layer, the span-name prefix before '.'. */
    std::map<std::string, double> selfMsByLayer() const
    {
        std::vector<std::vector<std::pair<Clock::time_point,
                                          Clock::time_point>>>
            kids(spans.size());
        for (const Span &s : spans)
            if (s.parent >= 0)
                kids[std::size_t(s.parent)].emplace_back(s.start, s.end);
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            // Union of the children's intervals, clipped to the parent.
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0;
            Clock::time_point reach = s.start;
            for (auto [b, e] : iv) {
                b = std::max(b, reach);
                e = std::min(e, s.end);
                if (e > b) {
                    covered += ms(b, e);
                    reach = e;
                }
            }
            self[layerOf(s.name)] += ms(s.start, s.end) - covered;
        }
        return self;
    }

    /** Write every span as a Chrome "complete" (ph X) event. */
    bool writeChrome(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}",
                         i == 0 ? "" : ",", s.name.c_str(),
                         layerOf(s.name).c_str(), us(origin, s.start),
                         us(s.start, s.end), s.lane, i, s.parent);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

    static std::string layerOf(const std::string &name)
    {
        return name.substr(0, name.find('.'));
    }

    static double ms(Clock::time_point a, Clock::time_point b)
    {
        return std::chrono::duration<double, std::milli>(b - a).count();
    }

  private:
    static double us(Clock::time_point a, Clock::time_point b)
    {
        return std::chrono::duration<double, std::micro>(b - a).count();
    }

    bool on;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** RAII nested span. */
class Scope
{
  public:
    Scope(Tracer &t, std::string name) : t(t), id(t.begin(std::move(name))) {}
    ~Scope() { t.end(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t;
    int id;
};

} // namespace zkbench

#endif // ZKBENCH_TRACE_HPP
