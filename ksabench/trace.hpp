#pragma once
// In-memory span recorder for the traced benchmark run.
//
// A span is one call the benchmark makes into a library layer: its name
// (layer.function), start and end on the monotonic clock, the span that
// was open when it began (its parent) and the workload pass it belongs
// to.  Spans stay in memory and are written once, at exit, so recording
// costs two clock reads and one vector append per span.  With tracing
// off every Scope is a no-op and nothing is recorded; the untraced run
// executes the same code with the recorder disabled.
//
// Spans are opened and closed on the benchmark's main thread, in stack
// order; work timed inside parallel tasks is recorded afterwards as
// already-closed child spans (record()).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace ksabench {

/// Microseconds on the monotonic clock since the first call.
inline double now_us() {
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - origin)
        .count();
}

struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;  ///< index into Tracer::spans(), -1 for a root
    int pass = -1;    ///< workload pass id, -1 outside the timed passes
};

class Tracer {
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }
    void set_pass(int pass) { pass_ = pass; }

    /// RAII span: opened on construction, closed on destruction.
    class Scope {
      public:
        Scope(Tracer& t, std::string name) : t_(t) {
            if (!t_.on_) return;
            index_ = static_cast<int>(t_.spans_.size());
            const int parent = t_.open_.empty() ? -1 : t_.open_.back();
            t_.spans_.push_back({std::move(name), now_us(), 0, parent, t_.pass_});
            t_.open_.push_back(index_);
        }
        ~Scope() {
            if (index_ < 0) return;
            t_.spans_[static_cast<std::size_t>(index_)].end_us = now_us();
            t_.open_.pop_back();
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& t_;
        int index_ = -1;
    };

    /// Index of the innermost open span, -1 when none is open.
    int current() const { return open_.empty() ? -1 : open_.back(); }

    /// Appends an already-closed span; returns its index.  Worker tasks
    /// time their own work and the main thread records it afterwards,
    /// so the recorder itself is never shared between threads.
    int record(std::string name, double start_us, double end_us, int parent) {
        if (!on_) return -1;
        spans_.push_back({std::move(name), start_us, end_us, parent, pass_});
        return static_cast<int>(spans_.size()) - 1;
    }

    /// Adds `v` to the named counter (recorded only while tracing).
    void count(const std::string& name, double v = 1) {
        if (on_) counts_[name] += v;
    }

    const std::vector<Span>& spans() const { return spans_; }
    const std::map<std::string, double>& counts() const { return counts_; }

    /// Self time (us) summed per layer, the layer being the span name up
    /// to its first '.'.  Self time is a span's duration minus the union
    /// of its children's intervals (children recorded from parallel tasks
    /// may overlap one another).
    std::map<std::string, double> self_us_by_layer() const {
        std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
        for (const Span& s : spans_)
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].push_back(
                        {s.start_us, s.end_us});
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto& iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0, lo = 0, hi = -1;
            for (const auto& [a, b] : iv) {
                if (a > hi) {
                    covered += hi > lo ? hi - lo : 0;
                    lo = a;
                    hi = b;
                } else if (b > hi) {
                    hi = b;
                }
            }
            covered += hi > lo ? hi - lo : 0;
            const Span& s = spans_[i];
            out[s.name.substr(0, s.name.find('.'))] +=
                    s.end_us - s.start_us - covered;
        }
        return out;
    }

    /// Writes every span and counter as one JSON document.
    bool write(const std::string& path, const std::string& workload) const {
        std::ofstream out(path);
        if (!out) return false;
        out << std::fixed << std::setprecision(3);
        out << "{\"workload\": \"" << workload << "\", \"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"start_us\": " << s.start_us
                << ", \"end_us\": " << s.end_us << ", \"parent\": " << s.parent
                << ", \"pass\": " << s.pass << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "], \"counts\": {";
        bool first = true;
        for (const auto& [name, v] : counts_) {
            out << (first ? "" : ", ") << "\"" << name << "\": " << v;
            first = false;
        }
        out << "}}\n";
        return static_cast<bool>(out);
    }

  private:
    bool on_;
    int pass_ = -1;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counts_;
};

}  // namespace ksabench
