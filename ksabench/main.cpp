// ksabench: runs one benchmark workload and reports its metrics.
//
//   ksabench --workload NAME --seed N --seconds S --trace 0|1
//            --golden DIR --scratch DIR [--setup-only]
//   ksabench --workload NAME --write-golden DIR --scratch DIR
//
// run.py in this directory builds this program and drives it; README.md
// documents the workloads, the checks and every metric.  The last line
// of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: value}, "info": {...}}; run.py attaches
// the units from BENCHMARK.json.
// Progress and a human-readable summary go to standard error.  The exit
// code is 1 when any checked output was wrong, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "core/explorer.hpp"
#include "chaos/resilience.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace ksabench;

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool setup_only = false;
    std::string golden_dir;
    std::string scratch_dir;
    std::string write_golden;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "ksabench: " << why << "\n"
              << "usage: ksabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --golden DIR --scratch DIR [--setup-only]\n"
                 "       ksabench --workload NAME --write-golden DIR "
                 "--scratch DIR\n";
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") a.workload = v;
        else if (flag == "--seed") a.seed = std::stoull(v);
        else if (flag == "--seconds") a.seconds = std::stod(v);
        else if (flag == "--trace") a.trace = v == "1";
        else if (flag == "--golden") a.golden_dir = v;
        else if (flag == "--scratch") a.scratch_dir = v;
        else if (flag == "--write-golden") a.write_golden = v;
        else usage("unknown flag " + flag);
    }
    if (a.scratch_dir.empty()) usage("--scratch is required");
    return a;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "ksabench: cannot read " << path << "\n";
        std::exit(2);
    }
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/// One pass's checked output: the canonical rendering compared across
/// passes and thread counts, plus its size in operations.
struct PassOutput {
    std::string text;
    double seconds = 0;
    ksa::core::ExploreResult explore;
    ksa::chaos::SweepReport sweep;
};

PassOutput run_pass(const Setup& s, int threads, Tracer& tracer) {
    PassOutput out;
    const double t0 = now_us();
    if (is_explore(s.workload->kind)) {
        ksa::core::ExploreConfig cfg = s.explore;
        cfg.threads = threads;
        {
            Tracer::Scope span(tracer, "core.explore_schedules");
            out.explore = ksa::core::explore_schedules(*s.algorithm, cfg);
        }
        out.seconds = (now_us() - t0) / 1e6;
        out.text = render_outcome(out.explore, inverse_map(s.value_map));
    } else {
        ksa::chaos::SweepConfig cfg = s.sweep;
        cfg.threads = threads;
        {
            Tracer::Scope span(tracer, "chaos.resilience_sweep");
            out.sweep = ksa::chaos::resilience_sweep(cfg);
        }
        out.seconds = (now_us() - t0) / 1e6;
        out.text = out.sweep.to_json();
    }
    return out;
}

/// Checks every output of the workload and counts attempted / failed
/// operations (an explore pass, or a sweep trial).
class Checker {
  public:
    Checker(const Setup& s, const std::string& golden) : s_(s), golden_(golden) {}

    /// Checks one output.  The first output of a run is pinned against
    /// the golden one: byte for byte for the default seed; for another
    /// seed an explore outcome must still match every count and outcome
    /// (the seeded proposals are mapped back to the golden ones), and a
    /// sweep report must keep its invariants.  Every later output must
    /// be byte-identical to the first.
    void check(const PassOutput& p, const char* what) {
        if (!first_.empty()) {
            account(p, first_, what);
            return;
        }
        first_ = p.text;
        if (s_.seed == kDefaultSeed) {
            account(p, golden_, what);
        } else if (is_explore(s_.workload->kind)) {
            // The bloom tier's counters depend on the key bits, hence on
            // the proposals: pinned for the default seed only.
            PassOutput invariant = p;
            invariant.text = without_filter_lines(p.text);
            account(invariant, without_filter_lines(golden_), what);
        } else {
            account(p, p.text, what);
        }
    }

    /// Checks an output that has no golden counterpart (the warm-up pass,
    /// the Byzantine probe) by its gate only: no violation; for a sweep
    /// boundary_clean() in the crash model, complete() in the Byzantine one.
    void gate(const PassOutput& p, const char* what) {
        const bool explore = p.sweep.cells.empty();
        const long ops = explore ? 1 : p.sweep.total_trials();
        const bool ok =
                explore ? !p.explore.violation_found
                : p.sweep.config.model == ksa::chaos::SweepConfig::FaultModel::kByzantine
                        ? p.sweep.complete()
                        : p.sweep.boundary_clean();
        attempted_ += ops;
        if (!ok) {
            failed_ += ops;
            std::cerr << "ksabench: " << what << " fails its gate\n";
        }
    }

    /// True when the golden output pins this run's first output byte
    /// for byte, except the seed-dependent bloom counters of an explore
    /// run -- which later passes must still reproduce.
    bool golden_pins() const {
        return s_.seed == kDefaultSeed || is_explore(s_.workload->kind);
    }

    /// Adds another checker's counts (the traced run's probe passes).
    void add(const Checker& other) {
        attempted_ += other.attempted_;
        failed_ += other.failed_;
    }

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }

  private:
    static std::string without_filter_lines(const std::string& text) {
        std::istringstream in(text);
        std::string line, out;
        while (std::getline(in, line))
            if (line.rfind("filter_", 0) != 0) out += line + "\n";
        return out;
    }

    void account(const PassOutput& p, const std::string& expected,
                 const char* what) {
        if (is_explore(s_.workload->kind)) {
            ++attempted_;
            if (p.text != expected) {
                ++failed_;
                std::cerr << "ksabench: " << what << " outcome differs:\n"
                          << p.text << "expected:\n" << expected;
            }
            return;
        }
        // Sweeps: a trial fails when its cell's line differs from the
        // expected report, or its solvable cell is not clean.
        std::istringstream got(p.text), want(expected);
        std::string gl, wl;
        std::size_t cell = 0;
        bool header_ok = true;
        while (std::getline(got, gl)) {
            const bool more = static_cast<bool>(std::getline(want, wl));
            if (gl.rfind("    {\"n\": ", 0) != 0) {
                header_ok = header_ok && more && gl == wl;
                continue;
            }
            if (cell >= p.sweep.cells.size()) break;
            const ksa::chaos::CellResult& c = p.sweep.cells[cell++];
            const bool invariant_ok = !c.solvable || c.clean();
            attempted_ += c.trials;
            if (!more || gl != wl || !invariant_ok) {
                failed_ += c.trials;
                std::cerr << "ksabench: " << what << " cell differs: " << gl
                          << "\n  expected: " << wl << "\n";
            }
        }
        if (!header_ok || !p.sweep.boundary_clean() || std::getline(want, wl)) {
            // Whole-report mismatch (header, trailer, or the sweep gate):
            // count one failed operation so it can never pass silently.
            ++attempted_;
            ++failed_;
            std::cerr << "ksabench: " << what << " report differs from the "
                      << "expected one or fails its gate\n";
        }
    }

    const Setup& s_;
    std::string golden_;
    std::string first_;
    long attempted_ = 0;
    long failed_ = 0;
};

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// core.* metrics of one exploration pass.
Metrics core_metrics(const PassOutput& p) {
    const ksa::core::ExploreResult& r = p.explore;
    const double states = static_cast<double>(r.states_explored);
    std::size_t max_layer = 0;
    for (std::size_t s : r.layer_frontier_sizes) max_layer = std::max(max_layer, s);
    return {{"core.states", states},
            {"core.dedup_hits", static_cast<double>(r.dedup_hits)},
            {"core.por_skips", static_cast<double>(r.por_skips)},
            {"core.max_layer_frontier", static_cast<double>(max_layer)},
            {"core.us_per_state", p.seconds * 1e6 / states},
            {"core.replay_steps_per_state", static_cast<double>(r.replay_steps) / states},
            {"core.spill_reads_per_state", static_cast<double>(r.spill_reads) / states},
            {"store.peak_resident_mb",
             static_cast<double>(r.peak_resident_bytes) / (1 << 20)},
            {"store.spill_mb", static_cast<double>(r.spill_bytes) / (1 << 20)}};
}

void print_result(const Checker& check, const Metrics& metrics,
                  const Metrics& info) {
    std::ostringstream out;
    out << std::setprecision(12);
    out << "{\"correct\": " << (check.failed() == 0 ? "true" : "false")
        << ", \"attempted\": " << check.attempted()
        << ", \"failed\": " << check.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : metrics) {
        out << (first ? "" : ", ") << "\"" << name << "\": " << v;
        first = false;
    }
    out << "}, \"info\": {\"fail_share\": "
        << static_cast<double>(check.failed()) /
                   static_cast<double>(std::max(1L, check.attempted()));
    for (const auto& [name, v] : info) out << ", \"" << name << "\": " << v;
    out << "}}";
    std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
    now_us();  // pin the clock origin
    const Args args = parse(argc, argv);
    const Workload* w = find_workload(args.workload);
    if (w == nullptr) usage("unknown workload '" + args.workload + "'");

    Tracer off(false);
    if (!args.write_golden.empty()) {
        const Setup s = make_setup(*w, kDefaultSeed, 1, args.scratch_dir);
        const PassOutput ref = run_pass(s, 1, off);
        std::ofstream(args.write_golden + "/" + w->name + ".golden",
                      std::ios::binary)
                << ref.text;
        std::cerr << ref.text;
        return 0;
    }

    const Setup setup = make_setup(*w, args.seed, w->threads, args.scratch_dir);
    if (args.setup_only) {
        std::cout << "ready" << std::endl;
        return 0;
    }
    if (args.golden_dir.empty()) usage("--golden is required");
    Checker check(setup, read_file(args.golden_dir + "/" + w->name + ".golden"));

    // A 1-thread reference pass, when the golden output does not already
    // pin the outcome, and always in the traced run: every N-thread pass
    // must then be byte-identical to it.
    PassOutput ref;
    if (args.trace || !check.golden_pins()) {
        ref = run_pass(setup, 1, off);
        check.check(ref, "1-thread reference pass");
        std::cerr << "ksabench: 1-thread reference pass " << ref.seconds << " s\n";
    } else {
        // Otherwise a reduced-size warm-up pass (depth 9, or a quarter of
        // the seeds) fills the allocator and the caches, so that the first
        // timed pass is not a cold outlier.
        Setup warm = make_setup(*w, args.seed, w->threads, args.scratch_dir);
        warm.explore.max_depth = 9;
        warm.sweep.seeds_per_cell = std::max(1, warm.sweep.seeds_per_cell / 4);
        const PassOutput p = run_pass(warm, w->threads, off);
        check.gate(p, "warm-up pass");
        std::cerr << "ksabench: warm-up pass " << p.seconds << " s\n";
    }

    Tracer tracer(args.trace);
    std::vector<double> walls, traced_walls;
    Metrics metrics, info;
    PassOutput last;
    ksa::chaos::SweepReport replica;
    const double start = now_us();
    const auto elapsed = [&] { return (now_us() - start) / 1e6; };
    // Untraced run: timed passes until the time is up.  Traced run:
    // untraced and traced passes alternate, so their medians differ by
    // the tracing overhead only.
    for (int pass = 0; pass < 1000; ++pass) {
        const double typical = walls.empty() ? 0 : median(walls);
        if (walls.size() >= 2 && elapsed() + typical / 2 >= args.seconds) break;
        const bool traced = args.trace && pass % 2 == 1;
        if (!traced) {
            last = run_pass(setup, w->threads, off);
            walls.push_back(last.seconds);
            check.check(last, "timed pass");
            std::cerr << "ksabench: pass " << pass << " " << last.seconds << " s\n";
            continue;
        }
        tracer.set_pass(pass);
        Tracer::Scope span(tracer, "bench.pass");
        if (is_explore(w->kind)) {
            last = run_pass(setup, w->threads, tracer);
            traced_walls.push_back(last.seconds);
            check.check(last, "timed pass");
        } else {
            const Metrics m = traced_sweep_pass(tracer, setup.sweep, replica);
            traced_walls.push_back(m.at("pass_s"));
            for (const auto& [k, v] : m)
                if (k != "pass_s") metrics[k] = v;
        }
        tracer.set_pass(-1);
    }
    const double wall = median(walls);
    const double work = is_explore(w->kind)
                                ? static_cast<double>(last.explore.states_explored)
                                : static_cast<double>(last.sweep.total_trials());
    info["passes"] = static_cast<double>(walls.size());
    info["threads"] = w->threads;
    info["work_per_pass"] = work;

    if (!args.trace) {
        metrics["wall_s"] = wall;
        metrics["work_per_s"] = work / wall;
        metrics["peak_rss_mb"] = peak_rss_mb();
        print_result(check, metrics, info);
        return check.failed() == 0 ? 0 : 1;
    }

    // ---- traced run: per-layer metrics -------------------------------
    metrics["trace.overhead_share"] = median(traced_walls) / wall - 1;
    info["traced_passes"] = static_cast<double>(traced_walls.size());
    if (!is_explore(w->kind)) {
        const bool exact = replica.to_json() == last.text;
        info["replica_exact"] = exact ? 1 : 0;
        if (!exact)
            std::cerr << "ksabench: the traced sweep replica's report differs "
                         "from resilience_sweep's; trace.overhead_share "
                         "compares different work\n";
    }

    // core and core.reduction: the workload's own exploration, and one
    // pass of its twin (explore-verify <-> explore-symmetric); the sweeps,
    // which never explore, measure both explore configurations.
    const Workload* verify_w = find_workload("explore-verify");
    const Workload* sym_w = find_workload("explore-symmetric");
    const auto probe_pass = [&](const Workload* pw) {
        const Setup ps = make_setup(*pw, args.seed, w->threads, args.scratch_dir);
        PassOutput out;
        {
            Tracer::Scope span(tracer, "bench.core_probe");
            out = run_pass(ps, w->threads, tracer);
        }
        Checker probe(ps, read_file(args.golden_dir + "/" + pw->name + ".golden"));
        probe.check(out, "core probe pass");
        check.add(probe);
        return out;
    };
    // The workload's own exploration is timed by its median pass.
    PassOutput own_pass = last;
    own_pass.seconds = wall;
    PassOutput verify, sym;
    if (w->kind == Kind::kExploreVerify) {
        verify = own_pass;
        sym = probe_pass(sym_w);
    } else if (w->kind == Kind::kExploreSymmetric) {
        sym = own_pass;
        verify = probe_pass(verify_w);
    } else {
        verify = probe_pass(verify_w);
        sym = probe_pass(sym_w);
    }
    const PassOutput& own = w->kind == Kind::kExploreSymmetric ? sym : verify;
    for (const auto& [k, v] : core_metrics(own)) metrics[k] = v;
    metrics["reduction.us_per_state_excess"] =
            core_metrics(sym).at("core.us_per_state") -
            core_metrics(verify).at("core.us_per_state");
    if (is_explore(w->kind))
        metrics["exec.steals"] = static_cast<double>(last.explore.parallel_steals);

    ProbeContext ctx{setup, tracer, w->threads, args.scratch_dir,
                     own.explore.states_explored, own.explore.dedup_hits};
    for (const auto& [k, v] : probe_sim(ctx)) metrics[k] = v;
    for (const auto& [k, v] : probe_exec_region(ctx)) metrics[k] = v;
    Metrics store = probe_store(ctx);
    if (!is_explore(w->kind)) {
        // The sweep's own cell region already gave the exec.* shares.
        store.erase("exec.busy_share");
        store.erase("exec.cell_skew");
    }
    for (const auto& [k, v] : store) metrics.emplace(k, v);
    if (is_explore(w->kind))
        for (const auto& [k, v] : probe_chaos(ctx)) metrics[k] = v;
    {
        // The Byzantine mutators and the inconclusive-retry path, which no
        // timed workload reaches.
        PassOutput byz;
        Tracer::Scope span(tracer, "bench.byzantine_probe");
        const Metrics m = traced_sweep_pass(
                tracer, byzantine_probe_config(args.seed, w->threads), byz.sweep);
        check.gate(byz, "Byzantine probe");
        metrics["chaos.byz_trial_ms.p50"] = m.at("chaos.trial_ms.p50");
        metrics["chaos.byz_trial_ms.p99"] = m.at("chaos.trial_ms.p99");
        metrics["chaos.byz_faults_per_trial"] = m.at("chaos.faults_per_trial");
        metrics["chaos.retry_share"] = m.at("chaos.retry_share");
        metrics["chaos.inconclusive_share"] = m.at("chaos.inconclusive_share");
    }
    for (const auto& [layer, us] : tracer.self_us_by_layer())
        if (layer != "bench") metrics[layer + ".self_s"] = us / 1e6;

    const std::string trace_path =
            args.scratch_dir + "/trace-" + w->name + ".json";
    if (!tracer.write(trace_path, w->name))
        std::cerr << "ksabench: cannot write " << trace_path << "\n";
    info["spans"] = static_cast<double>(tracer.spans().size());
    print_result(check, metrics, info);
    return check.failed() == 0 ? 0 : 1;
}
