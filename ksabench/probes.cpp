#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "algo/initial_clique.hpp"
#include "chaos/profile.hpp"
#include "core/bounds.hpp"
#include "exec/parallel_map.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/digest.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "store/delta_store.hpp"
#include "store/rematerialize.hpp"
#include "store/visited_store.hpp"

namespace ksabench {

namespace {

using ksa::ProcessId;
using ksa::StepChoice;
using ksa::System;

/// The protocol configuration a probe runs on: the explore workloads'
/// own, or the sweep's largest-n cell with one tolerated crash.
struct ProbeConfig {
    std::unique_ptr<ksa::Algorithm> algorithm;
    int n = 0;
    std::vector<ksa::Value> inputs;
    ksa::FailurePlan plan;
    ksa::ExecutionLimits limits;
    int walk_length = 0;
};

ProbeConfig probe_config(const Setup& s) {
    ProbeConfig c;
    if (is_explore(s.workload->kind)) {
        c.algorithm = explore_algorithm();
        c.n = s.explore.n;
        c.inputs = s.explore.inputs;
        c.plan = s.explore.plan;
        c.walk_length = s.explore.max_depth;
    } else {
        c.n = s.sweep.max_n;
        c.algorithm = ksa::algo::make_flp_kset(c.n, 1);
        c.inputs = ksa::distinct_inputs(c.n);
        c.limits = s.sweep.limits;
        c.walk_length = 8 * c.n;
    }
    return c;
}

/// A seeded walk from `root`: each step picks a live process and delivers
/// nothing, its oldest message or its whole buffer -- the explorer's three
/// delivery modes.
std::vector<StepChoice> make_walk(const System& root, int length,
                                  std::uint64_t& rng) {
    std::unique_ptr<System> sys = root.fork();
    sys->set_recording(false);
    std::vector<StepChoice> walk;
    for (int i = 0; i < length; ++i) {
        std::vector<ProcessId> live;
        for (ProcessId p = 1; p <= sys->n(); ++p)
            if (!sys->crashed(p)) live.push_back(p);
        if (live.empty()) break;
        const ProcessId p = live[splitmix(rng) % live.size()];
        const std::size_t buffered = sys->buffer(p).size();
        const std::uint64_t mode = splitmix(rng) % 3;
        const std::size_t count =
                mode == 0 ? 0 : mode == 1 ? std::min<std::size_t>(1, buffered)
                                          : buffered;
        walk.push_back(sys->prefix_choice(p, count));
        sys->apply_choice(walk.back());
    }
    return walk;
}

ksa::Digest128 digest_send(ProcessId from, const ksa::Payload& payload) {
    ksa::StateHasher h;
    h.u64(static_cast<std::uint64_t>(from));
    payload.fold(h);
    return h.digest();
}

/// Times trial(seed) against a plain recorded execution of the same
/// protocol under RandomScheduler(seed); returns sum(trial) / sum(plain).
template <typename TrialFn>
double injector_overhead(Tracer& tracer, const std::vector<std::uint64_t>& seeds,
                         int n, int f, const ksa::ExecutionLimits& limits,
                         TrialFn&& trial) {
    const auto algorithm = ksa::algo::make_flp_kset(n, f);
    double trial_us = 0, plain_us = 0;
    for (std::uint64_t seed : seeds) {
        double t0 = now_us();
        {
            Tracer::Scope span(tracer, "chaos.trial");
            trial(seed);
        }
        double t1 = now_us();
        trial_us += t1 - t0;
        {
            Tracer::Scope span(tracer, "sim.execute_run");
            ksa::RandomScheduler sched(seed);
            ksa::execute_run(*algorithm, n, ksa::distinct_inputs(n),
                             ksa::FailurePlan{}, sched, nullptr, limits);
        }
        plain_us += now_us() - t1;
    }
    return plain_us > 0 ? trial_us / plain_us : 0;
}

// The resilience sweep's private seed derivation and retry profile,
// rebuilt so the traced replica runs exactly the sweep's trials.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t trial_seed_for(std::uint64_t base, int n, int k, int f, int t) {
    std::uint64_t s = mix(base);
    s = mix(s ^ static_cast<std::uint64_t>(n));
    s = mix(s ^ (static_cast<std::uint64_t>(k) << 8));
    s = mix(s ^ (static_cast<std::uint64_t>(f) << 16));
    s = mix(s ^ (static_cast<std::uint64_t>(t) << 24));
    return s;
}

ksa::chaos::ChaosProfile tighter_profile(ksa::chaos::ChaosProfile p) {
    p.drop_per_mille /= 2;
    p.duplicate_per_mille /= 2;
    p.delay_per_mille /= 2;
    p.corrupt_per_mille /= 2;
    p.equivocate_per_mille /= 2;
    p.burst_per_mille /= 2;
    p.crash_per_mille /= 2;
    if (p.max_delay > 1) p.max_delay /= 2;
    return p;
}

}  // namespace

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

Metrics probe_sim(ProbeContext& ctx) {
    const ProbeConfig c = probe_config(ctx.setup);
    Tracer& tr = ctx.tracer;
    System root(*c.algorithm, c.n, c.inputs, c.plan);
    root.set_recording(false);
    std::uint64_t rng = ctx.setup.seed ^ 0x51d0c0ffeeull;

    constexpr int kWalks = 400;
    constexpr int kForksPerState = 4;
    constexpr int kFoldReps = 16;
    std::vector<double> fork_us, fold_ns, norec_us, rec_us;
    ksa::StateHasher h;
    for (int w = 0; w < kWalks; ++w) {
        const std::vector<StepChoice> walk = make_walk(root, c.walk_length, rng);
        if (walk.empty()) continue;
        // Non-recording replay (the explorer's rematerialization step).
        std::unique_ptr<System> sys = root.fork();
        sys->set_recording(false);
        double t0 = now_us();
        {
            Tracer::Scope span(tr, "sim.apply_choice.norec");
            for (const StepChoice& ch : walk) sys->apply_choice(ch);
        }
        norec_us.push_back((now_us() - t0) / static_cast<double>(walk.size()));
        // Recording replay (the sweeps' execute path).
        std::unique_ptr<System> rec = root.fork();
        rec->set_recording(true);
        t0 = now_us();
        {
            Tracer::Scope span(tr, "sim.apply_choice.rec");
            for (const StepChoice& ch : walk) rec->apply_choice(ch);
        }
        rec_us.push_back((now_us() - t0) / static_cast<double>(walk.size()));
        // Fork and fold the walk's final state.
        t0 = now_us();
        {
            Tracer::Scope span(tr, "sim.fork");
            for (int i = 0; i < kForksPerState; ++i) sys->fork();
        }
        fork_us.push_back((now_us() - t0) / kForksPerState);
        t0 = now_us();
        {
            Tracer::Scope span(tr, "sim.fold_state");
            for (int i = 0; i < kFoldReps; ++i)
                for (ProcessId p = 1; p <= c.n; ++p) {
                    h.reset();
                    sys->behavior_of(p).fold_state(h);
                }
        }
        fold_ns.push_back((now_us() - t0) * 1000.0 / (kFoldReps * c.n));
    }
    tr.count("sim.walks", kWalks);

    std::vector<double> exec_ms;
    for (int i = 0; i < 40; ++i) {
        const double t0 = now_us();
        {
            Tracer::Scope span(tr, "sim.execute_run");
            ksa::RandomScheduler sched(splitmix(rng));
            ksa::execute_run(*c.algorithm, c.n, c.inputs, c.plan, sched, nullptr,
                             c.limits);
        }
        exec_ms.push_back((now_us() - t0) / 1000.0);
    }
    return {{"sim.fork_us", median(fork_us)},
            {"sim.step_norec_us", median(norec_us)},
            {"sim.step_rec_us", median(rec_us)},
            {"sim.fold_state_ns", median(fold_ns)},
            {"sim.execute_ms", median(exec_ms)}};
}

Metrics probe_store(ProbeContext& ctx) {
    Tracer& tr = ctx.tracer;
    Metrics m;
    std::uint64_t rng = ctx.setup.seed ^ 0x5707e5ull;
    ksa::exec::TaskScheduler sched(ctx.threads);
    ksa::store::StoreOptions opt;
    opt.frontier_ram_bytes = kFrontierRamBytes;
    opt.spill_dir = ctx.spill_dir;

    // Visited store: the workload's key stream (distinct keys with the
    // workload's duplicate share), inserted in expansion-block batches.
    {
        std::vector<ksa::Digest128> uniq(ctx.store_keys);
        for (auto& k : uniq) k = {splitmix(rng), splitmix(rng)};
        std::vector<ksa::Digest128> stream;
        stream.reserve(ctx.store_keys + ctx.store_dups);
        std::size_t next = 0;
        const std::size_t total = ctx.store_keys + ctx.store_dups;
        for (std::size_t i = 0; i < total; ++i) {
            const bool fresh = next < uniq.size() &&
                               (next == 0 || splitmix(rng) % total < ctx.store_keys);
            stream.push_back(fresh ? uniq[next++] : uniq[splitmix(rng) % next]);
        }
        ksa::store::ShardedVisitedStore visited(opt);
        std::vector<ksa::Digest128> batch;
        std::vector<std::uint8_t> verdict;
        const double t0 = now_us();
        for (std::size_t i = 0; i < stream.size(); i += opt.expand_block) {
            const std::size_t end = std::min(stream.size(), i + opt.expand_block);
            batch.assign(stream.begin() + static_cast<std::ptrdiff_t>(i),
                         stream.begin() + static_cast<std::ptrdiff_t>(end));
            Tracer::Scope span(tr, "store.insert_batch");
            visited.insert_batch(sched, batch, verdict);
        }
        const double us = now_us() - t0;
        const ksa::store::VisitedStats st = visited.stats();
        m["store.insert_ns_per_key"] =
                stream.empty() ? 0 : us * 1000.0 / static_cast<double>(stream.size());
        const double probes = static_cast<double>(st.filter_false_positives +
                                                  st.filter_negatives);
        m["store.filter_fpr"] =
                probes > 0 ? static_cast<double>(st.filter_false_positives) / probes
                           : 0;
        tr.count("store.keys", static_cast<double>(stream.size()));
    }

    // Delta store: append the workload's node count, then random reads of
    // spilled ids.
    {
        ksa::store::DeltaStore deltas(opt);
        const std::size_t records = std::max<std::size_t>(ctx.store_keys, 1 << 17);
        double t0 = now_us();
        {
            Tracer::Scope span(tr, "store.append");
            for (std::size_t i = 1; i <= records; ++i)
                deltas.append({splitmix(rng) % i, 1, 0});
        }
        m["store.append_ns"] = (now_us() - t0) * 1000.0 / static_cast<double>(records);
        const std::uint64_t spilled = deltas.spilled_records();
        ksa::store::DeltaStore::Reader reader(deltas);
        constexpr int kReads = 20000;
        t0 = now_us();
        {
            Tracer::Scope span(tr, "store.read");
            for (int i = 0; i < kReads; ++i)
                reader.get(spilled > 0 ? splitmix(rng) % spilled : 0);
        }
        m["store.read_us"] = (now_us() - t0) / kReads;
        tr.count("store.spilled_probe_records", static_cast<double>(spilled));
    }

    // Rematerialization: a delta tree of seeded walks, materialized in a
    // parallel region of the workload's thread count (the explorer's
    // EXPAND phase in miniature).  The region's task times give
    // exec.busy_share and exec.cell_skew.
    {
        const ProbeConfig c = probe_config(ctx.setup);
        System root(*c.algorithm, c.n, c.inputs, c.plan);
        root.set_recording(false);
        ksa::store::DeltaStore deltas(opt);
        deltas.append({});  // the root, id 0
        constexpr int kWalks = 2000;
        for (int w = 0; w < kWalks; ++w) {
            std::uint64_t parent = 0;
            for (const StepChoice& ch : make_walk(root, c.walk_length, rng)) {
                parent = deltas.append({parent, static_cast<std::uint32_t>(ch.process),
                                        static_cast<std::uint32_t>(ch.deliver.size())});
            }
        }
        const std::uint64_t nodes = deltas.size();
        std::vector<std::uint64_t> ids(40000);
        for (auto& id : ids) id = 1 + splitmix(rng) % (nodes - 1);
        std::sort(ids.begin(), ids.end());  // BFS order, as the explorer visits
        constexpr std::size_t kChunk = 500;
        const std::size_t chunks = ids.size() / kChunk;
        std::vector<std::unique_ptr<ksa::store::Rematerializer>> workers;
        for (int i = 0; i < sched.size(); ++i)
            workers.push_back(std::make_unique<ksa::store::Rematerializer>(
                    *c.algorithm, c.n, c.inputs, c.plan, deltas, &digest_send));
        struct Task {
            double start = 0, end = 0;
        };
        const std::uint64_t steals0 = sched.steal_count();
        const int parent = tr.current();
        const double t0 = now_us();
        std::vector<Task> tasks = ksa::exec::parallel_map_grained(
                sched, chunks, 1, [&](std::size_t i, int worker) {
                    Task t;
                    t.start = now_us();
                    auto& r = *workers[static_cast<std::size_t>(worker)];
                    for (std::size_t j = i * kChunk; j < (i + 1) * kChunk; ++j)
                        r.materialize(ids[j]);
                    t.end = now_us();
                    return t;
                });
        const double wall = now_us() - t0;
        const int region = tr.record("exec.region.remat", t0, t0 + wall, parent);
        double busy = 0;
        std::vector<double> task_us;
        for (const Task& t : tasks) {
            tr.record("store.materialize", t.start, t.end, region);
            busy += t.end - t.start;
            task_us.push_back(t.end - t.start);
        }
        m["store.remat_us"] = busy / static_cast<double>(chunks * kChunk);
        m["exec.busy_share"] = busy / (wall * sched.size());
        m["exec.cell_skew"] = *std::max_element(task_us.begin(), task_us.end()) /
                              median(task_us);
        tr.count("exec.remat_steals",
                 static_cast<double>(sched.steal_count() - steals0));
    }
    return m;
}

Metrics probe_exec_region(ProbeContext& ctx) {
    ksa::exec::TaskScheduler sched(ctx.threads);
    const std::size_t count = static_cast<std::size_t>(sched.size()) * 4;
    std::vector<double> us;
    for (int i = 0; i < 400; ++i) {
        const double t0 = now_us();
        {
            Tracer::Scope span(ctx.tracer, "exec.parallel_map_grained");
            ksa::exec::parallel_map_grained(
                    sched, count, 1, [](std::size_t j, int) { return j; });
        }
        us.push_back(now_us() - t0);
    }
    return {{"exec.region_us", median(us)}};
}

Metrics probe_chaos(ProbeContext& ctx) {
    Tracer& tr = ctx.tracer;
    const int n = ctx.setup.explore.n, k = 1, f = 1;
    std::uint64_t rng = ctx.setup.seed ^ 0xc4a05ull;
    const ksa::chaos::ChaosProfile profile = ksa::chaos::guarded_profile(ctx.setup.seed);
    std::vector<double> trial_ms, classify_us;
    double faults = 0;
    constexpr int kTrials = 600;
    for (int i = 0; i < kTrials; ++i) {
        double t0 = now_us();
        ksa::chaos::TrialResult r;
        {
            Tracer::Scope span(tr, "chaos.trial");
            r = ksa::chaos::chaos_trial(n, k, f, profile, splitmix(rng));
        }
        double t1 = now_us();
        trial_ms.push_back((t1 - t0) / 1000.0);
        {
            Tracer::Scope span(tr, "chaos.classify_run");
            ksa::chaos::classify_run(r.run, k);
        }
        classify_us.push_back(now_us() - t1);
        faults += r.stats.total_faults();
    }
    std::vector<std::uint64_t> seeds(100);
    for (auto& s : seeds) s = splitmix(rng);
    const double overhead = injector_overhead(
            tr, seeds, n, f, {}, [&](std::uint64_t seed) {
                return ksa::chaos::chaos_trial(n, k, f, profile, seed);
            });
    return {{"chaos.trial_ms.p50", percentile(trial_ms, 50)},
            {"chaos.trial_ms.p99", percentile(trial_ms, 99)},
            {"chaos.injector_overhead", overhead},
            {"chaos.classify_us", median(classify_us)},
            {"chaos.faults_per_trial", faults / kTrials}};
}

Metrics traced_sweep_pass(Tracer& tr, const ksa::chaos::SweepConfig& c,
                          ksa::chaos::SweepReport& replica) {
    using ksa::chaos::CellResult;
    using ksa::chaos::Outcome;
    using ksa::chaos::TrialResult;
    const bool byz = c.model == ksa::chaos::SweepConfig::FaultModel::kByzantine;
    struct Coord {
        int n, k, f;
    };
    std::vector<Coord> coords;
    for (int n = c.min_n; n <= c.max_n; ++n)
        for (int k = 1; k <= n - 1; ++k)
            for (int f = 0; f <= n - 1; ++f) coords.push_back({n, k, f});
    const auto trial = [&](int n, int k, int f, const ksa::chaos::ChaosProfile& p,
                           std::uint64_t seed) {
        return byz ? ksa::chaos::byzantine_trial(n, k, f, p, seed, c.limits,
                                                 c.trial_wall_budget_ms)
                   : ksa::chaos::chaos_trial(n, k, f, p, seed, c.limits,
                                             c.trial_wall_budget_ms);
    };
    struct Timed {
        double start, end, classify_start, classify_end;
    };
    struct CellOut {
        CellResult cell;
        double start = 0, end = 0;
        std::vector<Timed> trials;
    };
    ksa::exec::TaskScheduler sched(c.threads);
    const int parent = tr.current();
    const double t0 = now_us();
    std::vector<CellOut> cells = ksa::exec::parallel_map_grained(
            sched, coords.size(), 1, [&](std::size_t i, int) {
                const auto [n, k, f] = coords[i];
                CellOut out;
                out.start = now_us();
                CellResult& cell = out.cell;
                cell.n = n;
                cell.k = k;
                cell.f = f;
                cell.solvable = byz ? ksa::core::byzantine_kset_necessary(n, f, k)
                                    : ksa::core::theorem8_solvable(n, f, k);
                for (int t = 0; t < c.seeds_per_cell; ++t) {
                    const std::uint64_t seed = trial_seed_for(c.base_seed, n, k, f, t);
                    Timed tm{};
                    tm.start = now_us();
                    TrialResult r = trial(n, k, f, c.profile, seed);
                    if (r.outcome == Outcome::kInconclusive && c.retry_inconclusive) {
                        ++cell.retries;
                        r = trial(n, k, f, tighter_profile(c.profile),
                                  mix(seed ^ 0x5bf03635aca33d2aull));
                    }
                    tm.end = now_us();
                    // A second classification of the recorded run, timed on
                    // its own; a trial's own classification is inside it.
                    tm.classify_start = tm.end;
                    const Outcome again = ksa::chaos::classify_run(r.run, k);
                    tm.classify_end = now_us();
                    (void)again;
                    out.trials.push_back(tm);
                    ++cell.trials;
                    cell.faults_injected += r.stats.total_faults();
                    switch (r.outcome) {
                        case Outcome::kDecidedCorrectly: ++cell.decided; break;
                        case Outcome::kAgreementViolated:
                            ++cell.agreement_violations;
                            break;
                        case Outcome::kValidityViolated:
                            ++cell.validity_violations;
                            break;
                        case Outcome::kTimedOut: ++cell.timeouts; break;
                        case Outcome::kInadmissible: ++cell.inadmissible; break;
                        case Outcome::kInconclusive: ++cell.inconclusive; break;
                    }
                }
                out.end = now_us();
                return out;
            });
    const double wall = now_us() - t0;

    const int region = tr.record("exec.region.sweep", t0, t0 + wall, parent);
    std::vector<double> trial_ms, classify_us, cell_us;
    double busy = 0, faults = 0, retries = 0, inconclusive = 0, trials = 0;
    replica.config = c;
    replica.cells.clear();
    for (const CellOut& co : cells) {
        const int cell_span = tr.record("chaos.cell", co.start, co.end, region);
        for (const Timed& tm : co.trials) {
            tr.record("chaos.trial", tm.start, tm.end, cell_span);
            tr.record("chaos.classify_run", tm.classify_start, tm.classify_end,
                      cell_span);
            trial_ms.push_back((tm.end - tm.start) / 1000.0);
            classify_us.push_back(tm.classify_end - tm.classify_start);
        }
        busy += co.end - co.start;
        cell_us.push_back(co.end - co.start);
        faults += co.cell.faults_injected;
        retries += co.cell.retries;
        inconclusive += co.cell.inconclusive;
        trials += co.cell.trials;
        replica.cells.push_back(co.cell);
    }
    Metrics m{{"pass_s", wall / 1e6},
              {"chaos.trial_ms.p50", percentile(trial_ms, 50)},
              {"chaos.trial_ms.p99", percentile(trial_ms, 99)},
              {"chaos.classify_us", median(classify_us)},
              {"chaos.faults_per_trial", faults / trials},
              {"chaos.retry_share", retries / trials},
              {"chaos.inconclusive_share", inconclusive / trials},
              {"exec.busy_share", busy / (wall * sched.size())},
              {"exec.steals", static_cast<double>(sched.steal_count())},
              {"exec.cell_skew",
               *std::max_element(cell_us.begin(), cell_us.end()) / median(cell_us)}};
    tr.count("chaos.trials", trials);

    // Injector overhead on the largest cell's first seeds.
    const Coord big{c.max_n, 1, 1};
    std::vector<std::uint64_t> seeds;
    for (int t = 0; t < std::min(c.seeds_per_cell, 50); ++t)
        seeds.push_back(trial_seed_for(c.base_seed, big.n, big.k, big.f, t));
    m["chaos.injector_overhead"] = injector_overhead(
            tr, seeds, big.n, big.f, c.limits,
            [&](std::uint64_t seed) { return trial(big.n, big.k, big.f, c.profile, seed); });
    return m;
}

}  // namespace ksabench
