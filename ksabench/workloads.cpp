#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "algo/initial_clique.hpp"
#include "chaos/profile.hpp"

namespace ksabench {

namespace {

// Thread counts stay at 2 on a 4-core box: half the cores leaves room
// for the noise of a shared machine, and 2 workers still exercise every
// steal/merge path of the execution layer.
const Workload kWorkloads[] = {
    {"explore-verify", Kind::kExploreVerify, 2},
    {"explore-symmetric", Kind::kExploreSymmetric, 2},
    {"sweep-crash", Kind::kSweepCrash, 2},
};

constexpr int kExploreN = 5;
constexpr ksa::ProcessId kExploreDead = 5;
constexpr int kExploreDepth = 16;

// A sweep-crash pass takes one to two seconds at 2 threads on a 4-core
// machine; the Byzantine probe about as long.
constexpr int kCrashMaxN = 8;
constexpr int kCrashSeedsPerCell = 40;
constexpr int kByzantineMaxN = 6;
constexpr int kByzantineSeedsPerCell = 2;
constexpr ksa::Time kByzantineMaxSteps = 6000;

}  // namespace

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

std::uint64_t splitmix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::unique_ptr<ksa::Algorithm> explore_algorithm() {
    return ksa::algo::make_flp_kset(kExploreN, 1);
}

Setup make_setup(const Workload& w, std::uint64_t seed, int threads,
                 const std::string& spill_dir) {
    Setup s;
    s.workload = &w;
    s.seed = seed;
    std::uint64_t rng = seed;
    if (is_explore(w.kind)) {
        s.algorithm = explore_algorithm();
        s.value_map.assign(kExploreN + 1, 0);
        if (w.kind == Kind::kExploreVerify) {
            // A seeded permutation of the distinct proposals 1..n.
            std::vector<ksa::Value> perm(kExploreN);
            std::iota(perm.begin(), perm.end(), 1);
            for (int i = kExploreN - 1; i > 0; --i)
                std::swap(perm[static_cast<std::size_t>(i)],
                          perm[splitmix(rng) % static_cast<std::uint64_t>(i + 1)]);
            for (int v = 1; v <= kExploreN; ++v)
                s.value_map[static_cast<std::size_t>(v)] =
                        perm[static_cast<std::size_t>(v - 1)];
            s.explore.inputs = perm;
        } else {
            // One seeded proposal shared by every process.
            const auto u = static_cast<ksa::Value>(1 + splitmix(rng) % 1000);
            s.value_map[1] = u;
            s.explore.inputs.assign(kExploreN, u);
        }
        s.explore.n = kExploreN;
        s.explore.plan.set_initially_dead(kExploreDead);
        s.explore.k = 1;
        s.explore.max_depth = kExploreDepth;
        s.explore.max_states = std::size_t(10) * 1000 * 1000;
        s.explore.mode = ksa::core::ExploreMode::kReduced;
        s.explore.threads = threads;
        s.explore.collect_layer_sizes = true;
        s.explore.store.frontier_ram_bytes = kFrontierRamBytes;
        s.explore.store.spill_dir = spill_dir;
        return s;
    }
    ksa::chaos::SweepConfig& c = s.sweep;
    c.model = ksa::chaos::SweepConfig::FaultModel::kCrash;
    c.min_n = 2;
    c.max_n = kCrashMaxN;
    c.seeds_per_cell = kCrashSeedsPerCell;
    c.base_seed = seed;
    c.profile = ksa::chaos::guarded_profile(seed);
    c.trial_wall_budget_ms = 0;
    c.threads = threads;
    return s;
}

ksa::chaos::SweepConfig byzantine_probe_config(std::uint64_t seed, int threads) {
    ksa::chaos::SweepConfig c;
    c.model = ksa::chaos::SweepConfig::FaultModel::kByzantine;
    c.min_n = 2;
    c.max_n = kByzantineMaxN;
    c.seeds_per_cell = kByzantineSeedsPerCell;
    c.base_seed = seed;
    c.profile = ksa::chaos::byzantine_profile(seed, -1);
    c.limits.max_steps = kByzantineMaxSteps;
    c.trial_wall_budget_ms = 0;
    c.threads = threads;
    return c;
}

std::map<ksa::Value, ksa::Value> inverse_map(
        const std::vector<ksa::Value>& value_map) {
    std::map<ksa::Value, ksa::Value> inv;
    for (std::size_t v = 1; v < value_map.size(); ++v)
        if (value_map[v] != 0)
            inv[value_map[v]] = static_cast<ksa::Value>(v);
    return inv;
}

std::string render_outcome(const ksa::core::ExploreResult& r,
                           const std::map<ksa::Value, ksa::Value>& inverse) {
    const auto map_value = [&](ksa::Value v) {
        return v == ksa::kNoValue ? v : inverse.at(v);
    };
    std::ostringstream out;
    out << "canonical_states " << r.states_explored << "\n"
        << "expansions " << r.schedules_expanded << "\n"
        << "dedup_hits " << r.dedup_hits << "\n"
        << "por_skips " << r.por_skips << "\n"
        << "exhaustive " << r.exhaustive << "\n"
        << "violation " << r.violation_found << "\n"
        << "witness_steps " << r.witness.size() << "\n"
        << "store_shards " << r.store_shards << "\n"
        << "filter_definite_new " << r.filter_definite_new << "\n"
        << "filter_false_positives " << r.filter_false_positives << "\n"
        << "spilled_records " << r.spilled_records << "\n"
        << "spill_bytes " << r.spill_bytes << "\n"
        << "layer_frontier_sizes";
    for (std::size_t s : r.layer_frontier_sizes) out << " " << s;
    out << "\n";
    std::set<std::vector<ksa::Value>> quiescent;
    for (std::vector<ksa::Value> o : r.quiescent_outcomes) {
        for (ksa::Value& v : o) v = map_value(v);
        quiescent.insert(std::move(o));
    }
    for (const auto& o : quiescent) {
        out << "quiescent";
        for (ksa::Value v : o)
            if (v == ksa::kNoValue)
                out << " _";
            else
                out << " " << v;
        out << "\n";
    }
    std::set<std::set<ksa::Value>> decisions;
    for (const std::set<ksa::Value>& d : r.reachable_decision_sets) {
        std::set<ksa::Value> mapped;
        for (ksa::Value v : d) mapped.insert(map_value(v));
        decisions.insert(std::move(mapped));
    }
    for (const auto& d : decisions) {
        out << "decision_set";
        for (ksa::Value v : d) out << " " << v;
        out << "\n";
    }
    return out.str();
}

}  // namespace ksabench
