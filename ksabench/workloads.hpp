#pragma once
// The benchmark workloads: their generated inputs, their library
// configurations and the canonical rendering of their checked outputs.
// README.md in this directory says why each workload exists.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/resilience.hpp"
#include "core/explorer.hpp"
#include "sim/behavior.hpp"

namespace ksabench {

enum class Kind { kExploreVerify, kExploreSymmetric, kSweepCrash };

struct Workload {
    const char* name;
    Kind kind;
    int threads;  ///< fixed worker-thread count of the timed passes
};

/// The workload table; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

inline bool is_explore(Kind k) {
    return k == Kind::kExploreVerify || k == Kind::kExploreSymmetric;
}

/// Frontier RAM ceiling of the explore workloads and the store probe:
/// small enough that explore-verify's delta window spills to disk (the
/// spill path is part of what it measures); explore-symmetric's store
/// stays below it.
inline constexpr std::size_t kFrontierRamBytes = std::size_t(1) << 20;

/// The seed every golden output was recorded with.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// splitmix64 step: the benchmark's only source of generated inputs.
std::uint64_t splitmix(std::uint64_t& state);

/// Everything one workload needs, generated from (workload, seed).  The
/// library sees only the configurations built here.
struct Setup {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    // -- explore-* -------------------------------------------------------
    std::unique_ptr<ksa::Algorithm> algorithm;
    ksa::core::ExploreConfig explore;
    /// value_map[v] is the seeded proposal that replaces value v of the
    /// golden run (index 0 unused): explore-verify permutes the distinct
    /// proposals 1..n, explore-symmetric picks the one uniform proposal.
    std::vector<ksa::Value> value_map;
    // -- sweep-* ---------------------------------------------------------
    ksa::chaos::SweepConfig sweep;
};

/// Builds the configuration of `w` for `seed`.  Spill files go under
/// `spill_dir`.
Setup make_setup(const Workload& w, std::uint64_t seed, int threads,
                 const std::string& spill_dir);

/// The Byzantine sweep of the traced run's chaos probe (not a timed
/// workload; README.md says why): n 2..6, 6000-step limit, two seeds per
/// cell, `base_seed` = seed.
ksa::chaos::SweepConfig byzantine_probe_config(std::uint64_t seed, int threads);

/// The explore workloads' shared protocol: initial clique with L = 4 on
/// n = 5 processes, process 5 initially dead.
std::unique_ptr<ksa::Algorithm> explore_algorithm();

/// Canonical text of an exploration's deterministic outcome, with every
/// proposal value v rewritten to `inverse.at(v)`, so
/// that a seeded run renders exactly like the golden run.  Excludes the
/// timing-dependent counters (steals, replay steps, spill reads) and the
/// sampled resident peak.
std::string render_outcome(const ksa::core::ExploreResult& r,
                           const std::map<ksa::Value, ksa::Value>& inverse);

/// Inverse of Setup::value_map.
std::map<ksa::Value, ksa::Value> inverse_map(
        const std::vector<ksa::Value>& value_map);

}  // namespace ksabench
