#pragma once
// Per-layer probes of the traced run.  Each probe calls one layer's
// public functions on inputs generated from the workload's seed and
// configuration, wraps the calls in spans and returns the layer's
// metrics.  README.md maps every metric to the end-to-end metric and
// workload it should move.

#include <map>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace ksabench {

using Metrics = std::map<std::string, double>;

/// What the probes may use besides the workload's configuration.
struct ProbeContext {
    const Setup& setup;
    Tracer& tracer;
    int threads = 1;
    std::string spill_dir;
    /// Key stream size of the store probe: distinct keys and duplicates
    /// (the workload's canonical states and dedup hits).
    std::size_t store_keys = 0;
    std::size_t store_dups = 0;
};

/// sim.fork_us, sim.step_norec_us, sim.step_rec_us, sim.fold_state_ns,
/// sim.execute_ms on the workload's configuration.
Metrics probe_sim(ProbeContext& ctx);

/// store.insert_ns_per_key, store.filter_fpr, store.append_ns,
/// store.read_us, store.remat_us, and exec.busy_share / exec.cell_skew of
/// the parallel rematerialization region.
Metrics probe_store(ProbeContext& ctx);

/// exec.region_us: dispatch and join of one empty grained region.
Metrics probe_exec_region(ProbeContext& ctx);

/// chaos.* from seeded crash-model trials of the workload's protocol
/// (the explore workloads, which run no sweep of their own).
Metrics probe_chaos(ProbeContext& ctx);

/// One traced pass of the sweep `c`: the resilience sweep's cell loop
/// rebuilt from the chaos layer's public trial functions, with a span per
/// cell, trial and classification.  Returns chaos.* and exec.* metrics
/// and the wall time of the pass (key "pass_s"); `report` receives the
/// replica's report.
Metrics traced_sweep_pass(Tracer& tracer, const ksa::chaos::SweepConfig& c,
                          ksa::chaos::SweepReport& report);

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// Nearest-rank percentile `p` in [0, 100] of `v`.
double percentile(std::vector<double> v, double p);

}  // namespace ksabench
