#include "core/valence.hpp"

#include <sstream>

namespace ksa::core {

ValenceResult classify_valence(const Algorithm& algorithm, int n,
                               const std::vector<Value>& inputs,
                               const std::vector<FailurePlan>& plans,
                               int max_depth, std::size_t max_states) {
    require(!plans.empty(), "classify_valence: need at least one plan");
    ValenceResult result;
    for (const FailurePlan& plan : plans) {
        ExploreConfig cfg;
        cfg.n = n;
        cfg.inputs = inputs;
        cfg.plan = plan;
        cfg.k = n;  // we are not hunting violations here
        cfg.max_depth = max_depth;
        cfg.max_states = max_states;
        cfg.reduction = ReductionOptions::none();
        ExploreResult explored = explore_schedules(algorithm, cfg);
        if (!explored.exhaustive) result.exhaustive = false;
        for (const std::vector<Value>& outcome : explored.quiescent_outcomes)
            for (Value v : outcome)
                if (v != kNoValue) result.reachable.insert(v);
    }
    return result;
}

std::vector<FailurePlan> one_crash_plans(int n) {
    std::vector<FailurePlan> plans(1);  // the crash-free plan
    for (ProcessId p = 1; p <= n; ++p) {
        FailurePlan plan;
        plan.set_initially_dead(p);
        plans.push_back(plan);
    }
    return plans;
}

std::string BivalenceSweep::summary() const {
    std::ostringstream out;
    out << bivalent << "/" << total << " binary input vectors bivalent"
        << (exhaustive ? "" : " (some explorations truncated)");
    return out.str();
}

BivalenceSweep binary_input_sweep(const Algorithm& algorithm, int n,
                                  const std::vector<FailurePlan>& plans,
                                  int max_depth) {
    require(n >= 1 && n <= 16, "binary_input_sweep: n out of range");
    BivalenceSweep sweep;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
        std::vector<Value> inputs(n);
        for (int i = 0; i < n; ++i) inputs[i] = (mask >> i) & 1u;
        ValenceResult v =
            classify_valence(algorithm, n, inputs, plans, max_depth);
        ++sweep.total;
        if (v.bivalent()) ++sweep.bivalent;
        if (!v.exhaustive) sweep.exhaustive = false;
        sweep.rows.emplace_back(std::move(inputs), std::move(v));
    }
    return sweep;
}

}  // namespace ksa::core
