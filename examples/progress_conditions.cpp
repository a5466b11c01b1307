// Section IV in practice: classifying protocols by T-independence.
//
// For each protocol in the library, checks which classic progress
// condition families (wait-freedom, obstruction-freedom, f-resilience,
// asymmetric wait-freedom of p1) it is T-independent for, by actually
// constructing the isolation runs of Definition 6.  Then demonstrates
// the bounded schedule explorer: the executable form of "checking
// whether a candidate algorithm allows runs that make k-set agreement
// impossible" (the remark after Theorem 1).

#include <iomanip>
#include <iostream>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "core/explorer.hpp"
#include "core/independence.hpp"
#include "sim/system.hpp"

namespace {

const char* mark(bool b) { return b ? "yes" : " - "; }

bool holds(const ksa::Algorithm& a, int n,
           const std::vector<std::vector<ksa::ProcessId>>& family) {
    return ksa::core::check_family_independence(a, n, ksa::distinct_inputs(n),
                                                {}, family, {}, 400)
        .holds_for_all;
}

}  // namespace

int main() {
    using namespace ksa;
    const int n = 4;

    std::cout << "T-independence of the protocol zoo (n = " << n << ")\n\n";
    std::cout << std::left << std::setw(26) << "protocol" << std::setw(12)
              << "wait-free" << std::setw(14) << "obstr-free" << std::setw(14)
              << "1-resilient" << std::setw(14) << "2-resilient"
              << "asym(p1)\n";

    algo::TrivialWaitFree trivial;
    algo::FloodingKSet flood1(3);  // f = 1
    algo::FloodingKSet flood2(2);  // f = 2
    algo::InitialCliqueKSet flp(3);

    const Algorithm* algos[] = {&trivial, &flood1, &flood2, &flp};
    for (const Algorithm* a : algos) {
        std::cout << std::left << std::setw(26) << a->name() << std::setw(12)
                  << mark(holds(*a, n, core::wait_free_family(n)))
                  << std::setw(14)
                  << mark(holds(*a, n, core::obstruction_free_family(n)))
                  << std::setw(14)
                  << mark(holds(*a, n, core::f_resilient_family(n, 1)))
                  << std::setw(14)
                  << mark(holds(*a, n, core::f_resilient_family(n, 2)))
                  << mark(holds(*a, n, core::asymmetric_family(n, 1))) << "\n";
    }

    std::cout << "\nQuick candidate triage with the schedule explorer:\n";
    std::cout << "  can flooding(threshold 2) on 3 processes be a consensus\n"
              << "  protocol?  Exhaust all schedules:\n";
    core::ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = {10, 20, 30};
    cfg.k = 1;
    cfg.max_depth = 10;
    cfg.reduction = core::ReductionOptions::none();
    core::ExploreResult result = core::explore_schedules(flood2, cfg);
    std::cout << "  " << result.summary() << "\n";
    if (result.violation_found) {
        std::cout << "  => a " << result.witness.size()
                  << "-step schedule already forces two decision values;\n"
                  << "     per the remark after Theorem 1, the candidate is "
                     "flawed.\n";
    }
    return 0;
}
