// ksa_cli -- command-line frontend over the library.
//
//   ksa_cli run --algo <name> --n <n> [--f <f>] [--scheduler rr|random|
//           lockstep] [--seed <s>] [--dead p1,p2,...] [--k <k>] [--trace]
//       executes one run and validates it against the k-set spec;
//   ksa_cli theorem2 --n <n> --f <f> --k <k>
//       runs the Theorem 2 certification against the flooding candidate;
//   ksa_cli theorem10 --n <n> --k <k>
//       runs the Theorem 10 construction against the (Sigma_k, Omega_k)
//       candidate, including the Lemma 9 history re-validation;
//   ksa_cli border --n <n>
//       prints the solvability map;
//   ksa_cli explore --algo <name> --n <n> --k <k> [--depth <d>]
//       exhausts all schedules up to the bound and reports violations;
//   ksa_cli dump --algo <name> --n <n> [--seed <s>]
//       executes a run and prints it in the KSARUN serialization format;
//   ksa_cli dot --algo <name> --n <n> [--seed <s>] [--trace]
//       executes a run and prints its Graphviz space-time diagram
//       (--trace adds state digests to the nodes).
//
// theorem2/theorem10 accept --report for a markdown proof transcript.
//
// Algorithms: flooding (threshold n-f), flp (initial-clique, L = n-f),
// trivial, paxos (needs no flags beyond n), ranked.

#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "algo/paxos_consensus.hpp"
#include "algo/quorum_leader_kset.hpp"
#include "algo/ranked_set_agreement.hpp"
#include "core/border_map.hpp"
#include "core/explorer.hpp"
#include "core/kset_spec.hpp"
#include "core/report.hpp"
#include "core/theorem10.hpp"
#include "core/theorem2.hpp"
#include "fd/sources.hpp"
#include "sim/dot_export.hpp"
#include "sim/schedulers.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace {

using namespace ksa;

struct Args {
    std::string command;
    std::map<std::string, std::string> flags;
    bool has(const std::string& key) const { return flags.count(key) != 0; }
    std::string get(const std::string& key, const std::string& fallback) const {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }
    int geti(const std::string& key, int fallback) const {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : std::stoi(it->second);
    }
};

Args parse(int argc, char** argv) {
    Args args;
    if (argc >= 2) args.command = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) == 0) key = key.substr(2);
        args.flags[key] = argv[i + 1];
    }
    // Boolean flags (no value) -- handled by rescanning.
    for (int i = 2; i < argc; ++i) {
        std::string key = argv[i];
        if (key == "--trace") args.flags["trace"] = "1";
        if (key == "--report") args.flags["report"] = "1";
    }
    return args;
}

std::vector<ProcessId> parse_ids(const std::string& csv) {
    std::vector<ProcessId> out;
    std::istringstream in(csv);
    std::string tok;
    while (std::getline(in, tok, ','))
        if (!tok.empty()) out.push_back(std::stoi(tok));
    return out;
}

std::unique_ptr<Algorithm> make_algorithm(const Args& args, int n, int f) {
    const std::string name = args.get("algo", "flooding");
    if (name == "flooding") return algo::make_flooding(n, f);
    if (name == "flp") return algo::make_flp_kset(n, f);
    if (name == "trivial") return std::make_unique<algo::TrivialWaitFree>();
    if (name == "paxos") return std::make_unique<algo::PaxosConsensus>();
    if (name == "ranked")
        return std::make_unique<algo::RankedSetAgreement>();
    throw UsageError("unknown --algo '" + name +
                     "' (flooding|flp|trivial|paxos|ranked)");
}

int cmd_run(const Args& args) {
    const int n = args.geti("n", 5);
    const int f = args.geti("f", 1);
    const int k = args.geti("k", 1);
    auto algorithm = make_algorithm(args, n, f);

    FailurePlan plan;
    if (args.has("dead")) plan.set_initially_dead(parse_ids(args.flags.at("dead")));

    std::unique_ptr<FdOracle> oracle;
    if (algorithm->needs_failure_detector()) {
        ProcessId leader = 0;
        for (ProcessId p = 1; p <= n && leader == 0; ++p)
            if (!plan.is_faulty(p)) leader = p;
        oracle = fd::make_benign_sigma_omega(n, plan, {leader});
    }

    std::unique_ptr<Scheduler> scheduler;
    const std::string sched_name = args.get("scheduler", "rr");
    if (sched_name == "rr")
        scheduler = std::make_unique<RoundRobinScheduler>();
    else if (sched_name == "random")
        scheduler = std::make_unique<RandomScheduler>(args.geti("seed", 1));
    else if (sched_name == "lockstep")
        scheduler = std::make_unique<LockstepScheduler>();
    else
        throw UsageError("unknown --scheduler (rr|random|lockstep)");

    Run run = execute_run(*algorithm, n, distinct_inputs(n), plan, *scheduler,
                          oracle.get());
    if (args.has("trace")) print_trace(std::cout, run);
    std::cout << run_summary(run) << "\n";
    auto check = core::check_kset_agreement(run, k);
    std::cout << "k-set spec (k=" << k << "): "
              << (check.ok() ? "satisfied" : "VIOLATED") << "\n";
    for (const auto& v : check.violations) std::cout << "  " << v << "\n";
    return check.ok() ? 0 : 2;
}

int cmd_theorem2(const Args& args) {
    const int n = args.geti("n", 7);
    const int f = args.geti("f", 4);
    const int k = args.geti("k", 2);
    algo::FloodingKSet candidate(n - f);
    core::Theorem2Result r = core::run_theorem2(candidate, n, f, k);
    if (args.has("report")) {
        std::cout << core::render_report(r);
    } else {
        std::cout << r.summary() << "\n";
        if (r.certificate.violation) {
            std::cout << "violating run:\n";
            print_trace(std::cout, r.certificate.violating);
        }
    }
    return r.certificate.complete() ? 0 : 2;
}

int cmd_theorem10(const Args& args) {
    const int n = args.geti("n", 6);
    const int k = args.geti("k", 3);
    algo::QuorumLeaderKSet candidate;
    core::Theorem10Result r = core::run_theorem10(candidate, n, k);
    if (args.has("report"))
        std::cout << core::render_report(r);
    else
        std::cout << r.summary() << "\n";
    return r.certificate.complete() && r.sigma_omega_validation.ok ? 0 : 2;
}

int cmd_border(const Args& args) {
    const int n = args.geti("n", 8);
    std::cout << "k = 1.." << n - 1 << "; S solvable, X impossible (easy "
              << "reduction), x topology-only\n";
    std::cout << "(Sigma_k,Omega_k): " << core::detector_line(n) << "\n";
    for (const core::BorderRow& row : core::border_map(n))
        std::cout << "f=" << row.f << "  initial:" << row.initial
                  << "  async:" << row.async_ << "\n";
    return 0;
}

int cmd_explore(const Args& args) {
    const int n = args.geti("n", 3);
    const int f = args.geti("f", 1);
    auto algorithm = make_algorithm(args, n, f);
    core::ExploreConfig cfg;
    cfg.n = n;
    cfg.inputs = distinct_inputs(n);
    cfg.k = args.geti("k", 1);
    cfg.max_depth = args.geti("depth", 10);
    if (args.has("dead")) cfg.plan.set_initially_dead(parse_ids(args.flags.at("dead")));
    cfg.reduction = core::ReductionOptions::none();
    core::ExploreResult r = core::explore_schedules(*algorithm, cfg);
    std::cout << r.summary() << "\n";
    if (r.violation_found) {
        ScriptedScheduler replay(r.witness);
        Run run = execute_run(*algorithm, n, cfg.inputs, cfg.plan, replay);
        print_trace(std::cout, run);
    }
    return 0;
}

int cmd_dot(const Args& args) {
    const int n = args.geti("n", 4);
    const int f = args.geti("f", 1);
    auto algorithm = make_algorithm(args, n, f);
    RandomScheduler sched(args.geti("seed", 1));
    Run run = execute_run(*algorithm, n, distinct_inputs(n), {}, sched);
    DotOptions options;
    options.show_digests = args.has("trace");
    run_to_dot(std::cout, run, options);
    return 0;
}

int cmd_dump(const Args& args) {
    const int n = args.geti("n", 4);
    const int f = args.geti("f", 1);
    auto algorithm = make_algorithm(args, n, f);
    RandomScheduler sched(args.geti("seed", 1));
    Run run = execute_run(*algorithm, n, distinct_inputs(n), {}, sched);
    write_run(std::cout, run);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        Args args = parse(argc, argv);
        if (args.command == "run") return cmd_run(args);
        if (args.command == "theorem2") return cmd_theorem2(args);
        if (args.command == "theorem10") return cmd_theorem10(args);
        if (args.command == "border") return cmd_border(args);
        if (args.command == "explore") return cmd_explore(args);
        if (args.command == "dump") return cmd_dump(args);
        if (args.command == "dot") return cmd_dot(args);
        std::cerr << "usage: ksa_cli "
                     "run|theorem2|theorem10|border|explore|dump|dot [flags]\n"
                     "(see the comment at the top of examples/ksa_cli.cpp)\n";
        return 1;
    } catch (const ksa::Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
