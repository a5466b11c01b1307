#include "store/rematerialize.hpp"

#include <algorithm>
#include <utility>

namespace ksa::store {

Rematerializer::Rematerializer(const Algorithm& algorithm, int n,
                               std::vector<Value> inputs, FailurePlan plan,
                               const DeltaStore& deltas,
                               DigestSendFn digest_send)
    : algorithm_(algorithm),
      n_(n),
      inputs_(std::move(inputs)),
      plan_(std::move(plan)),
      reader_(deltas),
      digest_send_(digest_send) {}

Rematerializer::SpineEntry Rematerializer::make_root() const {
    SpineEntry e;
    e.id = 0;
    e.sys = std::make_unique<System>(algorithm_, n_, inputs_, plan_);
    e.sys->set_recording(false);
    e.marks.assign(static_cast<std::size_t>(n_), BehaviorMark{});
    e.mhash.assign(static_cast<std::size_t>(n_), {});
    for (ProcessId p = 1; p <= n_; ++p)
        for (const Message& m : e.sys->buffer(p))
            e.mhash[p - 1].push_back(digest_send_(m.from, m.payload));
    return e;
}

Rematerializer::SpineEntry Rematerializer::advance(const SpineEntry& from,
                                                   std::uint64_t child_id,
                                                   const DeltaRecord& rec) {
    SpineEntry e;
    e.id = child_id;
    e.sys = from.sys->fork(false);
    const ProcessId stepper = static_cast<ProcessId>(rec.stepper);
    // The delivered-prefix length plus the live parent buffer fully
    // reconstruct the original StepChoice, concrete message ids
    // included (fork() copies the id counter, so replayed ids equal
    // first-run ids).
    e.sys->apply_choice(from.sys->prefix_choice(stepper, rec.delivered));
    ++replay_steps_;

    // Advance the incremental caches exactly the way apply_choice
    // advanced the buffers: only the stepper's behavior changed; the
    // stepper's delivered prefix left its buffer; the step's surviving
    // sends were appended (emission order) to their destinations.
    e.marks = from.marks;
    e.marks[stepper - 1] =
            BehaviorMark{true, behavior_state_hash(e.sys->behavior_of(stepper))};
    e.mhash = from.mhash;
    auto& sm = e.mhash[stepper - 1];
    sm.erase(sm.begin(), sm.begin() + static_cast<std::ptrdiff_t>(rec.delivered));
    for (ProcessId q = 1; q <= n_; ++q) {
        auto& mq = e.mhash[q - 1];
        const auto& b = e.sys->buffer(q);
        require(b.size() >= mq.size(),
                "Rematerializer: cache longer than live buffer");
        for (std::size_t i = mq.size(); i < b.size(); ++i)
            mq.push_back(digest_send_(b[i].from, b[i].payload));
    }
    return e;
}

MaterializedNode Rematerializer::materialize(std::uint64_t id) {
    if (spine_.empty()) spine_.push_back(make_root());
    // Walk the delta chain upward until it meets the spine.  The root
    // (id 0, spine_[0]) terminates the walk unconditionally.
    chain_.clear();
    std::uint64_t cur = id;
    std::size_t meet = 0;
    for (bool found = false; !found;) {
        for (std::size_t j = spine_.size(); j-- > 0;) {
            if (spine_[j].id == cur) {
                meet = j;
                found = true;
                break;
            }
        }
        if (found) break;
        const DeltaRecord rec = reader_.get(cur);
        chain_.emplace_back(cur, rec);
        cur = rec.parent;
    }
    // Keep the shared prefix, replay the divergent suffix.  BFS id
    // locality makes the suffix one or two records in the common case.
    spine_.resize(meet + 1);
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it)
        spine_.push_back(advance(spine_.back(), it->first, it->second));
    const SpineEntry& e = spine_.back();
    return MaterializedNode{e.sys.get(), &e.marks, &e.mhash};
}

std::vector<StepChoice> Rematerializer::script_of(std::uint64_t id) {
    // Root-to-node record path.
    std::vector<DeltaRecord> records;
    for (std::uint64_t cur = id; cur != 0;) {
        const DeltaRecord rec = reader_.get(cur);
        records.push_back(rec);
        cur = rec.parent;
    }
    std::reverse(records.begin(), records.end());
    // Replay on a fresh System, reading concrete message ids back from
    // the live buffers -- the same ids the original run delivered.
    System sys(algorithm_, n_, inputs_, plan_);
    sys.set_recording(false);
    std::vector<StepChoice> script;
    script.reserve(records.size());
    for (const DeltaRecord& rec : records) {
        StepChoice choice = sys.prefix_choice(
                static_cast<ProcessId>(rec.stepper), rec.delivered);
        sys.apply_choice(choice);
        script.push_back(std::move(choice));
    }
    return script;
}

}  // namespace ksa::store
