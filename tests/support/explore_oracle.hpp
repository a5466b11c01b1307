#pragma once
// The explorer's test oracle: an independent, deliberately simple
// implementation of the bounded schedule search of core/explorer.hpp.
//
// Every frontier entry is a schedule script; every expansion replays
// the script on a fresh System, and every candidate is keyed by a
// canonical STRING rendering of its configuration -- crash flags,
// decisions, buffered `sender:payload` pairs -- plus behavior digests
// recovered the slow way: replay the candidate's script and finish() a
// throwaway copy to read StepRecord::digest_after out of the Run.  No
// snapshots, no ghost steps, no 128-bit hashes, no out-of-core store,
// no reduction layer: it shares none of the engine's keying machinery,
// and that independence is its whole value.  The layer table
// (src/lint/layers.def) keeps it that way: this directory may not
// include sim/digest.hpp, store/ or core/reduction*.hpp.
//
// explore_oracle(a, cfg) must equal explore_schedules(a, cfg) run with
// cfg.reduction = ReductionOptions::none() on every deterministic field
// (counts, exhaustiveness, witness step for step, outcomes, decision
// sets).  It ignores cfg.threads, cfg.store, cfg.reduction and
// cfg.mode, runs single-threaded and leaves every observability field
// of the result zero.  Its cost is quadratic in depth: keep cases small.

#include "core/explorer.hpp"

namespace ksa::oracle {

/// Runs the replay-based reference exploration for `algorithm` under
/// `cfg` (see the file comment).
core::ExploreResult explore_oracle(const Algorithm& algorithm,
                                   const core::ExploreConfig& cfg);

}  // namespace ksa::oracle
