// Parallel campaign execution.
//
// The Runner flattens the grid into cells x trials independent tasks and
// executes them on the shared work-stealing pool (gdp/common/pool.hpp, also
// backing the explorer's level expansion and the quant sweeps): each worker
// owns a contiguous shard of the task range, pops from its front, and when
// empty steals the back half of the fullest shard. Trials are heavyweight
// (thousands of simulator steps), so a single packed-range CAS per claim is
// all the queue machinery the pool needs.
//
// Determinism: trial seeds depend only on (campaign seed, cell, trial)
// (seeding.hpp) and every outcome is parked at its global task index, then
// folded in index order on one thread — so the CampaignResult is
// bit-identical for any thread count, including 1.
//
// Concurrency discipline (checked by gdp_lint + GDP_THREAD_SAFETY): the
// Runner holds NO capabilities on purpose. Workers share only immutable
// state (spec, plans) and the outcomes vector, where task id = write index
// makes every write disjoint; the fold happens after the pool joins. Any
// future mutable shared state added here must be GDP_GUARDED_BY an
// annotated gdp::common::Mutex (gdp/common/thread_annotations.hpp) — not a
// bare std::mutex, which the static race analysis cannot see through.
#pragma once

#include "gdp/exp/aggregate.hpp"
#include "gdp/exp/campaign.hpp"

namespace gdp::exp {

struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Always
  /// clamped to [1, number of tasks].
  int threads = 0;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Executes the whole grid; throws PreconditionError on an invalid spec
  /// and rethrows the first worker exception (after the pool drains).
  CampaignResult run(const CampaignSpec& spec) const;

  /// The configured thread count (0 = hardware concurrency at run time).
  int threads() const { return options_.threads; }

 private:
  RunnerOptions options_;
};

/// One-call convenience.
CampaignResult run_campaign(const CampaignSpec& spec, int threads = 0);

}  // namespace gdp::exp
