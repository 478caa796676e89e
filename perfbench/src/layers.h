// Outside-in layer probes: a timing wrapper around the LACB-Opt policy, a
// replay of captured batches through the public matching functions, and a
// replay of a schedule prefix through the simulator's public calls.

#ifndef LACB_PERFBENCH_LAYERS_H_
#define LACB_PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "perfbench.h"

namespace perfbench {

/// \brief One batch as the policy saw it: the predicted utilities and the
/// brokers with residual capacity (B₊).
struct CapturedBatch {
  lacb::la::Matrix utility;
  std::vector<size_t> eligible;
};

/// \brief What the wrapper observed over one horizon.
struct PolicyLedger {
  Clock::time_point initialized_at{};  ///< Initialize returned
  std::vector<double> batch_seconds;  ///< inner AssignBatch, per batch
  std::vector<double> batch_rows;     ///< requests per batch
  std::vector<double> begin_seconds;  ///< inner BeginDay, per day
  std::vector<double> end_seconds;    ///< inner EndDay, per day
  std::vector<double> daily_utility;  ///< DayOutcome::realized_utility
  /// Inner BeginDay + Σ AssignBatch + EndDay, per day: the policy's own
  /// time, without the wrapper's bookkeeping.
  std::vector<double> day_policy_seconds;
  /// BeginDay return → EndDay entry, per day.
  std::vector<double> in_day_seconds;
  /// The wrapper's own work inside AssignBatch (checks, capture), per
  /// day; in_day_seconds includes it.
  std::vector<double> batch_self_seconds;
  uint64_t requests = 0;
  uint64_t brokers_estimated = 0;  ///< Σ over days of brokers estimated
  uint64_t trials_trained = 0;     ///< Σ over days of trials with work
  std::vector<CapturedBatch> captured;
  Violations violations;
};

/// \brief How the wrapper behaves.
struct ProbeOptions {
  /// Verify each batch and day against the platform (offline runs only:
  /// served replicas see stale workload snapshots by design).
  bool check = true;
  /// Capture every `capture_every`-th batch for the matching replay, at
  /// most `capture_limit` of them (0 disables capture).
  size_t capture_every = 0;
  size_t capture_limit = 0;
  /// BeginDay of this day fails with kPrefixDone (0 = never): the Cor. 1
  /// comparison stops a horizon after a prefix of days.
  size_t stop_at_day = 0;
};

/// \brief Message of the status that ends a prefix run.
inline constexpr char kPrefixDone[] = "perfbench: prefix complete";

/// \brief policy::AssignmentPolicy wrapper that times every call into the
/// wrapped LACB policy and checks its outputs.
class ProbePolicy : public lacb::policy::AssignmentPolicy {
 public:
  ProbePolicy(std::unique_ptr<lacb::policy::LacbPolicy> inner,
              ProbeOptions options);

  std::string name() const override { return inner_->name(); }
  lacb::Status Initialize(const lacb::sim::Platform& platform) override;
  lacb::Status BeginDay(const lacb::sim::Platform& platform,
                        size_t day) override;
  lacb::Result<std::vector<int64_t>> AssignBatch(
      const lacb::policy::BatchInput& input) override;
  lacb::Status EndDay(const lacb::sim::DayOutcome& outcome) override;
  lacb::Status SaveState(lacb::persist::ByteWriter* w) const override {
    return inner_->SaveState(w);
  }
  lacb::Status LoadState(lacb::persist::ByteReader* r) override {
    return inner_->LoadState(r);
  }

  const PolicyLedger& ledger() const { return ledger_; }

 private:
  std::unique_ptr<lacb::policy::LacbPolicy> inner_;
  ProbeOptions options_;
  PolicyLedger ledger_;

  // Broker state the platform's EndDay evaluates quality against.
  std::vector<lacb::sim::Broker> brokers_;
  lacb::sim::SignupModel signup_model_;
  // Today's bookkeeping.
  std::vector<double> capacities_;
  std::vector<double> counted_;
  std::vector<Edge> edges_;
  size_t batches_seen_ = 0;
  Clock::time_point day_started_;
};

/// \brief Per-call medians of the matching replay, in microseconds.
struct MatchingReplay {
  double gather_us = 0.0;
  double cbs_us = 0.0;
  double km_pruned_us = 0.0;
  double km_full_us = 0.0;
  double bsuitor_us = 0.0;
  double keep_ratio = 0.0;
  size_t batches = 0;
};

/// \brief Replays captured batches `reps` times each through
/// GatherRefinedColumns, CandidateColumns + RestrictColumns and
/// MaxWeightAssignment (pruned and full) and single-threaded
/// ParallelBMatch, checking Theorem 2 and the ½ bound on every batch.
lacb::Result<MatchingReplay> ReplayMatching(
    const std::vector<CapturedBatch>& batches, size_t reps,
    Violations* violations);

/// \brief Adds the matching.* metrics.
void AddMatchingMetrics(const MatchingReplay& m, Report* report);

/// \brief Simulator layer timings.
struct SimProbe {
  double create_s = 0.0;
  double batch_utility_us = 0.0;
  double commit_us = 0.0;
};

/// \brief Times Platform::Create for `data`, then BatchUtility and
/// CommitAssignment over the first `days` days of its schedule (each batch
/// committed to its per-request best distinct brokers).
lacb::Result<SimProbe> ProbeSim(const lacb::sim::DatasetConfig& data,
                                size_t days);

/// \brief Adds the sim.* metrics.
void AddSimMetrics(const SimProbe& sim, Report* report);

/// \brief Offline layer metrics on `data`: capacity, policy, matching,
/// obs and tracing overhead, from horizons of at most `days` days (0 = all)
/// run until `budget_s` has elapsed. Adds every violation to `report`.
lacb::Status AddOfflineLayerMetrics(const lacb::sim::DatasetConfig& data,
                                    size_t days, double budget_s,
                                    bool capacity_and_policy, Report* report,
                                    std::vector<CapturedBatch>* captured);

}  // namespace perfbench

#endif  // LACB_PERFBENCH_LAYERS_H_
