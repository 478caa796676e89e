// Correctness checks of the benchmark. Each returns the violations it
// found (empty when the outputs are right), so the self-tests can feed
// deliberately broken inputs and see every check fail.

#ifndef LACB_PERFBENCH_CHECKS_H_
#define LACB_PERFBENCH_CHECKS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lacb/serve/service.h"

namespace perfbench {

using Violations = std::vector<std::string>;

/// \brief One committed (broker, predicted utility) edge as the benchmark
/// captured it from the policy's batch output.
struct Edge {
  size_t broker = 0;
  double utility = 0.0;
};

/// \brief One batch's output: every assigned broker was eligible
/// (workload < capacity estimate) and appears at most once.
Violations CheckBatchAssignment(const std::vector<int64_t>& assignment,
                                const std::vector<double>& capacities,
                                const std::vector<double>& workloads);

/// \brief The benchmark's own per-broker daily counts equal the platform's
/// DayOutcome::per_broker_workload and never exceed the capacity estimate.
Violations CheckDayWorkloads(const std::vector<double>& counted,
                             const std::vector<double>& per_broker_workload,
                             const std::vector<double>& capacities);

/// \brief Σ u(r,b)·quality(b, w_b) over the captured edges, with w_b the
/// broker's final daily workload.
double RecomputeUtility(const std::vector<Edge>& edges,
                        const std::vector<double>& final_workload,
                        const std::function<double(size_t, double)>& quality);

/// \brief `recomputed` equals `realized` to within `rel_tol` relative.
Violations CheckUtility(double recomputed, double realized, double rel_tol);

/// \brief Theorem 2: KM on the CBS-pruned matrix reaches the objective of
/// KM on the full eligible matrix; b-Suitor reaches at least half of it.
Violations CheckMatchingReplay(double km_full, double km_pruned,
                               double bsuitor);

/// \brief Cor. 1: plain LACB and LACB-Opt realize the same per-day
/// utility over the compared prefix.
Violations CheckSameDailyUtility(const std::vector<double>& lacb,
                                 const std::vector<double>& lacb_opt,
                                 size_t prefix_days);

/// \brief The benchmark's own ledger of a served run: when each request
/// was due, and its terminal disposition as reported through
/// ServeOptions::disposition_sink. Thread-safe.
class DispositionLedger {
 public:
  using Clock = std::chrono::steady_clock;

  /// \brief Registers a request before it is submitted.
  void Expect(int64_t id, Clock::time_point due);
  /// \brief Marks a registered request as refused at admission.
  void Shed(int64_t id);
  /// \brief Records one batch disposition observed at `now`.
  void OnDisposition(const lacb::serve::BatchDisposition& d,
                     Clock::time_point now);

  /// \brief Every accepted id has exactly one terminal disposition, the
  /// ledger's counts equal `stats`, and the assigned count equals
  /// `assigned_workload` (Σ per_broker_workload over the days).
  Violations Verify(const lacb::serve::ServeStats& stats,
                    double assigned_workload) const;

  /// \brief Due→disposition latency of every terminally disposed request
  /// in milliseconds, in disposition order.
  std::vector<double> LatenciesMs() const;
  /// \brief Per disposed batch: milliseconds from its earliest due time
  /// to its disposition, and its size.
  std::vector<double> BatchLatenciesMs() const;
  std::vector<double> BatchSizes() const;

  uint64_t accepted() const;
  uint64_t shed() const;

 private:
  enum class Fate : uint8_t { kPending, kAssigned, kUnmatched, kFailed,
                              kDropped, kShed };
  struct Entry {
    Clock::time_point due;
    Fate fate = Fate::kPending;
  };

  void Terminal(int64_t id, Fate fate, Clock::time_point now,
                Clock::time_point* earliest_due);

  mutable std::mutex mu_;
  std::unordered_map<int64_t, Entry> entries_;
  std::vector<double> latencies_ms_;
  std::vector<double> batch_latencies_ms_;
  std::vector<double> batch_sizes_;
  Violations violations_;
};

}  // namespace perfbench

#endif  // LACB_PERFBENCH_CHECKS_H_
