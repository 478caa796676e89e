// Served passes: LACB-Opt behind serve::AssignmentService, fed by the
// benchmark's own open-loop generator and observed through the service's
// public calls and its disposition sink.

#ifndef LACB_PERFBENCH_SERVED_H_
#define LACB_PERFBENCH_SERVED_H_

#include <string>
#include <vector>

#include "layers.h"
#include "perfbench.h"

namespace perfbench {

/// \brief Offered rate of the open-loop days, in requests per second:
/// about 40 % of the free-run saturated throughput measured in a slow
/// period of the reference machine (README.md), so queueing and solve time
/// show in request latency and no backlog builds up.
inline constexpr double kServedRate = 5000.0;

/// \brief Shape of one served pass.
struct ServedPassConfig {
  /// Days [0, fixed_days) are driven open-loop at `rate` requests/s;
  /// later days up to `days` are pumped free-run.
  size_t fixed_days = 0;
  size_t days = 0;
  double rate = 0.0;
  /// Submit at most this many requests per day (0 = the whole day).
  size_t day_request_limit = 0;
  uint64_t arrival_seed = 1;
  /// Persistence on (checkpoints + fsynced WAL in a fresh directory).
  bool persist = true;
  /// Wrap each replica in a ProbePolicy (traced runs only).
  bool wrap = false;
  /// Index of this pass among the run's repeats (PinForRepeat).
  size_t repeat = 0;
};

/// \brief What one served pass measured.
struct ServedPass {
  double setup_s = 0.0;  ///< process start → Start() returned
  std::vector<double> latency_ms;        ///< fixed-rate requests
  std::vector<double> batch_latency_ms;  ///< fixed-rate batches
  std::vector<double> batch_sizes;       ///< every disposed batch
  std::vector<double> open_ms, close_ms, drain_ms, rollover_ms;
  std::vector<double> submit_us;  ///< Submit() call time, fixed-rate days
  std::vector<double> late_ms;    ///< generator lateness, fixed-rate days
  double free_requests = 0.0;
  double free_seconds = 0.0;
  double utility = 0.0;
  std::vector<double> day_policy_s;  ///< service policy time per day
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  /// Ledgers of the wrapped replicas (empty unless `wrap`).
  std::vector<PolicyLedger> replicas;
  Violations violations;
};

/// \brief Runs one served pass over a fresh service with two workers.
lacb::Result<ServedPass> RunServedPass(const Args& args,
                                       const lacb::sim::DatasetConfig& data,
                                       const ServedPassConfig& config);

/// \brief serve.* and persist.* metrics from a pass with persistence and
/// the same pass without it.
void AddServeLayerMetrics(const ServedPass& with_persist,
                          const ServedPass& without_persist, Report* report);

}  // namespace perfbench

#endif  // LACB_PERFBENCH_SERVED_H_
