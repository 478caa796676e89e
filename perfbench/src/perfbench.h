// Shared declarations of the LACB repository benchmark (see README.md).
//
// Three workloads drive LACB-Opt end to end: two offline horizons through
// core::RunPolicy and one served horizon through serve::AssignmentService.
// Every layer is timed from outside, around calls into its public
// functions; nothing inside the library is instrumented for the benchmark.

#ifndef LACB_PERFBENCH_PERFBENCH_H_
#define LACB_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lacb/lacb.h"
#include "lacb/serve/load_generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// \brief Seconds between two steady-clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// \brief Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory that receives per-run scratch files (checkpoints).
  std::string scratch_dir = ".";
};

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief Everything a run prints as its result line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Correctness violations; the run is correct when this stays empty.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& what) { errors.push_back(what); }
};

/// \brief Steady-clock instant of the process's static initialization,
/// just before main(); set-up time is measured from here.
Clock::time_point ProcessStart();

// --- Workload instances -------------------------------------------------

/// \brief Table-IV City A scaled by 0.2 (1,103 brokers, 20,621 requests,
/// 21 days, batches of 16); the dataset seed is derived from `seed` and
/// `part`, so one benchmark seed can name several instances.
lacb::sim::DatasetConfig CityInstance(uint64_t seed, size_t part);

/// \brief Synthetic Fig. 8 large-|R| instance: 2,000 brokers, σ = 0.1
/// (200 requests per batch), 40,000 requests over 7 days.
lacb::sim::DatasetConfig BigBatchInstance(uint64_t seed, size_t part);

/// \brief LACB-Opt (use_cbs) or plain rectangular LACB with the suite's
/// default configuration for `data`.
lacb::policy::LacbPolicyConfig LacbConfig(const lacb::sim::DatasetConfig& data,
                                          bool use_cbs);

// --- Workloads (each fills `report`) ------------------------------------

/// \brief How often a run repeats its unit (an offline horizon, a served
/// pass): as many units of `unit_seconds` as fit in `seconds`, at least
/// `minimum`. `unit_seconds` is the unit's wall time on the reference
/// machine (README.md), so the count follows from the arguments alone and
/// two builds compared at one --seconds take their fastest repeat over the
/// same number of repeats.
size_t RepeatCount(double seconds, double unit_seconds, size_t minimum);

/// \brief Pins the calling thread to one of the CPUs the process may use:
/// repeat k runs on the k-th of them, modulo their count. On this kind of
/// shared VM one vCPU can run 1.5× slower than the others for tens of
/// seconds, and a single busy thread stays on its CPU; spreading repeats
/// over the CPUs lets each unit's fastest repeat come from an uncontended
/// one. Threads started while pinned inherit the pin.
void PinForRepeat(size_t repeat);

/// \brief Lets the calling thread run on every CPU it was first allowed.
void Unpin();

/// \brief Offline horizons alternate over `instances` (the reported
/// utility is their mean), `repeats` of each.
lacb::Status RunOffline(const Args& args,
                        const std::vector<lacb::sim::DatasetConfig>& instances,
                        size_t repeats, size_t cor1_prefix_days,
                        Report* report);

/// \brief Served passes alternate over `instances` (the reported figures
/// pool them; the traced run uses the first).
lacb::Status RunServed(const Args& args,
                       const std::vector<lacb::sim::DatasetConfig>& instances,
                       Report* report);

}  // namespace perfbench

#endif  // LACB_PERFBENCH_PERFBENCH_H_
