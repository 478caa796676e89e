#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

namespace perfbench {

namespace {

template <typename... Parts>
std::string Describe(const Parts&... parts) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << parts);
  return os.str();
}

}  // namespace

Violations CheckBatchAssignment(const std::vector<int64_t>& assignment,
                                const std::vector<double>& capacities,
                                const std::vector<double>& workloads) {
  Violations out;
  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < assignment.size(); ++i) {
    int64_t b = assignment[i];
    if (b < 0) continue;
    size_t ub = static_cast<size_t>(b);
    if (ub >= capacities.size() || ub >= workloads.size()) {
      out.push_back(Describe("request ", i, " assigned to unknown broker ", b));
      continue;
    }
    if (!(workloads[ub] < capacities[ub])) {
      out.push_back(Describe("broker ", b, " assigned at workload ",
                             workloads[ub], " >= capacity ", capacities[ub]));
    }
    if (!seen.insert(b).second) {
      out.push_back(Describe("broker ", b, " assigned twice in one batch"));
    }
  }
  return out;
}

Violations CheckDayWorkloads(const std::vector<double>& counted,
                             const std::vector<double>& per_broker_workload,
                             const std::vector<double>& capacities) {
  Violations out;
  if (counted.size() != per_broker_workload.size()) {
    out.push_back(Describe("counted ", counted.size(),
                           " brokers, platform reports ",
                           per_broker_workload.size()));
    return out;
  }
  for (size_t b = 0; b < counted.size(); ++b) {
    if (counted[b] != per_broker_workload[b]) {
      out.push_back(Describe("broker ", b, " served ", per_broker_workload[b],
                             " by the platform, ", counted[b], " counted"));
    }
    if (b < capacities.size() && counted[b] > capacities[b]) {
      out.push_back(Describe("broker ", b, " served ", counted[b],
                             " > capacity estimate ", capacities[b]));
    }
  }
  return out;
}

double RecomputeUtility(const std::vector<Edge>& edges,
                        const std::vector<double>& final_workload,
                        const std::function<double(size_t, double)>& quality) {
  double total = 0.0;
  for (const Edge& e : edges) {
    double w = e.broker < final_workload.size() ? final_workload[e.broker]
                                                : 0.0;
    total += e.utility * quality(e.broker, w);
  }
  return total;
}

Violations CheckUtility(double recomputed, double realized, double rel_tol) {
  double scale = std::max({1e-12, std::abs(recomputed), std::abs(realized)});
  if (std::abs(recomputed - realized) <= rel_tol * scale) return {};
  return {Describe("recomputed utility ", recomputed,
                   " != realized utility ", realized)};
}

Violations CheckMatchingReplay(double km_full, double km_pruned,
                               double bsuitor) {
  Violations out;
  double scale = std::max(1.0, std::abs(km_full));
  if (std::abs(km_full - km_pruned) > 1e-9 * scale) {
    out.push_back(Describe("KM on the CBS-pruned matrix reached ", km_pruned,
                           ", on the full eligible matrix ", km_full));
  }
  // b-Suitor accumulates float32 scores; allow their rounding.
  if (bsuitor < 0.5 * km_full - 1e-5 * scale) {
    out.push_back(Describe("b-Suitor reached ", bsuitor, " < half of ",
                           km_full));
  }
  return out;
}

Violations CheckSameDailyUtility(const std::vector<double>& lacb,
                                 const std::vector<double>& lacb_opt,
                                 size_t prefix_days) {
  Violations out;
  if (lacb.size() < prefix_days || lacb_opt.size() < prefix_days) {
    out.push_back(Describe("Cor. 1 prefix needs ", prefix_days,
                           " days, have ", lacb.size(), " and ",
                           lacb_opt.size()));
    return out;
  }
  for (size_t d = 0; d < prefix_days; ++d) {
    if (lacb[d] != lacb_opt[d]) {
      out.push_back(Describe("day ", d, ": LACB utility ", lacb[d],
                             " != LACB-Opt utility ", lacb_opt[d]));
    }
  }
  return out;
}

void DispositionLedger::Expect(int64_t id, Clock::time_point due) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(id, Entry{due, Fate::kPending});
  if (!inserted) violations_.push_back(Describe("request ", id, " submitted twice"));
}

void DispositionLedger::Shed(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end() || it->second.fate != Fate::kPending) {
    violations_.push_back(Describe("shed of unknown or disposed request ", id));
    return;
  }
  it->second.fate = Fate::kShed;
}

void DispositionLedger::Terminal(int64_t id, Fate fate, Clock::time_point now,
                                 Clock::time_point* earliest_due) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    violations_.push_back(Describe("disposition of unknown request ", id));
    return;
  }
  if (it->second.fate != Fate::kPending) {
    violations_.push_back(Describe("request ", id, " disposed twice"));
    return;
  }
  it->second.fate = fate;
  latencies_ms_.push_back(
      std::chrono::duration<double, std::milli>(now - it->second.due).count());
  *earliest_due = std::min(*earliest_due, it->second.due);
}

void DispositionLedger::OnDisposition(const lacb::serve::BatchDisposition& d,
                                      Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  Clock::time_point earliest = Clock::time_point::max();
  for (int64_t id : d.assigned) Terminal(id, Fate::kAssigned, now, &earliest);
  for (int64_t id : d.unmatched) Terminal(id, Fate::kUnmatched, now, &earliest);
  for (int64_t id : d.failed) Terminal(id, Fate::kFailed, now, &earliest);
  for (int64_t id : d.dropped) Terminal(id, Fate::kDropped, now, &earliest);
  size_t terminal = d.assigned.size() + d.unmatched.size() + d.failed.size() +
                    d.dropped.size();
  if (terminal > 0 && earliest != Clock::time_point::max()) {
    batch_latencies_ms_.push_back(
        std::chrono::duration<double, std::milli>(now - earliest).count());
    batch_sizes_.push_back(static_cast<double>(terminal));
  }
}

Violations DispositionLedger::Verify(const lacb::serve::ServeStats& stats,
                                     double assigned_workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  Violations out = violations_;
  uint64_t accepted = 0, assigned = 0, unmatched = 0, failed = 0, dropped = 0;
  for (const auto& [id, e] : entries_) {
    switch (e.fate) {
      case Fate::kPending:
        out.push_back(Describe("request ", id, " has no disposition"));
        ++accepted;
        break;
      case Fate::kAssigned: ++assigned; ++accepted; break;
      case Fate::kUnmatched: ++unmatched; ++accepted; break;
      case Fate::kFailed: ++failed; ++accepted; break;
      case Fate::kDropped: ++dropped; ++accepted; break;
      case Fate::kShed: break;
    }
  }
  if (stats.submitted != stats.assigned + stats.unmatched + stats.failed +
                             stats.dropped_appeals) {
    out.push_back(Describe("ServeStats does not conserve: submitted ",
                           stats.submitted, " != assigned ", stats.assigned,
                           " + unmatched ", stats.unmatched, " + failed ",
                           stats.failed, " + dropped ", stats.dropped_appeals));
  }
  if (accepted != stats.submitted || assigned != stats.assigned ||
      unmatched != stats.unmatched || failed != stats.failed ||
      dropped != stats.dropped_appeals) {
    out.push_back(Describe("ledger (accepted ", accepted, ", assigned ",
                           assigned, ", unmatched ", unmatched, ", failed ",
                           failed, ", dropped ", dropped,
                           ") disagrees with ServeStats (submitted ",
                           stats.submitted, ", assigned ", stats.assigned,
                           ", unmatched ", stats.unmatched, ", failed ",
                           stats.failed, ", dropped ", stats.dropped_appeals,
                           ")"));
  }
  if (static_cast<double>(assigned) != assigned_workload) {
    out.push_back(Describe("ledger assigned ", assigned,
                           " != sum of per-broker workloads ",
                           assigned_workload));
  }
  return out;
}

std::vector<double> DispositionLedger::LatenciesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latencies_ms_;
}

std::vector<double> DispositionLedger::BatchLatenciesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_latencies_ms_;
}

std::vector<double> DispositionLedger::BatchSizes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_sizes_;
}

uint64_t DispositionLedger::accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [id, e] : entries_) n += e.fate != Fate::kShed;
  return n;
}

uint64_t DispositionLedger::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [id, e] : entries_) n += e.fate == Fate::kShed;
  return n;
}

}  // namespace perfbench
