// Self-tests of the benchmark's correctness checks: each check must pass
// on consistent outputs and fail on a deliberately broken one.
//
//   python3 perfbench/run.py --self-test

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using perfbench::Edge;
using Clock = std::chrono::steady_clock;

void BatchChecks() {
  const std::vector<double> caps = {3, 3, 3};
  const std::vector<double> work = {0, 1, 2};
  Expect(perfbench::CheckBatchAssignment({0, 1, 2, -1}, caps, work).empty(),
         "distinct eligible brokers pass");
  Expect(!perfbench::CheckBatchAssignment({0, 1, 1}, caps, work).empty(),
         "a broker assigned twice in one batch fails");
  Expect(!perfbench::CheckBatchAssignment({0, 1}, caps, {0, 3, 0}).empty(),
         "a broker at capacity fails");
  Expect(!perfbench::CheckBatchAssignment({7}, caps, work).empty(),
         "an unknown broker fails");
}

void DayChecks() {
  Expect(perfbench::CheckDayWorkloads({1, 2}, {1, 2}, {3, 3}).empty(),
         "matching daily counts pass");
  Expect(!perfbench::CheckDayWorkloads({1, 2}, {1, 3}, {3, 3}).empty(),
         "a count the platform disagrees with fails");
  Expect(!perfbench::CheckDayWorkloads({1, 4}, {1, 4}, {3, 3}).empty(),
         "a count above the capacity estimate fails");
}

void UtilityChecks() {
  const std::vector<Edge> edges = {{0, 0.5}, {1, 0.25}, {1, 0.75}};
  const std::vector<double> workload = {1, 2};
  auto quality = [](size_t b, double w) { return b == 0 ? 1.0 : 0.5 / w; };
  const double realized = 0.5 * 1.0 + 0.25 * 0.25 + 0.75 * 0.25;
  double full = perfbench::RecomputeUtility(edges, workload, quality);
  Expect(perfbench::CheckUtility(full, realized, 1e-9).empty(),
         "recomputed utility matches the realized total");
  std::vector<Edge> short_one(edges.begin(), edges.end() - 1);
  double missing = perfbench::RecomputeUtility(short_one, workload, quality);
  Expect(!perfbench::CheckUtility(missing, realized, 1e-9).empty(),
         "a total off by one request's edge fails");
}

void MatchingChecks() {
  Expect(perfbench::CheckMatchingReplay(10.0, 10.0, 6.0).empty(),
         "equal KM objectives and a b-Suitor above half pass");
  Expect(!perfbench::CheckMatchingReplay(10.0, 9.5, 6.0).empty(),
         "a pruned KM objective below the full one fails");
  Expect(!perfbench::CheckMatchingReplay(10.0, 10.0, 4.0).empty(),
         "b-Suitor below half of the optimum fails");
  Expect(perfbench::CheckSameDailyUtility({1, 2, 3}, {1, 2, 4}, 2).empty(),
         "Cor. 1 compares only the prefix");
  Expect(!perfbench::CheckSameDailyUtility({1, 2.5}, {1, 2}, 2).empty(),
         "differing per-day utility fails Cor. 1");
}

lacb::serve::BatchDisposition Batch(std::vector<int64_t> assigned,
                                    std::vector<int64_t> unmatched = {}) {
  lacb::serve::BatchDisposition d;
  d.assigned = std::move(assigned);
  d.unmatched = std::move(unmatched);
  return d;
}

lacb::serve::ServeStats Stats(uint64_t submitted, uint64_t assigned,
                              uint64_t unmatched) {
  lacb::serve::ServeStats s;
  s.submitted = submitted;
  s.assigned = assigned;
  s.unmatched = unmatched;
  return s;
}

void LedgerChecks() {
  const Clock::time_point t = Clock::now();
  {
    perfbench::DispositionLedger ledger;
    for (int64_t id : {1, 2, 3}) ledger.Expect(id, t);
    ledger.OnDisposition(Batch({1, 2}, {3}), t);
    Expect(ledger.Verify(Stats(3, 2, 1), 2.0).empty(),
           "a complete ledger passes");
    Expect(!ledger.Verify(Stats(3, 2, 1), 3.0).empty(),
           "an assigned count off the per-broker workloads fails");
    Expect(!ledger.Verify(Stats(3, 3, 0), 2.0).empty(),
           "counts that disagree with ServeStats fail");
  }
  {
    perfbench::DispositionLedger ledger;
    for (int64_t id : {1, 2, 3}) ledger.Expect(id, t);
    ledger.OnDisposition(Batch({1, 2}), t);
    Expect(!ledger.Verify(Stats(3, 2, 0), 2.0).empty(),
           "a request id with no disposition fails");
  }
  {
    perfbench::DispositionLedger ledger;
    for (int64_t id : {1, 2}) ledger.Expect(id, t);
    ledger.OnDisposition(Batch({1, 2}), t);
    ledger.OnDisposition(Batch({2}), t);
    Expect(!ledger.Verify(Stats(2, 2, 0), 2.0).empty(),
           "a disposition seen twice fails");
  }
  {
    perfbench::DispositionLedger ledger;
    ledger.Expect(1, t);
    ledger.Shed(1);
    Expect(ledger.Verify(Stats(0, 0, 0), 0.0).empty() && ledger.shed() == 1,
           "a shed request needs no disposition");
  }
}

}  // namespace

int main() {
  BatchChecks();
  DayChecks();
  UtilityChecks();
  MatchingChecks();
  LedgerChecks();
  std::printf("%s: %d check(s) failed\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
