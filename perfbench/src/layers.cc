#include "layers.h"

#include <algorithm>
#include <utility>

#include "stats.h"

namespace perfbench {

namespace lp = lacb::policy;
namespace lm = lacb::matching;

ProbePolicy::ProbePolicy(std::unique_ptr<lp::LacbPolicy> inner,
                         ProbeOptions options)
    : inner_(std::move(inner)), options_(options) {}

lacb::Status ProbePolicy::Initialize(const lacb::sim::Platform& platform) {
  LACB_RETURN_NOT_OK(inner_->Initialize(platform));
  brokers_ = platform.brokers();
  signup_model_ = platform.signup_model();
  ledger_.initialized_at = Clock::now();
  return lacb::Status::OK();
}

lacb::Status ProbePolicy::BeginDay(const lacb::sim::Platform& platform,
                                   size_t day) {
  if (options_.stop_at_day != 0 && day >= options_.stop_at_day) {
    return lacb::Status::OutOfRange(kPrefixDone);
  }
  Clock::time_point t0 = Clock::now();
  lacb::Status st = inner_->BeginDay(platform, day);
  const double begin = Seconds(t0, Clock::now());
  ledger_.begin_seconds.push_back(begin);
  ledger_.day_policy_seconds.push_back(begin);
  LACB_RETURN_NOT_OK(st);
  const size_t n = platform.num_brokers();
  ledger_.brokers_estimated += n;
  // The quality law reads the trailing workload, which the platform rolls
  // forward only after it has evaluated the day.
  for (size_t b = 0; b < n && b < brokers_.size(); ++b) {
    brokers_[b].recent_workload = platform.brokers()[b].recent_workload;
  }
  capacities_ = inner_->capacities();
  counted_.assign(n, 0.0);
  edges_.clear();
  ledger_.batch_self_seconds.push_back(0.0);
  day_started_ = Clock::now();
  return lacb::Status::OK();
}

lacb::Result<std::vector<int64_t>> ProbePolicy::AssignBatch(
    const lp::BatchInput& input) {
  Clock::time_point t0 = Clock::now();
  lacb::Result<std::vector<int64_t>> out = inner_->AssignBatch(input);
  const Clock::time_point t1 = Clock::now();
  const double inner = Seconds(t0, t1);
  ledger_.batch_seconds.push_back(inner);
  if (!ledger_.day_policy_seconds.empty()) {
    ledger_.day_policy_seconds.back() += inner;
  }
  if (!out.ok()) return out;
  const lacb::la::Matrix& u = *input.utility;
  const std::vector<double>& w = *input.workloads;
  const std::vector<double>& caps = inner_->capacities();
  ledger_.requests += u.rows();
  ledger_.batch_rows.push_back(static_cast<double>(u.rows()));
  if (options_.capture_every != 0 &&
      batches_seen_ % options_.capture_every == 0 &&
      ledger_.captured.size() < options_.capture_limit) {
    CapturedBatch batch;
    batch.utility = u;
    for (size_t c = 0; c < u.cols() && c < caps.size(); ++c) {
      if (w[c] < caps[c]) batch.eligible.push_back(c);
    }
    ledger_.captured.push_back(std::move(batch));
  }
  ++batches_seen_;
  if (options_.check) {
    const std::vector<int64_t>& a = out.value();
    Violations v = CheckBatchAssignment(a, caps, w);
    ledger_.violations.insert(ledger_.violations.end(), v.begin(), v.end());
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r] < 0 || static_cast<size_t>(a[r]) >= counted_.size()) continue;
      size_t b = static_cast<size_t>(a[r]);
      counted_[b] += 1.0;
      edges_.push_back(Edge{b, u(r, b)});
    }
  }
  if (!ledger_.batch_self_seconds.empty()) {
    ledger_.batch_self_seconds.back() += Seconds(t1, Clock::now());
  }
  return out;
}

lacb::Status ProbePolicy::EndDay(const lacb::sim::DayOutcome& outcome) {
  ledger_.in_day_seconds.push_back(Seconds(day_started_, Clock::now()));
  if (options_.check) {
    Violations v = CheckDayWorkloads(counted_, outcome.per_broker_workload,
                                     capacities_);
    double recomputed = RecomputeUtility(
        edges_, outcome.per_broker_workload, [&](size_t b, double wb) {
          return signup_model_.QualityFactor(brokers_[b], wb);
        });
    Violations u = CheckUtility(recomputed, outcome.realized_utility, 1e-9);
    v.insert(v.end(), u.begin(), u.end());
    ledger_.violations.insert(ledger_.violations.end(), v.begin(), v.end());
  }
  ledger_.daily_utility.push_back(outcome.realized_utility);
  for (const lacb::sim::TrialTriple& t : outcome.trials) {
    ledger_.trials_trained += t.workload > 0.0;
  }
  Clock::time_point t0 = Clock::now();
  lacb::Status st = inner_->EndDay(outcome);
  const double end = Seconds(t0, Clock::now());
  ledger_.end_seconds.push_back(end);
  if (!ledger_.day_policy_seconds.empty()) {
    ledger_.day_policy_seconds.back() += end;
  }
  return st;
}

lacb::Result<MatchingReplay> ReplayMatching(
    const std::vector<CapturedBatch>& batches, size_t reps,
    Violations* violations) {
  std::vector<double> gather, cbs, km_pruned, km_full, bsuitor, keep;
  for (const CapturedBatch& batch : batches) {
    const size_t rows = batch.utility.rows();
    // CBS only runs when B₊ outnumbers the batch (Alg. 3's regime).
    if (rows == 0 || batch.eligible.size() <= rows) continue;
    std::vector<double> deltas(batch.eligible.size(), 0.0);
    std::vector<int64_t> caps(batch.eligible.size(), 1);
    lm::approx::BMatchOptions bm_opts;
    bm_opts.num_threads = 1;
    std::vector<double> g, c, kp, kf, bs;
    for (size_t rep = 0; rep < reps; ++rep) {
      lacb::la::Matrix refined;
      Clock::time_point t0 = Clock::now();
      LACB_RETURN_NOT_OK(lm::approx::GatherRefinedColumns(
          batch.utility, batch.eligible, deltas, &refined));
      Clock::time_point t1 = Clock::now();
      lacb::Rng rng(7);
      LACB_ASSIGN_OR_RETURN(std::vector<size_t> active,
                            lm::CandidateColumns(refined, &rng));
      LACB_ASSIGN_OR_RETURN(lacb::la::Matrix pruned,
                            lm::RestrictColumns(refined, active));
      Clock::time_point t2 = Clock::now();
      LACB_ASSIGN_OR_RETURN(lm::Assignment ap, lm::MaxWeightAssignment(pruned));
      Clock::time_point t3 = Clock::now();
      LACB_ASSIGN_OR_RETURN(lm::Assignment af,
                            lm::MaxWeightAssignment(refined));
      Clock::time_point t4 = Clock::now();
      LACB_ASSIGN_OR_RETURN(lm::approx::BMatchResult bm,
                            lm::approx::ParallelBMatch(refined, caps, bm_opts));
      Clock::time_point t5 = Clock::now();
      g.push_back(Seconds(t0, t1) * 1e6);
      c.push_back(Seconds(t1, t2) * 1e6);
      kp.push_back(Seconds(t2, t3) * 1e6);
      kf.push_back(Seconds(t3, t4) * 1e6);
      bs.push_back(Seconds(t4, t5) * 1e6);
      if (rep == 0) {
        Violations v = CheckMatchingReplay(af.total_weight, ap.total_weight,
                                           bm.total_weight);
        violations->insert(violations->end(), v.begin(), v.end());
        keep.push_back(static_cast<double>(active.size()) /
                       static_cast<double>(batch.eligible.size()));
      }
    }
    gather.push_back(Median(g));
    cbs.push_back(Median(c));
    km_pruned.push_back(Median(kp));
    km_full.push_back(Median(kf));
    bsuitor.push_back(Median(bs));
  }
  MatchingReplay out;
  out.batches = gather.size();
  out.gather_us = Median(gather);
  out.cbs_us = Median(cbs);
  out.km_pruned_us = Median(km_pruned);
  out.km_full_us = Median(km_full);
  out.bsuitor_us = Median(bsuitor);
  out.keep_ratio = Median(keep);
  return out;
}

void AddMatchingMetrics(const MatchingReplay& m, Report* report) {
  report->Add("matching.gather_us", m.gather_us, "us");
  report->Add("matching.cbs_us", m.cbs_us, "us");
  report->Add("matching.km_pruned_us", m.km_pruned_us, "us");
  report->Add("matching.km_full_us", m.km_full_us, "us");
  report->Add("matching.bsuitor_us", m.bsuitor_us, "us");
  report->Add("matching.cbs_keep_ratio", m.keep_ratio, "ratio");
}

lacb::Result<SimProbe> ProbeSim(const lacb::sim::DatasetConfig& data,
                                size_t days) {
  SimProbe out;
  Clock::time_point t0 = Clock::now();
  LACB_ASSIGN_OR_RETURN(lacb::sim::Platform platform,
                        lacb::sim::Platform::Create(data));
  out.create_s = Seconds(t0, Clock::now());
  std::vector<double> utility_us, commit_us;
  for (size_t day = 0; day < days && day < platform.num_days(); ++day) {
    LACB_RETURN_NOT_OK(platform.StartDay(day));
    for (size_t batch = 0; batch < platform.NumBatchesToday(); ++batch) {
      Clock::time_point a = Clock::now();
      LACB_ASSIGN_OR_RETURN(lacb::la::Matrix u, platform.BatchUtility(batch));
      utility_us.push_back(Seconds(a, Clock::now()) * 1e6);
      // Each request takes its best broker not yet taken in this batch.
      std::vector<int64_t> assignment(u.rows(), lm::kUnmatched);
      std::vector<bool> taken(u.cols(), false);
      for (size_t r = 0; r < u.rows(); ++r) {
        int64_t best = lm::kUnmatched;
        for (size_t c = 0; c < u.cols(); ++c) {
          if (taken[c]) continue;
          if (best < 0 || u(r, c) > u(r, static_cast<size_t>(best))) {
            best = static_cast<int64_t>(c);
          }
        }
        if (best >= 0) taken[static_cast<size_t>(best)] = true;
        assignment[r] = best;
      }
      Clock::time_point b = Clock::now();
      LACB_RETURN_NOT_OK(platform.CommitAssignment(batch, assignment));
      commit_us.push_back(Seconds(b, Clock::now()) * 1e6);
    }
    LACB_RETURN_NOT_OK(platform.EndDay().status());
  }
  out.batch_utility_us = Median(utility_us);
  out.commit_us = Median(commit_us);
  return out;
}

void AddSimMetrics(const SimProbe& sim, Report* report) {
  report->Add("sim.create_s", sim.create_s, "s");
  report->Add("sim.batch_utility_us", sim.batch_utility_us, "us");
  report->Add("sim.commit_us", sim.commit_us, "us");
}

}  // namespace perfbench
