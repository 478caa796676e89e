#include <algorithm>
#include <utility>

#include "layers.h"
#include "served.h"
#include "stats.h"

namespace perfbench {

namespace {

struct Horizon {
  lacb::core::PolicyRunResult run;
  PolicyLedger ledger;
};

// One horizon through core::RunPolicy with the wrapper around LACB-Opt
// (or plain LACB without `use_cbs`). `collect` toggles obs collection for
// this horizon only.
lacb::Result<Horizon> RunHorizon(const lacb::sim::DatasetConfig& data,
                                 const ProbeOptions& probe_options,
                                 bool collect, bool use_cbs = true) {
  LACB_ASSIGN_OR_RETURN(
      std::unique_ptr<lacb::policy::LacbPolicy> policy,
      lacb::policy::LacbPolicy::Create(LacbConfig(data, use_cbs)));
  ProbePolicy probe(std::move(policy), probe_options);
  lacb::obs::SetCollectionEnabled(collect);
  lacb::Result<lacb::core::PolicyRunResult> run =
      lacb::core::RunPolicy(data, &probe);
  lacb::obs::SetCollectionEnabled(true);
  if (!run.ok() && !(probe_options.stop_at_day != 0 &&
                     run.status().message() == kPrefixDone)) {
    return run.status();
  }
  Horizon h;
  if (run.ok()) h.run = std::move(run).value();
  h.ledger = probe.ledger();
  return h;
}

double InnerPolicySeconds(const PolicyLedger& l) {
  return Sum(l.begin_seconds) + Sum(l.batch_seconds) + Sum(l.end_seconds);
}

void AddViolations(const Violations& v, Report* report) {
  for (const std::string& s : v) report->Fail(s);
}

// Cor. 1: plain rectangular LACB realizes LACB-Opt's per-day utility.
lacb::Status CheckCorollaryOne(const lacb::sim::DatasetConfig& data,
                               size_t prefix_days,
                               const std::vector<double>& opt_daily,
                               Report* report) {
  ProbeOptions options;
  options.stop_at_day = prefix_days;
  LACB_ASSIGN_OR_RETURN(Horizon lacb,
                        RunHorizon(data, options, true, /*use_cbs=*/false));
  AddViolations(lacb.ledger.violations, report);
  AddViolations(CheckSameDailyUtility(lacb.ledger.daily_utility, opt_daily,
                                      std::min(prefix_days, opt_daily.size())),
                report);
  return lacb::Status::OK();
}

}  // namespace

lacb::Status AddOfflineLayerMetrics(const lacb::sim::DatasetConfig& data,
                                    size_t days, double budget_s,
                                    bool capacity_and_policy, Report* report,
                                    std::vector<CapturedBatch>* captured) {
  // Horizons cycle through three variants: as in the end-to-end run,
  // traced (batch capture for the replay), and with obs collection off.
  ProbeOptions plain;
  plain.stop_at_day = days;
  ProbeOptions traced = plain;
  traced.capture_every = 8;
  traced.capture_limit = 48;
  std::vector<double> plain_s, traced_s, obs_off_s, gap_ms;
  std::vector<double> select_s, select_us, train_s, train_us, assign_s,
      assign_us;
  Clock::time_point start = Clock::now();
  do {
    LACB_ASSIGN_OR_RETURN(Horizon a, RunHorizon(data, plain, true));
    LACB_ASSIGN_OR_RETURN(Horizon b, RunHorizon(data, traced, true));
    LACB_ASSIGN_OR_RETURN(Horizon c, RunHorizon(data, plain, false));
    for (const Horizon* h : {&a, &b, &c}) {
      AddViolations(h->ledger.violations, report);
    }
    // A prefix run ends with an error status, so its policy time is the
    // wrapper's; full horizons compare against the engine's own figure.
    auto policy_seconds = [&](const Horizon& h) {
      return days == 0 ? h.run.policy_seconds : InnerPolicySeconds(h.ledger);
    };
    plain_s.push_back(policy_seconds(a));
    traced_s.push_back(policy_seconds(b));
    obs_off_s.push_back(policy_seconds(c));
    if (days == 0) {
      gap_ms.push_back((b.run.policy_seconds - InnerPolicySeconds(b.ledger)) *
                       1e3);
    }
    const PolicyLedger& l = b.ledger;
    select_s.push_back(Sum(l.begin_seconds));
    select_us.push_back(Sum(l.begin_seconds) * 1e6 /
                        std::max<double>(1.0, l.brokers_estimated));
    train_s.push_back(Sum(l.end_seconds));
    train_us.push_back(Sum(l.end_seconds) * 1e6 /
                       std::max<double>(1.0, l.trials_trained));
    assign_s.push_back(Sum(l.batch_seconds));
    assign_us.push_back(Sum(l.batch_seconds) * 1e6 /
                        std::max<double>(1.0, l.requests));
    if (captured->empty()) *captured = l.captured;
    report->attempted += a.ledger.batch_seconds.size() +
                         b.ledger.batch_seconds.size() +
                         c.ledger.batch_seconds.size();
  } while (Seconds(start, Clock::now()) < budget_s);

  if (capacity_and_policy) {
    report->Add("capacity.select_s", Median(select_s), "s");
    report->Add("capacity.select_us_per_broker", Median(select_us), "us");
    report->Add("capacity.train_s", Median(train_s), "s");
    report->Add("capacity.train_us_per_trial", Median(train_us), "us");
    report->Add("policy.assign_s", Median(assign_s), "s");
    report->Add("policy.assign_us_per_request", Median(assign_us), "us");
  }
  report->Add("obs.collection_overhead_ms",
              (Median(plain_s) - Median(obs_off_s)) * 1e3, "ms");
  report->Add("trace.overhead_ms", (Median(traced_s) - Median(plain_s)) * 1e3,
              "ms");
  if (!gap_ms.empty()) {
    double gap = Median(gap_ms);
    report->Add("trace.wrapper_gap_ms", gap, "ms");
    // The wrapper's Σ of policy calls must agree with the engine's own
    // policy_seconds: the difference is the wrapper's bookkeeping.
    if (gap < 0.0 || gap > 0.02 * Median(traced_s) * 1e3) {
      report->Fail("wrapper policy time disagrees with the engine's by " +
                   std::to_string(gap) + " ms");
    }
  }
  return lacb::Status::OK();
}

lacb::Status RunOffline(const Args& args,
                        const std::vector<lacb::sim::DatasetConfig>& instances,
                        size_t repeats, size_t cor1_prefix_days,
                        Report* report) {
  const lacb::sim::DatasetConfig& data = instances.front();
  if (args.trace) {
    std::vector<CapturedBatch> captured;
    LACB_RETURN_NOT_OK(AddOfflineLayerMetrics(data, 0, args.seconds, true,
                                              report, &captured));
    Violations v;
    LACB_ASSIGN_OR_RETURN(MatchingReplay m, ReplayMatching(captured, 3, &v));
    AddViolations(v, report);
    AddMatchingMetrics(m, report);
    LACB_ASSIGN_OR_RETURN(SimProbe sim, ProbeSim(data, 2));
    AddSimMetrics(sim, report);
    // The offline path touches no serve or persist code; a short served
    // pass over the same instance measures those layers for the ledger.
    ServedPassConfig probe;
    probe.fixed_days = 1;
    probe.days = 2;
    probe.rate = kServedRate;
    probe.day_request_limit = 1000;
    probe.arrival_seed = args.seed;
    LACB_ASSIGN_OR_RETURN(ServedPass on, RunServedPass(args, data, probe));
    probe.persist = false;
    LACB_ASSIGN_OR_RETURN(ServedPass off, RunServedPass(args, data, probe));
    for (const ServedPass* p : {&on, &off}) {
      AddViolations(p->violations, report);
      report->attempted += p->attempted;
      report->failed += p->failed;
    }
    AddServeLayerMetrics(on, off, report);
    return lacb::Status::OK();
  }

  // End-to-end: `repeats` whole horizons per instance, alternating over
  // the seed's instances.
  std::vector<Horizon> horizons;
  for (size_t k = 0; k < repeats * instances.size(); ++k) {
    ProbeOptions options;
    if (horizons.empty()) {
      options.capture_every = 64;
      options.capture_limit = 8;
    }
    const lacb::sim::DatasetConfig& instance =
        instances[k % instances.size()];
    PinForRepeat(k / instances.size());
    lacb::Result<Horizon> h = RunHorizon(instance, options, true);
    Unpin();
    LACB_RETURN_NOT_OK(h.status());
    horizons.push_back(std::move(h).value());
  }

  // Timings repeat per instance; each figure keeps the fastest repeat of
  // every unit (day, batch), so a machine slowdown lasting seconds moves a
  // figure only when it covers every repeat of that unit. Policy time is
  // the wrapped policy's own, without the wrapper's checks.
  double policy_s = 0.0, utility = 0.0, saturated = 0.0;
  std::vector<double> batch_ms, request_ms, rollover_ms;
  for (size_t i = 0; i < instances.size(); ++i) {
    std::vector<const Horizon*> reps;
    for (size_t k = i; k < horizons.size(); k += instances.size()) {
      reps.push_back(&horizons[k]);
    }
    const Horizon& base = *reps.front();
    const PolicyLedger& bl = base.ledger;
    auto fastest = [&](auto value) {
      double best = value(*reps.front());
      for (const Horizon* h : reps) best = std::min(best, value(*h));
      return best;
    };
    for (const Horizon* h : reps) {
      AddViolations(h->ledger.violations, report);
      if (h->run.total_utility != base.run.total_utility) {
        report->Fail("horizons of one instance realized different utilities");
      }
      AddViolations(CheckUtility(Sum(h->ledger.daily_utility),
                                 h->run.total_utility, 1e-9),
                    report);
      if (h->ledger.batch_seconds.size() != bl.batch_seconds.size() ||
          h->ledger.day_policy_seconds.size() !=
              bl.day_policy_seconds.size() ||
          h->ledger.in_day_seconds.size() != bl.in_day_seconds.size()) {
        report->Fail("horizons of one instance ran different batches");
        return lacb::Status::OK();
      }
      report->attempted += h->ledger.batch_seconds.size();
    }
    const double share = 1.0 / static_cast<double>(instances.size());
    utility += base.run.total_utility * share;
    for (size_t d = 0; d < bl.day_policy_seconds.size(); ++d) {
      policy_s += share * fastest([&](const Horizon& h) {
        return h.ledger.day_policy_seconds[d];
      });
    }
    double in_day_s = 0.0;
    for (size_t d = 0; d < bl.in_day_seconds.size(); ++d) {
      in_day_s += fastest([&](const Horizon& h) {
        return h.ledger.in_day_seconds[d] - h.ledger.batch_self_seconds[d];
      });
    }
    saturated += share * static_cast<double>(bl.requests) / in_day_s;
    for (size_t b = 0; b < bl.batch_seconds.size(); ++b) {
      double ms = 1e3 * fastest([&](const Horizon& h) {
        return h.ledger.batch_seconds[b];
      });
      batch_ms.push_back(ms);
      // Offline, a request is due when its batch is handed to the policy
      // and disposed when AssignBatch returns.
      request_ms.insert(request_ms.end(),
                        static_cast<size_t>(bl.batch_rows[b]), ms);
    }
    for (size_t d = 0; d + 1 < bl.begin_seconds.size(); ++d) {
      rollover_ms.push_back(1e3 * fastest([&](const Horizon& h) {
        return h.ledger.end_seconds[d] + h.ledger.begin_seconds[d + 1];
      }));
    }
  }

  const Horizon& first = horizons.front();
  Violations v;
  LACB_ASSIGN_OR_RETURN(MatchingReplay m,
                        ReplayMatching(first.ledger.captured, 1, &v));
  AddViolations(v, report);
  if (m.batches == 0) report->Fail("no batch was captured for the replay");
  LACB_RETURN_NOT_OK(CheckCorollaryOne(data, cor1_prefix_days,
                                       first.ledger.daily_utility, report));

  report->Add("policy_s", policy_s, "s");
  report->Add("batch_p50_ms", Quantile(batch_ms, 0.50), "ms");
  report->Add("batch_p95_ms", Quantile(batch_ms, 0.95), "ms");
  report->Add("utility", utility, "utility");
  report->Add("latency_p50_ms", Quantile(request_ms, 0.50), "ms");
  report->Add("latency_p95_ms", Quantile(request_ms, 0.95), "ms");
  report->Add("rollover_ms", Median(rollover_ms), "ms");
  report->Add("saturated_rps", saturated, "req/s");
  report->Add("setup_s", Seconds(ProcessStart(), first.ledger.initialized_at),
              "s");
  return lacb::Status::OK();
}

}  // namespace perfbench
