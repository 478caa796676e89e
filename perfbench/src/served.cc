#include "served.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>
#include <utility>

#include "stats.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = lacb::serve;

namespace {

// Free-run days are pumped in chunks that fit the default ingestion queue
// twice over, so a large day waits for room instead of being shed.
constexpr size_t kFreeRunChunk = 2048;

// A served pass plays the first kServedDays days of the instance: the
// first ones open-loop at kServedRate requests per second, the last
// kFreeDays free-run.
constexpr size_t kServedDays = 7;
constexpr size_t kFreeDays = 2;
// Wall time of one pass on the reference machine (README.md).
constexpr double kPassSeconds = 3.2;

// A fresh checkpoint directory per pass: Start() warm-restarts from any
// checkpoint it finds, so a pass must never see another pass's files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    static int counter = 0;
    path_ = fs::path(parent) / ("served-" + std::to_string(::getpid()) + "-" +
                                std::to_string(counter++));
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

uint64_t BytesWithPrefix(const fs::path& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec) &&
        e.path().filename().string().rfind(prefix, 0) == 0) {
      total += e.file_size(ec);
    }
  }
  return total;
}

}  // namespace

lacb::Result<ServedPass> RunServedPass(const Args& args,
                                       const lacb::sim::DatasetConfig& data,
                                       const ServedPassConfig& config) {
  ServedPass out;
  DispositionLedger ledger;
  ScratchDir dir(args.scratch_dir);

  serve::ServeOptions options;
  options.num_workers = 2;
  if (config.persist) options.checkpoint_dir = dir.path().string();
  options.disposition_sink = [&ledger](const serve::BatchDisposition& d) {
    ledger.OnDisposition(d, Clock::now());
  };

  std::vector<ProbePolicy*> probes;
  const lacb::policy::LacbPolicyConfig policy_config = LacbConfig(data, true);
  lacb::policy::PolicyFactory factory =
      [&]() -> lacb::Result<std::unique_ptr<lacb::policy::AssignmentPolicy>> {
    LACB_ASSIGN_OR_RETURN(std::unique_ptr<lacb::policy::LacbPolicy> policy,
                          lacb::policy::LacbPolicy::Create(policy_config));
    if (!config.wrap) {
      return std::unique_ptr<lacb::policy::AssignmentPolicy>(std::move(policy));
    }
    ProbeOptions probe_options;
    probe_options.check = false;
    probe_options.capture_every = 16;
    probe_options.capture_limit = 24;
    auto probe = std::make_unique<ProbePolicy>(std::move(policy), probe_options);
    probes.push_back(probe.get());
    return std::unique_ptr<lacb::policy::AssignmentPolicy>(std::move(probe));
  };

  // Same run-scoped collection as serve::RunPolicyServed.
  lacb::obs::ScopedTelemetry telemetry;
  LACB_ASSIGN_OR_RETURN(std::unique_ptr<serve::AssignmentService> service,
                        serve::AssignmentService::Create(data, factory, options));
  LACB_RETURN_NOT_OK(service->Start());
  out.setup_s = Seconds(ProcessStart(), Clock::now());
  // Only the calling thread (generator, OpenDay/CloseDay) is pinned, after
  // Start() so that the service's own threads stay free to move.
  PinForRepeat(config.repeat);

  const auto& schedule = service->platform().all_requests();
  const size_t days = std::min(config.days, schedule.size());
  double assign_before = 0.0;
  double assigned_workload = 0.0;
  size_t fixed_latencies = 0, fixed_batches = 0;
  lacb::Status status;
  for (size_t day = 0; day < days && status.ok(); ++day) {
    std::vector<const lacb::sim::Request*> requests;
    for (const auto& batch : schedule[day]) {
      for (const lacb::sim::Request& r : batch) requests.push_back(&r);
    }
    if (config.day_request_limit != 0 &&
        requests.size() > config.day_request_limit) {
      requests.resize(config.day_request_limit);
    }
    const bool fixed = day < config.fixed_days;

    Clock::time_point open0 = Clock::now();
    status = service->OpenDay(day);
    if (!status.ok()) break;
    Clock::time_point day_start = Clock::now();
    out.open_ms.push_back(Seconds(open0, day_start) * 1e3);

    Clock::time_point last_submit = day_start;
    if (fixed) {
      // Open loop at one fixed rate with absolute deadlines: the schedule
      // restarts when OpenDay returns, and a late generator never delays
      // later due times.
      lacb::Rng rng = lacb::Rng(config.arrival_seed).Fork(day);
      Clock::time_point due = day_start;
      for (const lacb::sim::Request* r : requests) {
        double u = std::max(1e-12, rng.Uniform());
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(-std::log(u) / config.rate));
        std::this_thread::sleep_until(due);
        Clock::time_point sent = Clock::now();
        out.late_ms.push_back(Seconds(due, sent) * 1e3);
        ledger.Expect(r->id, due);
        bool accepted = service->Submit(*r);
        last_submit = Clock::now();
        out.submit_us.push_back(Seconds(sent, last_submit) * 1e6);
        if (!accepted) ledger.Shed(r->id);
      }
    } else {
      for (size_t i = 0; i < requests.size() && status.ok(); ++i) {
        if (i > 0 && i % kFreeRunChunk == 0) status = service->WaitIdle();
        Clock::time_point now = Clock::now();
        ledger.Expect(requests[i]->id, now);
        if (!service->Submit(*requests[i])) ledger.Shed(requests[i]->id);
      }
      last_submit = Clock::now();
    }
    if (!status.ok()) break;
    service->Flush();
    status = service->WaitIdle();
    if (!status.ok()) break;
    Clock::time_point idle = Clock::now();
    out.drain_ms.push_back(Seconds(last_submit, idle) * 1e3);
    if (fixed) {
      fixed_latencies = ledger.LatenciesMs().size();
      fixed_batches = ledger.BatchLatenciesMs().size();
    } else {
      out.free_requests += static_cast<double>(requests.size());
      out.free_seconds += Seconds(day_start, idle);
    }

    Clock::time_point close0 = Clock::now();
    lacb::Result<lacb::sim::DayOutcome> outcome = service->CloseDay();
    if (!outcome.ok()) {
      status = outcome.status();
      break;
    }
    out.close_ms.push_back(Seconds(close0, Clock::now()) * 1e3);
    out.utility += outcome.value().realized_utility;
    for (double w : outcome.value().per_broker_workload) assigned_workload += w;
    double assign_now = service->Stats().assign_seconds;
    out.day_policy_s.push_back(service->day_boundary_seconds() +
                               (assign_now - assign_before));
    assign_before = assign_now;
  }
  service->Shutdown();
  Unpin();
  LACB_RETURN_NOT_OK(status);

  const serve::ServeStats stats = service->Stats();
  out.violations = ledger.Verify(stats, assigned_workload);
  std::vector<double> latencies = ledger.LatenciesMs();
  std::vector<double> batch_latencies = ledger.BatchLatenciesMs();
  out.latency_ms.assign(latencies.begin(), latencies.begin() + fixed_latencies);
  out.batch_latency_ms.assign(batch_latencies.begin(),
                              batch_latencies.begin() + fixed_batches);
  out.batch_sizes = ledger.BatchSizes();
  for (size_t d = 0; d + 1 < out.close_ms.size(); ++d) {
    out.rollover_ms.push_back(out.close_ms[d] + out.open_ms[d + 1]);
  }
  out.attempted = ledger.accepted() + ledger.shed();
  out.failed = ledger.shed() + stats.failed + stats.dropped_appeals;
  if (config.persist) {
    out.wal_bytes = BytesWithPrefix(dir.path(), "wal-");
    out.checkpoint_bytes = BytesWithPrefix(dir.path(), "ckpt-");
  }
  for (ProbePolicy* p : probes) out.replicas.push_back(p->ledger());
  return out;
}

void AddServeLayerMetrics(const ServedPass& with_persist,
                          const ServedPass& without_persist, Report* report) {
  const ServedPass& p = with_persist;
  report->Add("serve.submit_us", Median(p.submit_us), "us");
  report->Add("serve.batch_size_mean", Mean(p.batch_sizes), "requests");
  report->Add("serve.open_ms", Median(p.open_ms), "ms");
  report->Add("serve.close_ms", Median(p.close_ms), "ms");
  report->Add("serve.drain_ms", Median(p.drain_ms), "ms");
  report->Add("serve.generator_late_ms", Quantile(p.late_ms, 0.99), "ms");
  report->Add("persist.wal_bytes", static_cast<double>(p.wal_bytes), "bytes");
  report->Add("persist.checkpoint_bytes",
              static_cast<double>(p.checkpoint_bytes), "bytes");
  report->Add("persist.rollover_ms",
              Median(p.close_ms) - Median(without_persist.close_ms), "ms");
}

namespace {

// Traced served run: one pass with wrapped replicas (capacity, policy and
// matching layers as served), the same days without persistence (its share
// of the day close), and short offline prefixes of the instance (obs and
// tracing overhead).
lacb::Status TraceServed(const Args& args, const lacb::sim::DatasetConfig& data,
                         ServedPassConfig config, Report* report) {
  config.wrap = true;
  LACB_ASSIGN_OR_RETURN(ServedPass pass, RunServedPass(args, data, config));
  for (const std::string& v : pass.violations) report->Fail(v);
  report->attempted += pass.attempted;
  report->failed += pass.failed;
  double select = 0, train = 0, assign = 0, brokers = 0, trials = 0,
         requests = 0, lead_boundary = 0;
  std::vector<CapturedBatch> captured;
  for (size_t i = 0; i < pass.replicas.size(); ++i) {
    const PolicyLedger& l = pass.replicas[i];
    select += Sum(l.begin_seconds);
    train += Sum(l.end_seconds);
    assign += Sum(l.batch_seconds);
    brokers += static_cast<double>(l.brokers_estimated);
    trials += static_cast<double>(l.trials_trained);
    requests += static_cast<double>(l.requests);
    if (i == 0) lead_boundary = Sum(l.begin_seconds) + Sum(l.end_seconds);
    captured.insert(captured.end(), l.captured.begin(), l.captured.end());
  }
  report->Add("capacity.select_s", select, "s");
  report->Add("capacity.select_us_per_broker",
              select * 1e6 / std::max(1.0, brokers), "us");
  report->Add("capacity.train_s", train, "s");
  report->Add("capacity.train_us_per_trial",
              train * 1e6 / std::max(1.0, trials), "us");
  report->Add("policy.assign_s", assign, "s");
  report->Add("policy.assign_us_per_request",
              assign * 1e6 / std::max(1.0, requests), "us");
  // The service's own policy time (lead replica's day boundary plus every
  // worker's AssignBatch) against the wrappers' Σ of the same calls.
  double gap_ms = (Sum(pass.day_policy_s) - lead_boundary - assign) * 1e3;
  report->Add("trace.wrapper_gap_ms", gap_ms, "ms");
  if (gap_ms < 0.0 || gap_ms > 0.02 * Sum(pass.day_policy_s) * 1e3) {
    report->Fail("wrapper policy time disagrees with the service's by " +
                 std::to_string(gap_ms) + " ms");
  }
  Violations v;
  LACB_ASSIGN_OR_RETURN(MatchingReplay m, ReplayMatching(captured, 3, &v));
  for (const std::string& s : v) report->Fail(s);
  AddMatchingMetrics(m, report);
  LACB_ASSIGN_OR_RETURN(SimProbe sim, ProbeSim(data, 2));
  AddSimMetrics(sim, report);

  ServedPassConfig off = config;
  off.persist = false;
  LACB_ASSIGN_OR_RETURN(ServedPass no_persist, RunServedPass(args, data, off));
  for (const std::string& s : no_persist.violations) report->Fail(s);
  report->attempted += no_persist.attempted;
  report->failed += no_persist.failed;
  AddServeLayerMetrics(pass, no_persist, report);
  std::vector<CapturedBatch> unused;
  return AddOfflineLayerMetrics(data, 7, 0.0, false, report, &unused);
}

}  // namespace

lacb::Status RunServed(const Args& args,
                       const std::vector<lacb::sim::DatasetConfig>& instances,
                       Report* report) {
  ServedPassConfig config;
  config.days = kServedDays;
  config.fixed_days = kServedDays - kFreeDays;
  config.rate = kServedRate;
  config.arrival_seed = args.seed;
  if (args.trace) return TraceServed(args, instances.front(), config, report);

  // A fixed number of whole passes per instance (RepeatCount), alternating
  // over the instances. CPU-bound day figures (policy time, rollover) keep
  // each day's fastest pass of its instance: the shared machine slows down
  // for seconds at a time, and a figure then moves only when a slowdown
  // covers that day in every pass. Latency quantiles and saturated
  // throughput are taken per pass and reported as the median pass, so a
  // change that shows in most passes moves them while a host stall in a
  // few passes does not.
  const size_t n = instances.size();
  const size_t num_passes =
      n * RepeatCount(args.seconds, kPassSeconds * static_cast<double>(n), 2);
  std::vector<ServedPass> passes;
  while (passes.size() < num_passes) {
    config.repeat = passes.size() / n;
    LACB_ASSIGN_OR_RETURN(
        ServedPass pass,
        RunServedPass(args, instances[passes.size() % n], config));
    for (const std::string& v : pass.violations) report->Fail(v);
    report->attempted += pass.attempted;
    report->failed += pass.failed;
    passes.push_back(std::move(pass));
  }
  double policy_s = 0.0, utility = 0.0;
  std::vector<double> rollover_ms;
  for (size_t i = 0; i < n; ++i) {
    auto fastest = [&](auto value) {
      double best = value(passes[i]);
      for (size_t k = i; k < passes.size(); k += n) {
        best = std::min(best, value(passes[k]));
      }
      return best;
    };
    for (size_t d = 0; d < passes[i].day_policy_s.size(); ++d) {
      policy_s += fastest([&](const ServedPass& p) {
                    return p.day_policy_s[d];
                  }) /
                  static_cast<double>(n);
    }
    for (size_t d = 0; d < passes[i].rollover_ms.size(); ++d) {
      rollover_ms.push_back(
          fastest([&](const ServedPass& p) { return p.rollover_ms[d]; }));
    }
  }
  for (const ServedPass& p : passes) {
    utility += p.utility / static_cast<double>(passes.size());
  }
  auto median_pass = [&](auto value) {
    std::vector<double> values;
    for (const ServedPass& p : passes) values.push_back(value(p));
    return Median(values);
  };
  auto batch_quantile = [&](double q) {
    return median_pass(
        [&](const ServedPass& p) { return Quantile(p.batch_latency_ms, q); });
  };
  auto request_quantile = [&](double q) {
    return median_pass(
        [&](const ServedPass& p) { return Quantile(p.latency_ms, q); });
  };
  report->Add("policy_s", policy_s, "s");
  report->Add("batch_p50_ms", batch_quantile(0.50), "ms");
  report->Add("batch_p95_ms", batch_quantile(0.95), "ms");
  report->Add("utility", utility, "utility");
  report->Add("latency_p50_ms", request_quantile(0.50), "ms");
  report->Add("latency_p95_ms", request_quantile(0.95), "ms");
  report->Add("rollover_ms", Median(rollover_ms), "ms");
  report->Add("saturated_rps", median_pass([](const ServedPass& p) {
                return p.free_requests / p.free_seconds;
              }),
              "req/s");
  report->Add("setup_s", passes.front().setup_s, "s");
  return lacb::Status::OK();
}

}  // namespace perfbench
