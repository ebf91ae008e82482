// stream: open-loop keyed epochs, 2 processes x 1 worker.
//
// Every epoch, each process feeds kKeysPerProcess uint64 keys into Count -> Subscribe, at
// the epoch's scheduled time whether or not the cluster has kept up (open loop). Two
// phases, each its own job: `low` at kLowRate epochs/s, where the cluster idles between
// epochs, and `high` at kHighRate. The backlog starts to grow between 2000 and 2800
// epochs/s on a quiet host, and at 1000/s a burst of host noise occasionally tipped a run
// into collapse (NOTES.md), so `high` runs at a quarter of the onset: loaded, but with
// headroom to drain a stall. An epoch's latency runs from its due time to its Subscribe
// callback, so a stall is charged to every epoch queued behind it. The progress tracker,
// the progress router and host wakeups do the work here; the data plane moves a few KB
// per epoch.
//
// Check: each epoch's (key, count) pairs equal the generator's own tally. An epoch whose
// callback never came, or came with wrong counts, is wrong; one later than 1 s is late
// (failed, but not wrong).

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/lib/keyed_ops.h"

namespace perfbench {
namespace {

using KeyCount = std::pair<uint64_t, uint64_t>;

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 1;
constexpr uint64_t kKeysPerProcess = 256;
constexpr uint64_t kKeySpace = 1024;
constexpr double kLowRate = 250;
constexpr double kHighRate = 500;
constexpr uint64_t kLateNs = 1000000000;  // an epoch later than this has failed
constexpr uint64_t kWarmupEpochs = 20;    // per job; checked, but not in the latency sample
constexpr int kCycles = 3;                // each cycle: one low job, then one high job

void SleepUntil(uint64_t due_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(due_ns % 1000000000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

struct PhaseOut {
  JobRun run;
  uint64_t epochs = 0;
  uint64_t wrong = 0;
  uint64_t late = 0;
  std::vector<double> latency_us;  // due -> callback, after warm-up
  std::vector<double> gen_late_us;  // per process and epoch: due -> OnNext call
  std::vector<double> feed_ns;
  std::vector<double> wait_us;      // last OnNext return -> callback
  std::vector<double> path_gap;     // per epoch: 1 - (late + feed + wait) / latency
  double join_s = 0;
  uint64_t root_span = 0;
};

PhaseOut RunPhase(uint64_t seed, uint64_t job, double rate, double seconds, bool traced) {
  PhaseOut out;
  const uint64_t n = std::max<uint64_t>(kWarmupEpochs + 10,
                                        static_cast<uint64_t>(rate * seconds));
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / rate);
  out.epochs = n;
  // Inputs and the expected tallies are made before the server starts.
  std::vector<std::vector<std::vector<uint64_t>>> inputs(kProcesses);
  std::vector<std::vector<KeyCount>> want(n);
  for (uint32_t p = 0; p < kProcesses; ++p) {
    inputs[p].resize(n);
  }
  for (uint64_t e = 0; e < n; ++e) {
    std::map<uint64_t, uint64_t> tally;
    for (uint32_t p = 0; p < kProcesses; ++p) {
      naiad::Rng rng(naiad::HashCombine(naiad::HashCombine(seed, job * 1000003 + e), p));
      std::vector<uint64_t>& v = inputs[p][e];
      v.resize(kKeysPerProcess);
      for (uint64_t& k : v) {
        k = rng.Below(kKeySpace);
        ++tally[k];
      }
    }
    want[e].assign(tally.begin(), tally.end());
  }
  std::vector<std::vector<KeyCount>> got(n);
  std::vector<uint64_t> cb_ns(n, 0);
  std::vector<std::vector<uint64_t>> feed_start(kProcesses, std::vector<uint64_t>(n, 0));
  std::vector<std::vector<uint64_t>> feed_end(kProcesses, std::vector<uint64_t>(n, 0));
  std::atomic<uint64_t> t0{0};

  naiad::ClusterOptions opts;
  opts.processes = kProcesses;
  opts.workers_per_process = kWorkers;
  opts.obs.metrics = traced;
  out.run = RunOnJobServer(opts, [&](naiad::Controller& ctl, JobCtx& jc) {
    const uint64_t entry = NowNs();
    const uint32_t pid = ctl.config().process_id;
    if (pid == 0) {
      out.root_span = jc.root();
    }
    std::shared_ptr<naiad::InputHandle<uint64_t>> handle;
    {
      Span s("core.controller.build", jc.root());
      naiad::GraphBuilder b(ctl);
      auto [in, h] = naiad::NewInput<uint64_t>(b);
      handle = h;
      auto counts = naiad::Count(in, [](const uint64_t& k) { return k; });
      naiad::Subscribe<KeyCount>(counts, [&](uint64_t epoch, std::vector<KeyCount>& recs) {
        const uint64_t now = NowNs();
        cb_ns[epoch] = now;
        const size_t size = recs.size();
        got[epoch] = std::move(recs);
        if (Spans::enabled()) {
          g_op.notify_ns.fetch_add(NowNs() - now, std::memory_order_relaxed);
          g_op.records_in.fetch_add(size, std::memory_order_relaxed);
        }
      });
    }
    jc.StartAndSync(ctl, entry);
    // One schedule for both processes, fixed once both are running.
    uint64_t expect = 0;
    t0.compare_exchange_strong(expect, NowNs() + 2000000);
    const uint64_t start = t0.load();
    for (uint64_t e = 0; e < n; ++e) {
      SleepUntil(start + e * period_ns);
      feed_start[pid][e] = NowNs();
      {
        Span s("core.io.feed", jc.root());
        handle->OnNext(std::move(inputs[pid][e]));
      }
      feed_end[pid][e] = NowNs();
    }
    handle->OnCompleted();
    const uint64_t j0 = NowNs();
    {
      Span s("core.controller.join", jc.root());
      ctl.Join();
    }
    if (pid == 0) {
      out.join_s = NsToS(NowNs() - j0);
    }
  });

  const uint64_t start = t0.load();
  for (uint64_t e = 0; e < n; ++e) {
    const uint64_t due = start + e * period_ns;
    for (uint32_t p = 0; p < kProcesses; ++p) {
      out.gen_late_us.push_back(NsToUs(feed_start[p][e] - std::min(feed_start[p][e], due)));
      out.feed_ns.push_back(static_cast<double>(feed_end[p][e] - feed_start[p][e]));
    }
    std::sort(got[e].begin(), got[e].end());
    if (cb_ns[e] == 0 || got[e] != want[e]) {
      if (out.wrong < 5) {
        std::printf("stream: job %llu epoch %llu %s\n", static_cast<unsigned long long>(job),
                    static_cast<unsigned long long>(e),
                    cb_ns[e] == 0 ? "missing" : "wrong counts");
      }
      ++out.wrong;
      continue;
    }
    const uint64_t latency = cb_ns[e] - due;
    if (latency > kLateNs) {
      ++out.late;
    }
    // The epoch completes once its last feeder has fed it; split the latency along that
    // feeder's path: generator lateness, the OnNext call, then the wait for the frontier.
    uint32_t last = 0;
    for (uint32_t p = 1; p < kProcesses; ++p) {
      if (feed_end[p][e] > feed_end[last][e]) {
        last = p;
      }
    }
    const uint64_t fe = std::min(feed_end[last][e], cb_ns[e]);
    out.wait_us.push_back(NsToUs(cb_ns[e] - fe));
    if (traced) {
      Spans::Record("core.progress.frontier_wait", fe, cb_ns[e], Spans::NextId(),
                    out.root_span);
    }
    if (e >= kWarmupEpochs) {
      out.latency_us.push_back(NsToUs(latency));
      const double path = static_cast<double>(feed_start[last][e] - std::min(feed_start[last][e], due)) +
                          static_cast<double>(feed_end[last][e] - feed_start[last][e]) +
                          static_cast<double>(cb_ns[e] - fe);
      out.path_gap.push_back(1 - path / static_cast<double>(latency));
    }
  }
  return out;
}

}  // namespace

Result RunStream(const Args& args) {
  Result r;
  // Phase lengths fill 85% of the budget; the rest covers set-up, drain and checking.
  const double cycle_s = 0.85 * args.seconds / kCycles;
  const double low_s = cycle_s * 0.55;
  const double high_s = cycle_s * 0.45;
  const double high_rate = args.stream_high_rate > 0 ? args.stream_high_rate : kHighRate;
  double first_job_rss = 0;
  std::vector<double> setup_s, high_job_s, high_rps, low_us, high_us;
  std::vector<double> gen_late_us;
  std::vector<double> low_job_p99, high_job_p99;
  std::vector<double> traced_low_us;
  std::vector<JobLayerStats> layer_jobs;
  SpanFigures fig;
  std::vector<double> path_gap;
  uint64_t job = 0;
  for (int c = 0; c < kCycles; ++c) {
    // A traced run keeps its first cycle untraced: the difference is the overhead.
    const bool traced = args.trace && c > 0;
    for (const bool high : {false, true}) {
      if (traced) {
        Spans::Enable();
      }
      PhaseOut o = RunPhase(args.seed, job++, high ? high_rate : kLowRate,
                            high ? high_s : low_s, traced);
      Spans::Disable();
      std::printf("stream: job %llu %-4s %6.0f epochs/s: p50 %9.0f us, p99 %11.0f us, "
                  "%llu late, job_s %.3f\n",
                  static_cast<unsigned long long>(job - 1), high ? "high" : "low",
                  high ? high_rate : kLowRate, Quantile(o.latency_us, 0.5),
                  Quantile(o.latency_us, 0.99), static_cast<unsigned long long>(o.late),
                  o.run.job_s);
      r.attempted += o.epochs;
      r.wrong += o.wrong;
      r.late += o.late;
      gen_late_us.insert(gen_late_us.end(), o.gen_late_us.begin(), o.gen_late_us.end());
      if (traced) {
        if (!high) {
          traced_low_us.insert(traced_low_us.end(), o.latency_us.begin(), o.latency_us.end());
        }
        layer_jobs.push_back(LayerStatsOf(
            o.run.stats, static_cast<double>(o.epochs),
            static_cast<double>(o.epochs * kKeysPerProcess * kProcesses)));
        fig.start_s.push_back(o.run.start_s);
        fig.build_s.push_back(o.run.build_s);
        fig.join_s.push_back(o.join_s);
        fig.stop_s.push_back(o.run.stop_s);
        fig.feed_ns.insert(fig.feed_ns.end(), o.feed_ns.begin(), o.feed_ns.end());
        fig.fed_records += o.epochs * kKeysPerProcess * kProcesses;
        fig.frontier_wait_us.insert(fig.frontier_wait_us.end(), o.wait_us.begin(),
                                    o.wait_us.end());
        path_gap.insert(path_gap.end(), o.path_gap.begin(), o.path_gap.end());
        continue;
      }
      setup_s.push_back(o.run.setup_s);
      if (job == 1) {
        // The first job's peak: later jobs in the same process peak higher and less
        // steadily as the allocator's arenas fragment (NOTES.md).
        first_job_rss = o.run.peak_rss_mb;
      }
      if (high) {
        high_job_s.push_back(o.run.job_s);
        high_rps.push_back(static_cast<double>(o.epochs * kKeysPerProcess * kProcesses) /
                            o.run.job_s);
        high_us.insert(high_us.end(), o.latency_us.begin(), o.latency_us.end());
        high_job_p99.push_back(Quantile(o.latency_us, 0.99));
      } else {
        low_us.insert(low_us.end(), o.latency_us.begin(), o.latency_us.end());
        low_job_p99.push_back(Quantile(o.latency_us, 0.99));
      }
    }
  }
  std::printf("stream: low %.0f epochs/s for %.2f s, high %.0f epochs/s for %.2f s, "
              "%d cycles, %llu keys per process per epoch\n",
              kLowRate, low_s, high_rate, high_s, kCycles,
              static_cast<unsigned long long>(kKeysPerProcess));
  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("job_s", Median(high_job_s), "s");
  r.E2e("records_per_s", Median(high_rps), "1/s");
  r.E2e("epoch_p50_us", Quantile(low_us, 0.5), "us");
  r.E2e("peak_rss_mb", first_job_rss, "MB");
  // No tail is gated: at 250 epochs/s even the p90 follows the host's scheduling noise
  // (NOTES.md, "End-to-end metrics").
  r.Info("epoch_p50_us.low", Quantile(low_us, 0.5), "us");
  r.Info("epoch_p90_us.low", Quantile(low_us, 0.90), "us");
  // p99 per low job (about 1000 samples each), median over the run's low jobs.
  r.Info("epoch_p99_us.low", Median(low_job_p99), "us");
  r.Info("epoch_samples.low", static_cast<double>(low_us.size()), "count");
  r.Info("epoch_p50_us.high", Quantile(high_us, 0.5), "us");
  r.Info("epoch_p99_us.high", Median(high_job_p99), "us");
  r.Info("epoch_samples.high", static_cast<double>(high_us.size()), "count");
  r.Info("gen.late_p50_us", Quantile(gen_late_us, 0.5), "us");
  r.Info("gen.late_p99_us", Quantile(gen_late_us, 0.99), "us");
  if (args.trace) {
    AddJobServerLayers(r, layer_jobs, fig);
    r.Layer("gen.late_p50_us", Quantile(gen_late_us, 0.5), "us");
    r.Layer("gen.late_p99_us", Quantile(gen_late_us, 0.99), "us");
    const double untraced = Quantile(low_us, 0.5);
    r.Layer("trace.overhead_share", (Quantile(traced_low_us, 0.5) - untraced) / untraced,
            "share");
    r.Layer("trace.blocking_path_gap_share", Median(path_gap), "share");
    std::printf("blocking path (generator lateness + OnNext + frontier wait of the last "
                "feeder) vs epoch latency: median gap %.2f%%\n",
                100 * Median(path_gap));
  }
  return r;
}

}  // namespace perfbench
