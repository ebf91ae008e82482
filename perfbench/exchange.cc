// exchange: closed-loop all-to-all re-partitioning (Fig. 6a's loop), 2 processes x 2
// workers, 8-byte records.
//
// Each epoch feeds every worker's share of records into a loop whose vertex adds 1 to
// each record and re-partitions it by value, so every round is an all-to-all exchange;
// after `kRounds` rounds the records leave the loop into a checksum sink. The driver of
// each process waits for the epoch to pass its probe before feeding the next (closed
// loop). The data plane (Outlet routing, codec, TcpTransport, writev) does nearly all the
// work; the progress layer does one frontier advance per round.
//
// Check: per epoch, the sink's count, sum and sum of squares of the records equal the
// closed form over the generated inputs (every record x leaves as x + kRounds).

#include <cstdio>
#include <memory>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"

namespace perfbench {
namespace {

using naiad::Timestamp;

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint64_t kRecordsPerWorker = 200000;
constexpr uint64_t kRounds = 20;
constexpr uint64_t kEpochsPerJob = 8;

class RotateVertex final
    : public naiad::Binary2Vertex<uint64_t, uint64_t, uint64_t, uint64_t> {
 public:
  void OnRecv1(const Timestamp& t, std::vector<uint64_t>& batch) override { Rotate(t, batch); }
  void OnRecv2(const Timestamp& t, std::vector<uint64_t>& batch) override { Rotate(t, batch); }

 private:
  void Rotate(const Timestamp& t, std::vector<uint64_t>& batch) {
    const bool traced = Spans::enabled();
    const uint64_t t0 = traced ? NowNs() : 0;
    const size_t n = batch.size();
    for (uint64_t& x : batch) {
      x += 1;  // the next hop lands on the next worker
    }
    if (t.coords.back() + 1 < kRounds) {
      output1().SendBatch(t, std::move(batch));  // feedback: one more round
    } else {
      output2().SendBatch(t, std::move(batch));  // done: leave the loop
    }
    if (traced) {
      g_op.recv_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
      g_op.records_in.fetch_add(n, std::memory_order_relaxed);
    }
  }
};

struct Checksum {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> sumsq{0};
};

struct JobOut {
  JobRun run;
  std::vector<double> epoch_us;  // process 0: OnNext call until the probe passed
  std::vector<double> feed_ns;
  std::vector<double> wait_us;
  double join_s = 0;
  double blocking_path_s = 0;  // process 0: feeds + probe waits + join
  uint64_t wrong = 0;
};

JobOut RunJob(uint64_t seed, uint64_t job, bool traced) {
  const uint64_t per_process = kRecordsPerWorker * kWorkers;
  // Inputs are generated before the server starts, so neither set-up nor the measured
  // job pays for them. Records spread uniformly over all workers.
  std::vector<std::vector<std::vector<uint64_t>>> inputs(kProcesses);
  std::vector<Checksum> want(kEpochsPerJob);
  for (uint32_t p = 0; p < kProcesses; ++p) {
    inputs[p].resize(kEpochsPerJob);
    for (uint64_t e = 0; e < kEpochsPerJob; ++e) {
      naiad::Rng rng(naiad::HashCombine(naiad::HashCombine(seed, job * 64 + e), p));
      std::vector<uint64_t>& v = inputs[p][e];
      v.resize(per_process);
      uint64_t sum = 0;
      uint64_t sumsq = 0;
      for (uint64_t& x : v) {
        x = rng.Next();
        const uint64_t leaves_as = x + kRounds;
        sum += leaves_as;
        sumsq += leaves_as * leaves_as;
      }
      want[e].count += per_process;
      want[e].sum += sum;
      want[e].sumsq += sumsq;
    }
  }
  std::vector<Checksum> got(kEpochsPerJob);
  JobOut out;
  naiad::ClusterOptions opts;
  opts.processes = kProcesses;
  opts.workers_per_process = kWorkers;
  opts.obs.metrics = traced;
  out.run = RunOnJobServer(opts, [&](naiad::Controller& ctl, JobCtx& jc) {
    const uint64_t entry = NowNs();
    const uint32_t pid = ctl.config().process_id;
    naiad::Probe probe;
    std::shared_ptr<naiad::InputHandle<uint64_t>> handle;
    {
      Span s("core.controller.build", jc.root());
      naiad::GraphBuilder b(ctl);
      auto [in, h] = naiad::NewInput<uint64_t>(b);
      handle = h;
      naiad::LoopContext loop(b, 0, "exchange");
      naiad::FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
      naiad::Partitioner<uint64_t> part = [](const uint64_t& x) { return x; };
      naiad::Stream<uint64_t> entered = loop.Ingress<uint64_t>(in, part);
      naiad::StageOptions rotate_opts;
      rotate_opts.name = "rotate";
      rotate_opts.depth = 1;
      naiad::StageId rotate = b.NewStage<RotateVertex>(
          rotate_opts, [](uint32_t) { return std::make_unique<RotateVertex>(); });
      b.Connect<RotateVertex, uint64_t>(entered, rotate, 0, part);
      b.Connect<RotateVertex, uint64_t>(fb.stream(), rotate, 1, part);
      fb.ConnectLoop(b.OutputOf<uint64_t>(rotate, 0), part);
      naiad::Stream<uint64_t> done = loop.Egress<uint64_t>(b.OutputOf<uint64_t>(rotate, 1));
      probe = naiad::ForEach<uint64_t>(
          done, [&got](const Timestamp& t, std::vector<uint64_t>& recs) {
            uint64_t sum = 0;
            uint64_t sumsq = 0;
            for (uint64_t x : recs) {
              sum += x;
              sumsq += x * x;
            }
            Checksum& c = got[t.epoch];
            c.count.fetch_add(recs.size(), std::memory_order_relaxed);
            c.sum.fetch_add(sum, std::memory_order_relaxed);
            c.sumsq.fetch_add(sumsq, std::memory_order_relaxed);
          });
    }
    jc.StartAndSync(ctl, entry);
    double path_ns = 0;
    for (uint64_t e = 0; e < kEpochsPerJob; ++e) {
      const uint64_t t0 = NowNs();
      {
        Span s("core.io.feed", jc.root());
        handle->OnNext(std::move(inputs[pid][e]));
      }
      const uint64_t t1 = NowNs();
      {
        Span s("core.progress.frontier_wait", jc.root());
        probe.WaitPassed(e);
      }
      const uint64_t t2 = NowNs();
      if (pid == 0) {
        out.epoch_us.push_back(NsToUs(t2 - t0));
        out.feed_ns.push_back(static_cast<double>(t1 - t0));
        out.wait_us.push_back(NsToUs(t2 - t1));
        path_ns += static_cast<double>(t2 - t0);
      }
    }
    handle->OnCompleted();
    const uint64_t j0 = NowNs();
    {
      Span s("core.controller.join", jc.root());
      ctl.Join();
    }
    if (pid == 0) {
      out.join_s = NsToS(NowNs() - j0);
      out.blocking_path_s = (path_ns + static_cast<double>(NowNs() - j0)) / 1e9;
    }
  });
  for (uint64_t e = 0; e < kEpochsPerJob; ++e) {
    if (got[e].count.load() != want[e].count.load() ||
        got[e].sum.load() != want[e].sum.load() ||
        got[e].sumsq.load() != want[e].sumsq.load()) {
      std::printf("exchange: job %llu epoch %llu checksum mismatch (count %llu want %llu)\n",
                  static_cast<unsigned long long>(job), static_cast<unsigned long long>(e),
                  static_cast<unsigned long long>(got[e].count.load()),
                  static_cast<unsigned long long>(want[e].count.load()));
      ++out.wrong;
    }
  }
  return out;
}

}  // namespace

Result RunExchange(const Args& args) {
  Result r;
  const double records_per_job = static_cast<double>(kRecordsPerWorker * kWorkers *
                                                     kProcesses * kRounds * kEpochsPerJob);
  double first_job_rss = 0;
  std::vector<double> setup_s, job_s, rate, epoch_us;
  std::vector<double> traced_job_s;
  std::vector<JobLayerStats> layer_jobs;
  SpanFigures fig;
  std::vector<double> path_gap;
  // A traced run spends its first half untraced: the difference is the tracing overhead.
  const uint64_t start = NowNs();
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  double last_job_s = 0;
  for (uint64_t job = 0;; ++job) {
    const double elapsed = NsToS(NowNs() - start);
    if (job > 1 && elapsed + last_job_s * 1.3 > args.seconds) {
      break;
    }
    const bool traced = args.trace && job > 1 && elapsed >= untraced_budget;
    if (traced) {
      Spans::Enable();
    }
    JobOut o = RunJob(args.seed, job, traced);
    Spans::Disable();
    last_job_s = NsToS(NowNs() - start) - elapsed;
    r.attempted += kEpochsPerJob;
    r.wrong += o.wrong;
    if (job == 0) {
      // Warm-up: checked, not timed (first-touch page faults on fresh buffers). Its peak
      // RSS is the one reported: later jobs in the same process peak higher and less
      // steadily as the allocator's arenas fragment (NOTES.md).
      first_job_rss = o.run.peak_rss_mb;
      continue;
    }
    if (traced) {
      traced_job_s.push_back(o.run.job_s);
      layer_jobs.push_back(LayerStatsOf(o.run.stats, kEpochsPerJob, records_per_job));
      fig.start_s.push_back(o.run.start_s);
      fig.build_s.push_back(o.run.build_s);
      fig.join_s.push_back(o.join_s);
      fig.stop_s.push_back(o.run.stop_s);
      fig.feed_ns.insert(fig.feed_ns.end(), o.feed_ns.begin(), o.feed_ns.end());
      fig.fed_records += kRecordsPerWorker * kWorkers * kEpochsPerJob;
      fig.frontier_wait_us.insert(fig.frontier_wait_us.end(), o.wait_us.begin(),
                                  o.wait_us.end());
      path_gap.push_back((o.run.job_s - o.blocking_path_s) / o.run.job_s);
      continue;
    }
    setup_s.push_back(o.run.setup_s);
    job_s.push_back(o.run.job_s);
    rate.push_back(records_per_job / o.run.job_s);
    epoch_us.insert(epoch_us.end(), o.epoch_us.begin(), o.epoch_us.end());
  }
  std::printf("exchange: %zu timed untraced jobs after one warm-up, %llu epochs each, "
              "%.3g record-hops per job\n",
              job_s.size(), static_cast<unsigned long long>(kEpochsPerJob), records_per_job);
  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("job_s", Median(job_s), "s");
  r.E2e("records_per_s", Median(rate), "1/s");
  r.E2e("epoch_p50_us", Quantile(epoch_us, 0.5), "us");
  r.Info("epoch_p90_us", Quantile(epoch_us, 0.90), "us");
  r.Info("epoch_p99_us", Quantile(epoch_us, 0.99), "us");
  r.E2e("peak_rss_mb", first_job_rss, "MB");
  r.Info("epoch_samples", static_cast<double>(epoch_us.size()), "count");
  if (args.trace) {
    AddJobServerLayers(r, layer_jobs, fig);
    r.Layer("trace.overhead_share", (Median(traced_job_s) - Median(job_s)) / Median(job_s),
            "share");
    r.Layer("trace.blocking_path_gap_share", Median(path_gap), "share");
    std::printf("blocking path (process 0: feeds + probe waits + join) vs job_s: "
                "gap %.2f%% of job_s\n",
                100 * Median(path_gap));
  }
  return r;
}

}  // namespace perfbench
