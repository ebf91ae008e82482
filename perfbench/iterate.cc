// iterate: batch PageRank (PageRankCsr) on a seeded power-law graph, 2 processes x 2
// workers, the graph streamed into one epoch with InputHandle::OnPartial.
//
// Each process generates its shard of the graph (PowerLawEdgeStream) before the job and
// feeds it in chunks; the loop then runs kIters iterations, exchanging combined
// ColumnBatch frames, with a loop-counter frontier advance per iteration. At kEdges the
// CSR of each of the 4 shards is several times this machine's 2 MiB per-core L2.
//
// Check: every node's rank equals a serial single-threaded PageRank over the same edges
// (computed once per run, outside any job) to a relative 1e-9, and every node is emitted
// exactly once. The serial time is algo.serial_ref_s, the single-threaded baseline.

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "perfbench/workloads.h"
#include "src/algo/pagerank.h"
#include "src/core/io.h"
#include "src/gen/graphs.h"

namespace perfbench {
namespace {

using naiad::Edge;
using naiad::NodeRank;

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint64_t kNodes = 1000000;
constexpr uint64_t kEdges = 4000000;
constexpr uint64_t kIters = 10;
constexpr double kExponent = 1.05;
constexpr size_t kChunk = 1 << 18;
constexpr double kTolerance = 1e-9;

// Single-threaded PageRank with the dataflow's semantics (iteration 0 assigns 1.0 to
// every endpoint; each later iteration sets rank = 0.15 + 0.85 * sum of in-shares).
std::vector<double> SerialPageRank(const std::vector<std::vector<Edge>>& shards,
                                   std::vector<uint8_t>& present) {
  std::vector<uint32_t> deg(kNodes, 0);
  present.assign(kNodes, 0);
  for (const auto& shard : shards) {
    for (const Edge& e : shard) {
      ++deg[e.first];
      present[e.first] = 1;
      present[e.second] = 1;
    }
  }
  std::vector<double> rank(kNodes, 1.0);
  std::vector<double> acc(kNodes, 0.0);
  for (uint64_t it = 1; it < kIters; ++it) {
    for (const auto& shard : shards) {
      for (const Edge& e : shard) {
        acc[e.second] += rank[e.first] / static_cast<double>(deg[e.first]);
      }
    }
    for (uint64_t v = 0; v < kNodes; ++v) {
      rank[v] = naiad::kPrBase + naiad::kPrDamping * acc[v];
      acc[v] = 0;
    }
  }
  return rank;
}

struct JobOut {
  JobRun run;
  std::vector<double> feed_ns;
  double wait_us = 0;
  double join_s = 0;
  double blocking_path_s = 0;
  uint64_t wrong = 0;
};

JobOut RunJob(const std::vector<std::vector<Edge>>& shards, const std::vector<double>& want,
              const std::vector<uint8_t>& present, uint64_t present_count, bool traced) {
  JobOut out;
  std::mutex got_mu;
  std::vector<NodeRank> got;
  got.reserve(present_count);
  naiad::ClusterOptions opts;
  opts.processes = kProcesses;
  opts.workers_per_process = kWorkers;
  opts.obs.metrics = traced;
  out.run = RunOnJobServer(opts, [&](naiad::Controller& ctl, JobCtx& jc) {
    const uint64_t entry = NowNs();
    const uint32_t pid = ctl.config().process_id;
    std::shared_ptr<naiad::InputHandle<Edge>> handle;
    naiad::Probe probe;
    {
      Span s("core.controller.build", jc.root());
      naiad::GraphBuilder b(ctl);
      auto [in, h] = naiad::NewInput<Edge>(b);
      handle = h;
      probe = naiad::ForEach<NodeRank>(
          naiad::PageRankCsr(in, kIters),
          [&](const naiad::Timestamp&, std::vector<NodeRank>& recs) {
            const bool tr = Spans::enabled();
            const uint64_t t0 = tr ? NowNs() : 0;
            {
              std::lock_guard<std::mutex> lock(got_mu);
              got.insert(got.end(), recs.begin(), recs.end());
            }
            if (tr) {
              g_op.notify_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
              g_op.records_in.fetch_add(recs.size(), std::memory_order_relaxed);
            }
          });
    }
    jc.StartAndSync(ctl, entry);
    const uint64_t t_feed = NowNs();
    const std::vector<Edge>& mine = shards[pid];
    for (size_t at = 0; at < mine.size(); at += kChunk) {
      std::vector<Edge> chunk(mine.begin() + at,
                              mine.begin() + std::min(mine.size(), at + kChunk));
      const uint64_t f0 = NowNs();
      {
        Span s("core.io.feed", jc.root());
        handle->OnPartial(std::move(chunk));
      }
      if (pid == 0) {
        out.feed_ns.push_back(static_cast<double>(NowNs() - f0));
      }
    }
    {
      Span s("core.io.feed", jc.root());
      handle->OnNext();  // seals epoch 0
    }
    const uint64_t w0 = NowNs();
    {
      Span s("core.progress.frontier_wait", jc.root());
      probe.WaitPassed(0);
    }
    const uint64_t w1 = NowNs();
    handle->OnCompleted();
    {
      Span s("core.controller.join", jc.root());
      ctl.Join();
    }
    if (pid == 0) {
      out.wait_us = NsToUs(w1 - w0);
      out.join_s = NsToS(NowNs() - w1);
      out.blocking_path_s = NsToS(NowNs() - t_feed);
    }
  });
  // Every node once, with the serial rank.
  std::vector<uint8_t> seen(kNodes, 0);
  uint64_t bad = 0;
  for (const auto& [node, rank] : got) {
    if (node >= kNodes || !present[node] || seen[node]) {
      ++bad;
      continue;
    }
    seen[node] = 1;
    const double w = want[node];
    if (!(std::fabs(rank - w) <= kTolerance * std::max(1.0, std::fabs(w)))) {
      ++bad;
    }
  }
  if (bad != 0 || got.size() != present_count) {
    std::printf("iterate: %llu wrong ranks, %zu emitted for %llu nodes\n",
                static_cast<unsigned long long>(bad), got.size(),
                static_cast<unsigned long long>(present_count));
    out.wrong = 1;
  }
  return out;
}

}  // namespace

Result RunIterate(const Args& args) {
  Result r;
  const uint64_t run_start = NowNs();
  std::vector<std::vector<Edge>> shards(kProcesses);
  for (uint32_t p = 0; p < kProcesses; ++p) {
    naiad::PowerLawEdgeStream gen(naiad::PowerLawEdgeStream::Options{.nodes = kNodes,
                                                                      .edges = kEdges,
                                                                      .exponent = kExponent,
                                                                      .seed = args.seed,
                                                                      .part = p,
                                                                      .parts = kProcesses});
    shards[p].reserve(gen.remaining());
    while (gen.NextChunk(shards[p], kChunk) > 0) {
    }
  }
  std::vector<uint8_t> present;
  std::vector<double> want;
  double serial_s = 0;
  {
    Span s("algo.serial_ref", 0);
    const uint64_t t0 = NowNs();
    want = SerialPageRank(shards, present);
    serial_s = NsToS(NowNs() - t0);
  }
  uint64_t present_count = 0;
  for (uint8_t b : present) {
    present_count += b;
  }
  const double records_per_job = static_cast<double>(kEdges * kIters);
  double first_job_rss = 0;
  std::vector<double> setup_s, job_s, rate, traced_job_s, path_gap;
  std::vector<JobLayerStats> layer_jobs;
  SpanFigures fig;
  const double budget_start = NsToS(NowNs() - run_start);
  const double untraced_budget =
      args.trace ? budget_start + (args.seconds - budget_start) / 2 : args.seconds;
  double last_job_s = 0;
  for (uint64_t job = 0;; ++job) {
    const double elapsed = NsToS(NowNs() - run_start);
    if (job > 1 && elapsed + last_job_s * 1.3 > args.seconds) {
      break;
    }
    const bool traced = args.trace && job > 1 && elapsed >= untraced_budget;
    if (traced) {
      Spans::Enable();
    }
    JobOut o = RunJob(shards, want, present, present_count, traced);
    Spans::Disable();
    last_job_s = NsToS(NowNs() - run_start) - elapsed;
    ++r.attempted;
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
      layer_jobs.push_back(LayerStatsOf(o.run.stats, 1, records_per_job));
      fig.start_s.push_back(o.run.start_s);
      fig.build_s.push_back(o.run.build_s);
      fig.join_s.push_back(o.join_s);
      fig.stop_s.push_back(o.run.stop_s);
      fig.feed_ns.insert(fig.feed_ns.end(), o.feed_ns.begin(), o.feed_ns.end());
      fig.fed_records += shards[0].size();
      fig.frontier_wait_us.push_back(o.wait_us);
      path_gap.push_back((o.run.job_s - o.blocking_path_s) / o.run.job_s);
      continue;
    }
    setup_s.push_back(o.run.setup_s);
    job_s.push_back(o.run.job_s);
    rate.push_back(records_per_job / o.run.job_s);
  }
  std::printf("iterate: %llu nodes (%llu present), %llu edges, %llu iterations, "
              "%zu timed untraced jobs after one warm-up; serial reference %.3f s\n",
              static_cast<unsigned long long>(kNodes),
              static_cast<unsigned long long>(present_count),
              static_cast<unsigned long long>(kEdges), static_cast<unsigned long long>(kIters),
              job_s.size(), serial_s);
  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("job_s", Median(job_s), "s");
  r.E2e("records_per_s", Median(rate), "1/s");
  // One epoch per job: an epoch's latency is the job.
  std::vector<double> epoch_us;
  for (double s : job_s) {
    epoch_us.push_back(s * 1e6);
  }
  r.E2e("epoch_p50_us", Quantile(epoch_us, 0.5), "us");
  r.Info("epoch_p90_us", Quantile(epoch_us, 0.90), "us");
  r.Info("epoch_p99_us", Quantile(epoch_us, 0.99), "us");
  r.E2e("peak_rss_mb", first_job_rss, "MB");
  r.Info("algo.serial_ref_s", serial_s, "s");
  r.Info("algo.speedup_vs_serial", serial_s / Median(job_s), "x");
  if (args.trace) {
    AddJobServerLayers(r, layer_jobs, fig);
    r.Layer("algo.serial_ref_s", serial_s, "s");
    r.Layer("algo.speedup_vs_serial", serial_s / Median(job_s), "x");
    r.Layer("trace.overhead_share", (Median(traced_job_s) - Median(job_s)) / Median(job_s),
            "share");
    r.Layer("trace.blocking_path_gap_share", Median(path_gap), "share");
    std::printf("blocking path (process 0: feeds + probe wait + join) vs job_s: "
                "gap %.2f%% of job_s\n",
                100 * Median(path_gap));
  }
  return r;
}

}  // namespace perfbench
