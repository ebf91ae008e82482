// Figure 6b (§5.2): global coordination (barrier) latency.
//
// An empty cyclic dataflow in which every vertex only requests and receives completeness
// notifications; no iteration proceeds until all notifications of the previous iteration
// are delivered. The paper reports the distribution of per-iteration times (median 753 µs
// at 64 computers, tails from micro-stragglers). Expected shape here: microsecond-scale
// medians in one process, growing latency and tail with process count as the progress
// protocol crosses TCP.
//
// Multi-process rows run once per progress strategy (§3.3 / Fig. 6c's four) and report
// the hosts' missed wakeups: parks that timed out and then found work. A nonzero count
// means a timeout, not the protocol, set some of the latency.
//
//   fig6b_latency            1 process, then 2 and 4 processes x every strategy
//   fig6b_latency --small    2 processes x every strategy, fewer iterations (CI smoke)

#include <mutex>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/stopwatch.h"
#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/net/cluster.h"

namespace naiad {
namespace {

std::mutex g_mu;
std::vector<double> g_iteration_micros;

class BarrierVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  BarrierVertex(uint64_t iters, bool timekeeper) : iters_(iters), timekeeper_(timekeeper) {}

  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {}

  void OnNotify(const Timestamp& t) override {
    if (timekeeper_) {
      if (t.coords.back() > 0) {
        std::lock_guard<std::mutex> lock(g_mu);
        g_iteration_micros.push_back(sw_.ElapsedMicros());
      }
      sw_.Restart();
    }
    if (t.coords.back() + 1 < iters_) {
      NotifyAt(t.Incremented());
    }
  }

 private:
  uint64_t iters_;
  bool timekeeper_;
  Stopwatch sw_;
};

struct BarrierRun {
  SampleStats stats;
  uint64_t missed_wakeups = 0;
};

BarrierRun RunBarrier(uint32_t processes, uint32_t workers, uint64_t iters,
                      ProgressStrategy strategy) {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_iteration_micros.clear();
  }
  const ClusterStats cs = Cluster::Run(
      ClusterOptions{
          .processes = processes, .workers_per_process = workers, .strategy = strategy},
      [&](Controller& ctl) {
        GraphBuilder b(ctl);
        auto [in, handle] = NewInput<uint64_t>(b);
        LoopContext loop(b, 0, "barrier");
        FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
        Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
        const bool host0 = ctl.config().process_id == 0;
        StageId barrier = b.NewStage<BarrierVertex>(
            StageOptions{.name = "barrier",
                         .depth = 1,
                         .initial_notifications = {Timestamp(0, {0})}},
            [&, host0](uint32_t index) {
              return std::make_unique<BarrierVertex>(iters, host0 && index == 0);
            });
        b.Connect<BarrierVertex, uint64_t>(entered, barrier);
        b.Connect<BarrierVertex, uint64_t>(fb.stream(), barrier);
        fb.ConnectLoop(b.OutputOf<uint64_t>(barrier));
        ctl.Start();
        handle->OnCompleted();
        ctl.Join();
      });
  BarrierRun run;
  run.missed_wakeups = cs.missed_wakeups;
  std::lock_guard<std::mutex> lock(g_mu);
  for (double v : g_iteration_micros) {
    run.stats.Add(v);
  }
  return run;
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  using namespace naiad;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--small") {
      small = true;
    }
  }
  bench::Header("Fig. 6b", "global barrier latency (§5.2)",
                "median per-iteration time stays sub-millisecond (753 us at 64 computers); "
                "the 95th percentile grows with cluster size (micro-stragglers)");
  bench::Row("%-10s %-9s %-16s %-11s %-10s %-10s %-10s %-10s %-10s %-7s", "processes",
             "workers", "strategy", "iterations", "p25 (us)", "median", "p75", "p95", "p99",
             "missed");
  bench::JsonReport json("fig6b");
  json.Config("workers_per_process", 2);
  const ProgressStrategy strategies[] = {
      ProgressStrategy::kDirect, ProgressStrategy::kLocalAcc, ProgressStrategy::kGlobalAcc,
      ProgressStrategy::kLocalGlobalAcc};
  const std::vector<uint32_t> proc_counts =
      small ? std::vector<uint32_t>{2u} : std::vector<uint32_t>{1u, 2u, 4u};
  uint64_t missed_total = 0;
  for (uint32_t procs : proc_counts) {
    const uint64_t iters = small ? 200 : procs == 1 ? 2000 : 600;
    for (ProgressStrategy strategy : strategies) {
      // One process never crosses TCP, so the strategy cannot matter there: run it once
      // under the default.
      if (procs == 1 && strategy != ProgressStrategy::kLocalGlobalAcc) {
        continue;
      }
      BarrierRun run = RunBarrier(procs, 2, iters, strategy);
      SampleStats& s = run.stats;
      missed_total += run.missed_wakeups;
      bench::Row("%-10u %-9u %-16s %-11llu %-10.1f %-10.1f %-10.1f %-10.1f %-10.1f %-7llu",
                 procs, procs * 2, ToString(strategy),
                 static_cast<unsigned long long>(s.Count()), s.Percentile(25), s.Median(),
                 s.Percentile(75), s.Percentile(95), s.Percentile(99),
                 static_cast<unsigned long long>(run.missed_wakeups));
      json.NewRow();
      json.Num("processes", procs);
      json.Num("workers", procs * 2);
      json.Str("strategy", ToString(strategy));
      json.Num("iterations", static_cast<double>(s.Count()));
      json.Num("p50_us", s.Median());
      json.Num("p95_us", s.Percentile(95));
      json.Num("p99_us", s.Percentile(99));
      json.Num("missed_wakeups", static_cast<double>(run.missed_wakeups));
      bench::MachineFields(json);
    }
  }
  bench::Row("missed_wakeups total: %llu", static_cast<unsigned long long>(missed_total));
  json.Write();
  return 0;
}
