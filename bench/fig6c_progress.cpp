// Figure 6c (§5.3): progress-tracking protocol traffic under the §3.3 optimizations.
//
// Runs the same weakly-connected-components computation on a random graph under each
// accumulation strategy and reports the bytes of progress-protocol traffic sent over the
// wire. Paper's shape: accumulation cuts traffic by one to two orders of magnitude
// (None >> GlobalAcc, LocalAcc > Local+GlobalAcc), with no significant change in results
// or (for local accumulation) running time.
//
// Rows land in BENCH_fig6c.json keyed by NAIAD_BENCH_LABEL, each stamped with the
// machine it ran on.

#include <mutex>
#include <set>

#include "bench/bench_util.h"
#include "src/algo/wcc.h"
#include "src/core/io.h"
#include "src/gen/graphs.h"
#include "src/net/cluster.h"

namespace naiad {
namespace {

struct Outcome {
  ClusterStats stats;
  uint64_t components = 0;
};

Outcome RunWcc(ProgressStrategy strategy, uint64_t nodes, uint64_t edges) {
  Outcome out;
  std::mutex mu;
  std::set<uint64_t> components;
  out.stats = Cluster::Run(
      ClusterOptions{.processes = 4, .workers_per_process = 1, .strategy = strategy},
      [&](Controller& ctl) {
        GraphBuilder b(ctl);
        auto [in, handle] = NewInput<Edge>(b);
        Subscribe<NodeLabel>(ConnectedComponents(in),
                             [&](uint64_t, std::vector<NodeLabel>& recs) {
                               std::lock_guard<std::mutex> lock(mu);
                               for (const NodeLabel& nl : recs) {
                                 components.insert(nl.second);
                               }
                             });
        ctl.Start();
        // SPMD: each process generates its shard of the same graph.
        const uint32_t pid = ctl.config().process_id;
        handle->OnNext(Shard([&] { return RandomGraph(nodes, edges, 11); }, pid, 4));
        handle->OnCompleted();
        ctl.Join();
      });
  out.components = components.size();
  return out;
}

}  // namespace
}  // namespace naiad

int main() {
  using namespace naiad;
  bench::Header("Fig. 6c", "progress protocol optimizations (§5.3, §3.3)",
                "accumulating updates (per-process and/or at a central accumulator) "
                "reduces protocol traffic by 1-2 orders of magnitude on a WCC run");
  constexpr uint64_t kNodes = 20000;
  constexpr uint64_t kEdges = 60000;
  bench::Row("WCC on a random graph: %llu nodes, %llu edges; 4 processes x 1 worker",
             static_cast<unsigned long long>(kNodes),
             static_cast<unsigned long long>(kEdges));

  bench::JsonReport report("fig6c");
  report.Config("nodes", static_cast<double>(kNodes));
  report.Config("edges", static_cast<double>(kEdges));
  report.Config("processes", 4.0);

  bench::Row("%-18s %-12s %-9s %-9s %-11s", "strategy", "progress KB", "occ peak", "seconds",
             "components");
  double none_kb = 0;
  for (ProgressStrategy s :
       {ProgressStrategy::kDirect, ProgressStrategy::kGlobalAcc, ProgressStrategy::kLocalAcc,
        ProgressStrategy::kLocalGlobalAcc}) {
    Outcome o = RunWcc(s, kNodes, kEdges);
    const double kb = o.stats.progress_bytes / 1024.0;
    if (s == ProgressStrategy::kDirect) {
      none_kb = kb;
    }
    bench::Row("%-18s %-12.1f %-9llu %-9.2f %-11llu", ToString(s), kb,
               static_cast<unsigned long long>(o.stats.occ_map_peak), o.stats.elapsed_seconds,
               static_cast<unsigned long long>(o.components));
    report.NewRow();
    report.Str("strategy", ToString(s));
    report.Num("progress_kb", kb);
    report.Num("occ_map_peak", static_cast<double>(o.stats.occ_map_peak));
    report.Num("frames", static_cast<double>(o.stats.progress_frames));
    report.Num("seconds", o.stats.elapsed_seconds);
    report.Num("components", static_cast<double>(o.components));
    bench::MachineFields(report);
  }
  if (none_kb > 0) {
    bench::Row("(reduction factors are relative to 'None' = %.1f KB)", none_kb);
  }
  report.Write();
  return 0;
}
