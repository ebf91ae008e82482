// The repository benchmark: one binary, one workload per invocation.
//
//   naiad_perfbench --workload exchange|stream|iterate|recover --seed N --seconds S
//                   --trace 0|1 [--out DIR] [--stream-high-rate R]
//
// Prints human-readable lines (every end-to-end metric by name and unit, further named
// figures, and in a traced run the per-layer metrics and span self times), then, as the
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 on any wrong or
// missing result. perfbench/run.py builds and drives it.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Every per-layer metric, so that each traced run reports the full set: a layer a
// workload does not exercise reports 0 (listed under "not exercised").
struct Name {
  const char* name;
  const char* unit;
};
constexpr Name kLayerMetrics[] = {
    {"net.job_server.start_s", "s"},
    {"core.controller.build_s", "s"},
    {"core.controller.join_s", "s"},
    {"net.job_server.stop_s", "s"},
    {"net.job_server.stray_frames_dropped", "count"},
    {"core.io.feed_ns_per_record", "ns"},
    {"core.io.feed_p99_us", "us"},
    {"core.progress.frontier_wait_p50_us", "us"},
    {"core.progress.frontier_wait_p99_us", "us"},
    {"net.progress_router.progress_bytes", "B"},
    {"net.progress_router.progress_frames", "count"},
    {"net.progress_router.bytes_per_epoch", "B"},
    {"core.worker.items_run", "count"},
    {"core.worker.notifications_delivered", "count"},
    {"core.worker.dispatch_latency_p50_ns", "ns"},
    {"core.worker.dispatch_latency_p99_ns", "ns"},
    {"core.worker.notify_lag_p50_ns", "ns"},
    {"core.worker.notify_lag_p99_ns", "ns"},
    {"core.worker.run_time_p50_ns", "ns"},
    {"core.worker.progress_flushes", "count"},
    {"op.recv_busy_s", "s"},
    {"op.notify_busy_s", "s"},
    {"op.records_in", "count"},
    {"net.transport.data_bytes", "B"},
    {"net.transport.data_frames", "count"},
    {"net.transport.bytes_per_frame", "B"},
    {"net.transport.writev_batch_p50", "count"},
    {"net.transport.send_queue_depth_p99", "count"},
    {"net.transport.send_queue_hwm_bytes", "B"},
    {"net.transport.duplicate_frames_dropped", "count"},
    {"ser.wire_bytes_per_record", "B"},
    {"algo.serial_ref_s", "s"},
    {"algo.speedup_vs_serial", "x"},
    {"ft.detection_s", "s"},
    {"ft.replayed_frames_dropped", "count"},
    {"ft.selective_recoveries", "count"},
    {"ft.checkpoint_epochs", "count"},
    {"ft.log_bytes_peak", "B"},
    {"gen.late_p50_us", "us"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_share", "share"},
    {"trace.blocking_path_gap_share", "share"},
};

bool Parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--out") {
      a.out_dir = v;
    } else if (k == "--stream-high-rate") {
      a.stream_high_rate = std::atof(v);
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && (argc % 2) == 1;
}

void PrintMetric(const char* kind, const Metric& m) {
  std::printf("%-6s %-40s %18.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
}

void PrintJsonMetrics(const std::vector<Metric>& ms) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!Parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload exchange|stream|iterate|recover --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--stream-high-rate R]\n",
                 argv[0]);
    return 2;
  }
  ::mkdir(args.out_dir.c_str(), 0755);
  Result r;
  if (args.workload == "exchange") {
    r = RunExchange(args);
  } else if (args.workload == "stream") {
    r = RunStream(args);
  } else if (args.workload == "iterate") {
    r = RunIterate(args);
  } else if (args.workload == "recover") {
    r = RunRecover(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint64_t failed = r.wrong + r.late;
  r.Info("failed_share",
         r.attempted == 0 ? 1.0
                          : static_cast<double>(failed) / static_cast<double>(r.attempted),
         "share");

  std::printf("\n== %s (seed %llu, %.0f s, trace %d)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const Metric& m : r.e2e) {
    PrintMetric("e2e", m);
  }
  for (const Metric& m : r.info) {
    PrintMetric("info", m);
  }
  std::vector<Metric> layer;
  if (args.trace) {
    std::string not_exercised;
    for (const Name& n : kLayerMetrics) {
      Metric m{n.name, 0, n.unit};
      bool found = false;
      for (const Metric& got : r.layer) {
        if (got.name == n.name) {
          m = got;
          found = true;
        }
      }
      if (!found) {
        not_exercised += std::string(" ") + n.name;
      }
      layer.push_back(m);
      PrintMetric("layer", m);
    }
    if (!not_exercised.empty()) {
      std::printf("not exercised by %s (reported as 0):%s\n", args.workload.c_str(),
                  not_exercised.c_str());
    }
    const std::vector<SpanRec> spans = Spans::Collect();
    const std::string path =
        args.out_dir + "/spans-" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
    WriteSpans(path, spans);
    std::printf("%zu spans written to %s\n", spans.size(), path.c_str());
    PrintSelfTimes(spans);
  }
  const bool correct = r.wrong == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(failed));
  PrintJsonMetrics(args.trace ? layer : r.e2e);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
