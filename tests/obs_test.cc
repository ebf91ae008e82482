// Tests for the observability layer (src/obs): histogram bucketing and cross-block
// merging, the disabled-registry contract, trace-ring wrap semantics, Chrome trace-event
// output, end-to-end metric/trace collection from a real computation, and the central
// accumulator's hold-time histogram on a two-process cluster.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/core/io.h"
#include "src/core/stage.h"
#include "src/net/cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace naiad {
namespace {

TEST(LogHistogramTest, BucketsByBitWidthAndSums) {
  obs::LogHistogram h;
  h.Record(0);   // bucket 0
  h.Record(1);   // bucket 1: [1, 2)
  h.Record(3);   // bucket 2: [2, 4)
  h.Record(3);
  h.Record(900);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.sum(), 907u);
}

TEST(SnapshotBuilderTest, MergesHistogramsAtBucketGranularityAndSumsCounters) {
  obs::LogHistogram a;
  obs::LogHistogram b;
  for (int i = 0; i < 97; ++i) {
    a.Record(3);  // bucket 2
  }
  for (int i = 0; i < 3; ++i) {
    b.Record(1000000);  // bucket 20
  }
  obs::SnapshotBuilder builder;
  builder.Histogram("lat", a);
  builder.Histogram("lat", b);  // same name: must merge raw buckets, not percentiles
  builder.Counter("n", 2);
  builder.Counter("n", 3);
  obs::ObsSnapshot snap = builder.Finalize();
  EXPECT_EQ(snap.counter("n"), 5u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramSnapshot& s = snap.histograms[0];
  EXPECT_EQ(s.name, "lat");
  EXPECT_EQ(s.count, 100u);
  // p50 sits in the dense low bucket; p99 (rank 99 of 100, outliers at ranks 98-100)
  // must land in the outlier bucket — which merging finalized per-histogram p99s
  // (97 at ~3 in one block, 3 at ~1e6 in the other) could not produce.
  EXPECT_LT(s.p50, 10.0);
  EXPECT_GT(s.p99, 100000.0);
  EXPECT_GE(s.max, 1000000.0);
  EXPECT_NEAR(s.mean, (97 * 3 + 3 * 1000000.0) / 100.0, 1.0);
}

TEST(MetricsTest, DisabledRegistryHandsOutNullBlocks) {
  obs::Metrics m(/*enabled=*/false, /*workers=*/4, /*links=*/4);
  EXPECT_FALSE(m.enabled());
  EXPECT_EQ(m.worker(0), nullptr);
  EXPECT_EQ(m.link(3), nullptr);
  EXPECT_EQ(m.process(), nullptr);
  EXPECT_TRUE(m.Snapshot(0).empty());
}

TEST(MetricsTest, EnabledRegistryHasDistinctCacheLinePaddedBlocks) {
  obs::Metrics m(/*enabled=*/true, /*workers=*/2, /*links=*/2);
  ASSERT_NE(m.worker(0), nullptr);
  ASSERT_NE(m.worker(1), nullptr);
  EXPECT_NE(m.worker(0), m.worker(1));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.worker(0)) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.worker(1)) % 64, 0u);
  m.worker(0)->items_run.fetch_add(7, std::memory_order_relaxed);
  m.worker(1)->notifications_delivered.fetch_add(2, std::memory_order_relaxed);
  obs::ObsSnapshot snap = m.Snapshot(0);
  EXPECT_EQ(snap.counter("items_run"), 7u);
  EXPECT_EQ(snap.counter("notifications_delivered"), 2u);
  EXPECT_EQ(snap.counter("items_run.w0"), 7u);
  EXPECT_EQ(snap.counter("notifications_delivered.w1"), 2u);
}

TEST(TraceRingTest, WrapKeepsNewestAndCountsDropped) {
  obs::TraceRing ring("t", 4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Record(obs::TraceKind::kFrontierAdvance, /*ts_ns=*/100 + i, 0, i, 0, 0);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<obs::TraceEvent> events = ring.Drain();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a0, 6 + i);  // oldest-first, newest retained
  }
}

TEST(TracerTest, DisabledTracerIsInert) {
  obs::Tracer t(/*enabled=*/false, 64);
  EXPECT_EQ(t.RegisterThread("w"), nullptr);
  t.Control(obs::TraceKind::kEpochOpen, 0, 0, 0);  // must not crash
  EXPECT_EQ(t.MinTimestampNs(), UINT64_MAX);
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return "";
  }
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  return contents;
}

TEST(TracerTest, WriteFileEmitsChromeTraceEventsWithThreadNames) {
  obs::Tracer t(/*enabled=*/true, 64);
  obs::TraceRing* ring = t.RegisterThread("worker0");
  ASSERT_NE(ring, nullptr);
  const uint64_t t0 = obs::MonotonicNs();
  ring->Record(obs::TraceKind::kFrontierAdvance, t0 + 1000, 0, /*stage=*/3, /*epoch=*/1, 0);
  ring->Record(obs::TraceKind::kNotifyDelivered, t0 + 2000, 500, 3, 1, 250);
  t.Control(obs::TraceKind::kEpochOpen, /*stage=*/0, /*epoch=*/1, 0);
  t.ControlSpan(obs::TraceKind::kCheckpoint, t0, t0 + 5000, /*bytes=*/42, 0, 0);

  const std::string path = ::testing::TempDir() + "/naiad_obs_test_trace.json";
  ASSERT_TRUE(obs::Tracer::WriteFile(path, {{0, &t}}));
  const std::string json = ReadWholeFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("worker0"), std::string::npos);
  EXPECT_NE(json.find("\"frontier\""), std::string::npos);
  EXPECT_NE(json.find("\"notify\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_open\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
  EXPECT_EQ(json.find("trace_dropped"), std::string::npos);
  // Balanced braces/brackets — a cheap structural sanity check (CI runs a real JSON
  // parser over traces via tools/check_trace.py).
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

// End to end: a notify-using computation with observability on populates the worker
// metrics and writes a loadable trace with frontier/notify events.
class NotifyCountVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    auto [it, fresh] = counts_.try_emplace(t, 0);
    if (fresh) {
      NotifyAt(t);
    }
    it->second += batch.size();
  }
  void OnNotify(const Timestamp& t) override {
    output().Send(t, counts_[t]);
    counts_.erase(t);
  }

 private:
  std::map<Timestamp, uint64_t> counts_;
};

TEST(ObsEndToEndTest, ComputationPopulatesMetricsAndTrace) {
  const std::string path = ::testing::TempDir() + "/naiad_obs_e2e_trace.json";
  Config cfg{.workers_per_process = 2};
  cfg.obs.metrics = true;
  cfg.obs.tracing = true;
  cfg.obs.trace_path = path;
  std::atomic<uint64_t> total{0};
  {
    Controller ctl(cfg);
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<uint64_t>(b);
    StageId counter = b.NewStage<NotifyCountVertex>(
        StageOptions{.name = "count", .parallelism = 1},
        [](uint32_t) { return std::make_unique<NotifyCountVertex>(); });
    b.Connect<NotifyCountVertex, uint64_t>(in, counter);
    Subscribe<uint64_t>(b.OutputOf<uint64_t>(counter),
                        [&](uint64_t, std::vector<uint64_t>& recs) {
                          for (uint64_t v : recs) {
                            total.fetch_add(v);
                          }
                        });
    ctl.Start();
    for (uint64_t e = 0; e < 3; ++e) {
      handle->OnNext({e, e + 1});
    }
    handle->OnCompleted();
    ctl.Join();

    obs::ObsSnapshot snap = ctl.obs().metrics().Snapshot(0);
    EXPECT_GT(snap.counter("items_run"), 0u);
    EXPECT_GT(snap.counter("notifications_delivered"), 0u);
    EXPECT_GT(snap.counter("progress_flushes"), 0u);
    bool saw_run_time = false;
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      saw_run_time = saw_run_time || (h.name == "run_time_ns" && h.count > 0);
    }
    EXPECT_TRUE(saw_run_time);
  }  // ~Controller → Stop() → trace written
  EXPECT_EQ(total.load(), 2u * 3u);  // per-epoch record counts: 2 records x 3 epochs
  const std::string json = ReadWholeFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"frontier\""), std::string::npos);
  EXPECT_NE(json.find("\"notify\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_open\""), std::string::npos);
  std::remove(path.c_str());
}

// The central accumulator (process 0, Local+GlobalAcc) records how long each batch it
// held waited for its flush. Every epoch's retirements from process 1 arrive on a
// receiver thread and are held, so a multi-epoch run must record holds — and no more
// holds than central flushes, since each flush closes at most one hold.
TEST(ObsEndToEndTest, CentralAccumulatorRecordsHoldTime) {
  ClusterOptions opts;
  opts.processes = 2;
  opts.workers_per_process = 1;
  opts.strategy = ProgressStrategy::kLocalGlobalAcc;
  opts.obs.metrics = true;
  std::atomic<uint64_t> total{0};
  const ClusterStats stats = Cluster::Run(opts, [&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<uint64_t>(b);
    StageId counter = b.NewStage<NotifyCountVertex>(
        StageOptions{.name = "count", .parallelism = 1},
        [](uint32_t) { return std::make_unique<NotifyCountVertex>(); });
    b.Connect<NotifyCountVertex, uint64_t>(in, counter);
    Subscribe<uint64_t>(b.OutputOf<uint64_t>(counter),
                        [&](uint64_t, std::vector<uint64_t>& recs) {
                          for (uint64_t v : recs) {
                            total.fetch_add(v);
                          }
                        });
    ctl.Start();
    for (uint64_t e = 0; e < 20; ++e) {
      handle->OnNext({e, e + 1});
    }
    handle->OnCompleted();
    ctl.Join();
  });
  EXPECT_EQ(total.load(), 2u * 2u * 20u);  // 2 records x 2 processes x 20 epochs
  const obs::HistogramSnapshot* hold = nullptr;
  const obs::HistogramSnapshot* emits = nullptr;
  for (const obs::HistogramSnapshot& h : stats.obs.histograms) {
    if (h.name == "progress_central_hold_ns") {
      hold = &h;
    } else if (h.name == "progress_emit_updates") {
      emits = &h;
    }
  }
  ASSERT_NE(hold, nullptr);
  ASSERT_NE(emits, nullptr);
  EXPECT_GT(hold->count, 0u);
  EXPECT_LE(hold->count, emits->count);
  EXPECT_EQ(stats.missed_wakeups, 0u);
}

// The disabled configuration must stay disabled end to end (no trace file, no metrics).
TEST(ObsEndToEndTest, DisabledByDefault) {
  Controller ctl(Config{.workers_per_process = 1});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  Subscribe<uint64_t>(Stream<uint64_t>(in), [](uint64_t, std::vector<uint64_t>&) {});
  ctl.Start();
  handle->OnNext({1, 2, 3});
  handle->OnCompleted();
  ctl.Join();
  EXPECT_FALSE(ctl.obs().metrics().enabled());
  EXPECT_FALSE(ctl.obs().tracer().enabled());
  EXPECT_TRUE(ctl.obs().metrics().Snapshot(0).empty());
}

}  // namespace
}  // namespace naiad
