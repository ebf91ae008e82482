// Tests for the multi-tenant job server: dynamic registration on a live cluster,
// concurrent jobs on shared workers and links, isolated teardown, the demux's stray-frame
// discipline, the hosts' event-driven wake-ups (no park may end by timeout with work
// waiting), and the §3.4 pause of one job while another keeps running.
//
// The seeded sweep registers several jobs at randomized times, tears a seed-chosen
// victim down mid-run, and requires every surviving job's output to be identical to a
// solo run of the same job — for every seed. Reproduction: `multi_job_test --seed=N`
// re-runs the sweep body for seed N alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/ft/checkpoint.h"
#include "src/net/cluster.h"
#include "src/net/job_server.h"
#include "src/net/transport.h"

namespace naiad {
namespace {

std::optional<uint64_t> g_seed_override;

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint64_t kEpochs = 3;
constexpr uint64_t kRecordsPerEpoch = 400;
constexpr uint64_t kKeys = 37;

ClusterOptions ServerOptions() {
  ClusterOptions opts;
  opts.processes = kProcesses;
  opts.workers_per_process = kWorkers;
  opts.batch_size = 64;  // small batches => many frames => many demux decisions
  // Observability on (no trace file): the sweep doubles as the TSan proof that the
  // per-job metrics/tracing paths are race-free under concurrent registration.
  opts.obs = {.metrics = true, .tracing = true};
  return opts;
}

// Deterministic per-job record stream: `salt` separates the jobs' key streams so any
// cross-job frame leak would corrupt a count.
uint64_t Record(uint64_t salt, uint32_t pid, uint64_t epoch, uint64_t i) {
  return (salt * 131 + pid * 977 + epoch * 31 + i) % kKeys;
}

std::map<uint64_t, uint64_t> ExpectedCounts(uint64_t salt, uint64_t epochs) {
  std::map<uint64_t, uint64_t> want;
  for (uint32_t pid = 0; pid < kProcesses; ++pid) {
    for (uint64_t e = 0; e < epochs; ++e) {
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        ++want[Record(salt, pid, e, i)];
      }
    }
  }
  return want;
}

class CountPerKeyVertex final : public UnaryVertex<uint64_t, std::pair<uint64_t, uint64_t>> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    auto [it, fresh] = counts_.try_emplace(t);
    if (fresh) {
      NotifyAt(t);
    }
    for (uint64_t k : batch) {
      ++it->second[k];
    }
  }
  void OnNotify(const Timestamp& t) override {
    for (auto [k, n] : counts_[t]) {
      output().Send(t, {k, n});
    }
    counts_.erase(t);
  }

 private:
  std::map<Timestamp, std::map<uint64_t, uint64_t>> counts_;
};

struct JobResult {
  std::mutex mu;
  std::condition_variable cv;
  std::map<uint64_t, uint64_t> counts;
  uint64_t epochs = 0;  // epochs the subscriber has delivered
};

// Builds the keyed-count dataflow on `ctl` and returns the input handle; records land in
// `out`. The exchange partitions by key, so every job continuously crosses the shared
// process links.
InputHandle<uint64_t>* BuildCountGraph(Controller& ctl, GraphBuilder& b, JobResult* out) {
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId count = b.NewStage<CountPerKeyVertex>(
      StageOptions{.name = "count"},
      [](uint32_t) { return std::make_unique<CountPerKeyVertex>(); });
  b.Connect<CountPerKeyVertex, uint64_t>(in, count, 0,
                                         [](const uint64_t& k) { return k; });
  Subscribe<std::pair<uint64_t, uint64_t>>(
      b.OutputOf<std::pair<uint64_t, uint64_t>>(count),
      [out](uint64_t epoch, std::vector<std::pair<uint64_t, uint64_t>>& recs) {
        std::lock_guard<std::mutex> lock(out->mu);
        for (auto [k, n] : recs) {
          out->counts[k] += n;
        }
        out->epochs = std::max(out->epochs, epoch + 1);
        out->cv.notify_all();
      });
  return handle.get();  // kept alive by the controller (KeepAlive in NewInput)
}

// A finite job: feed kEpochs epochs, close, drain.
JobServer::Body CountBody(uint64_t salt, JobResult* out) {
  return [salt, out](Controller& ctl) {
    GraphBuilder b(ctl);
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, b, out);
    ctl.Start();
    const uint32_t pid = ctl.config().process_id;
    for (uint64_t e = 0; e < kEpochs; ++e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(salt, pid, e, i));
      }
      handle->OnNext(std::move(data));
    }
    handle->OnCompleted();
    ctl.Join();
  };
}

// A long-running, cancellation-aware job: feeds epochs until torn down (or a generous
// cap, so a seed that tears down late still terminates). Join() returns via cancelled().
JobServer::Body VictimBody(uint64_t salt, JobResult* out) {
  return [salt, out](Controller& ctl) {
    GraphBuilder b(ctl);
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, b, out);
    ctl.Start();
    const uint32_t pid = ctl.config().process_id;
    for (uint64_t e = 0; e < 500 && !ctl.cancelled(); ++e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(salt, pid, e, i));
      }
      handle->OnNext(std::move(data));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    handle->OnCompleted();
    ctl.Join();
  };
}

const ClusterStats::JobStats* FindJob(const ClusterStats& stats, JobId id) {
  for (const auto& j : stats.jobs) {
    if (j.job == id) {
      return &j;
    }
  }
  return nullptr;
}

// Two jobs registered at different times genuinely overlap: job 1's process-0 driver
// refuses to close its input until job 2's body is live, so both completing proves the
// shared hosts ran them concurrently (a serial server would deadlock here).
TEST(JobServerTest, JobsRegisteredAtDifferentTimesRunConcurrently) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r1, r2;
  std::atomic<bool> second_live{false};

  const JobId j1 = server.Submit([&](Controller& ctl) {
    GraphBuilder b(ctl);
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, b, &r1);
    ctl.Start();
    const uint32_t pid = ctl.config().process_id;
    for (uint64_t e = 0; e < kEpochs; ++e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(1, pid, e, i));
      }
      handle->OnNext(std::move(data));
    }
    if (pid == 0) {
      while (!second_live.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    handle->OnCompleted();
    ctl.Join();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const JobId j2 = server.Submit([&](Controller& ctl) {
    second_live.store(true, std::memory_order_release);
    CountBody(2, &r2)(ctl);
  });
  ASSERT_NE(j1, j2);

  server.Wait(j1);
  server.Wait(j2);
  const ClusterStats stats = server.Stop();

  EXPECT_EQ(r1.counts, ExpectedCounts(1, kEpochs));
  EXPECT_EQ(r2.counts, ExpectedCounts(2, kEpochs));
  ASSERT_EQ(stats.jobs.size(), 2u);
  for (JobId id : {j1, j2}) {
    const auto* js = FindJob(stats, id);
    ASSERT_NE(js, nullptr);
    EXPECT_GT(js->data_frames, 0u) << "job " << id << " never crossed the wire";
    EXPECT_FALSE(js->torn_down);
  }
  EXPECT_EQ(stats.stray_frames_dropped, 0u);
  EXPECT_EQ(stats.stash_overflow_drops, 0u);
}

// Regression for the completion latch: ClusterControl's finished_ flag used to be
// effectively server-global, so the first job's termination verdict left the control
// plane considering everything finished and a job registered afterwards hung in its
// barrier. Registration after a completed job must work indefinitely.
TEST(JobServerTest, JobRegistersAndRunsAfterPreviousJobFinished) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r1, r2, r3;
  const JobId j1 = server.Submit(CountBody(7, &r1));
  server.Wait(j1);
  EXPECT_EQ(r1.counts, ExpectedCounts(7, kEpochs));

  const JobId j2 = server.Submit(CountBody(8, &r2));
  server.Wait(j2);
  EXPECT_EQ(r2.counts, ExpectedCounts(8, kEpochs));

  const JobId j3 = server.Submit(CountBody(9, &r3));
  server.Wait(j3);
  const ClusterStats stats = server.Stop();
  EXPECT_EQ(r3.counts, ExpectedCounts(9, kEpochs));
  ASSERT_EQ(stats.jobs.size(), 3u);
  for (const auto& js : stats.jobs) {
    EXPECT_FALSE(js.torn_down);
  }
}

// Stray-frame regression: frames addressed to a torn-down job, or to a job id no
// registration ever allocated, are dropped deterministically — counted, and the server
// keeps serving new jobs afterwards.
TEST(JobServerTest, FramesForRetiredAndUnknownJobsAreDroppedAndCounted) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r1, r2;
  const JobId j1 = server.Submit(CountBody(3, &r1));
  server.Wait(j1);

  // A late frame for the retired job, injected raw at the transport layer (the shape a
  // slow peer's post-verdict straggler takes), and one for a never-allocated id.
  ByteWriter w1;
  w1.WriteU32(42);
  server.transport(1).Send(0, FrameType::kData, std::move(w1.buffer()), j1);
  ByteWriter w2;
  w2.WriteU32(43);
  server.transport(1).Send(0, FrameType::kData, std::move(w2.buffer()), 9999);
  for (int spin = 0; spin < 3000 && server.stray_frames_dropped() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server.stray_frames_dropped(), 2u);

  // The drops are isolated: a job registered afterwards runs to completion.
  const JobId j2 = server.Submit(CountBody(4, &r2));
  server.Wait(j2);
  const ClusterStats stats = server.Stop();
  EXPECT_EQ(r2.counts, ExpectedCounts(4, kEpochs));
  EXPECT_GE(stats.stray_frames_dropped, 2u);
}

// The seeded sweep: kJobs jobs registered at seed-chosen times, one seed-chosen victim
// torn down mid-run. Every surviving job's counts must equal a solo run's — the
// isolation property under test — for every seed.
void RunMultiJobSweep(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
  constexpr uint32_t kJobs = 3;
  const auto salt = [](uint32_t j) { return uint64_t{11} + 17 * j; };

  JobServer server(ServerOptions());
  server.Start();
  JobResult results[kJobs];
  JobId ids[kJobs] = {};
  const uint32_t victim = static_cast<uint32_t>(rng() % kJobs);
  for (uint32_t j = 0; j < kJobs; ++j) {
    std::this_thread::sleep_for(std::chrono::microseconds(rng() % 3000));
    ids[j] = j == victim ? server.Submit(VictimBody(salt(j), &results[j]))
                         : server.Submit(CountBody(salt(j), &results[j]));
  }
  // Tear the victim down mid-run (its body feeds for ~500 ms; the teardown lands within
  // ~30 ms of its registration).
  std::this_thread::sleep_for(std::chrono::microseconds(rng() % 25000));
  server.Teardown(ids[victim]);
  for (uint32_t j = 0; j < kJobs; ++j) {
    server.Wait(ids[j]);
  }
  const ClusterStats stats = server.Stop();

  for (uint32_t j = 0; j < kJobs; ++j) {
    if (j == victim) {
      continue;
    }
    std::lock_guard<std::mutex> lock(results[j].mu);
    EXPECT_EQ(results[j].counts, ExpectedCounts(salt(j), kEpochs))
        << "seed " << seed << " job " << j << " diverged from its solo run";
  }
  const auto* vs = FindJob(stats, ids[victim]);
  ASSERT_NE(vs, nullptr) << "seed " << seed;
  EXPECT_TRUE(vs->torn_down) << "seed " << seed;
  EXPECT_EQ(stats.jobs.size(), size_t{kJobs}) << "seed " << seed;
  EXPECT_EQ(stats.duplicate_frames_dropped, 0u) << "seed " << seed;
}

// The solo-run baseline the sweep's expectation stands in for: a lone job on a fresh
// server produces exactly ExpectedCounts, so "equal to ExpectedCounts" in the sweep is
// "byte-identical to the solo run".
TEST(JobServerSweep, SoloRunMatchesExpectedCounts) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r;
  const JobId id = server.Submit(CountBody(11, &r));
  server.Wait(id);
  server.Stop();
  EXPECT_EQ(r.counts, ExpectedCounts(11, kEpochs));
}

class MultiJobSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiJobSweep, SurvivorsMatchSoloRuns) {
  if (g_seed_override.has_value()) {
    RunMultiJobSweep(*g_seed_override);
    return;
  }
  constexpr uint64_t kSeedsPerShard = 3;
  const uint64_t base = GetParam() * kSeedsPerShard;
  for (uint64_t s = base; s < base + kSeedsPerShard; ++s) {
    SCOPED_TRACE("seed " + std::to_string(s));
    RunMultiJobSweep(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiJobSweep, ::testing::Range(uint64_t{0}, uint64_t{4}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Shard" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------------------
// Event-driven progress path. Every producer of work — including a progress accumulator
// that starts holding updates on a receiver thread — must notify the shared event count,
// so a parked host never sleeps out its idle timeout while work waits. The hosts audit
// each park (WakeupAudit): one that times out and is followed by a pass that runs work or
// flushes held progress is a missed wakeup. These loops alternate between every process
// parking and a progress round trip waking it, for every strategy, and
// require zero missed wakeups. No wall-clock bound: a missed wakeup fails the count, not a
// latency threshold. Fault-plan runs are exempt by design — there BeforeIdleFlush defers
// idle flushes and relies on the timeout to retry them.

constexpr uint64_t kWakeEpochs = 200;
constexpr uint64_t kWakeRecords = 8;  // per process per epoch
constexpr uint64_t kWakeKeys = 16;
constexpr uint64_t kBarrierIterations = 200;

ClusterOptions WakeOptions(ProgressStrategy strategy) {
  ClusterOptions opts;
  opts.processes = 2;
  opts.workers_per_process = 1;
  opts.strategy = strategy;
  return opts;
}

uint64_t WakeRecord(uint32_t pid, uint64_t epoch, uint64_t i) {
  return (pid * 7 + epoch * 3 + i) % kWakeKeys;
}

// Closed-loop Count -> Subscribe: both processes feed epoch e only after the subscriber
// (process 0) has delivered epoch e - 1, so between epochs every host parks and each
// epoch's completion crosses the progress protocol.
struct ClosedLoop {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t delivered = 0;
  std::map<uint64_t, std::map<uint64_t, uint64_t>> got;  // epoch -> key -> count
};

// Feeds `epochs` epochs of the closed loop on `ctl` (one process's body), then drains.
// `before_epoch(e)` runs before epoch e is fed.
void RunClosedLoopBody(Controller& ctl, ClosedLoop& loop, uint64_t epochs,
                       const std::function<void(uint64_t)>& before_epoch = nullptr) {
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId count = b.NewStage<CountPerKeyVertex>(
      StageOptions{.name = "count"},
      [](uint32_t) { return std::make_unique<CountPerKeyVertex>(); });
  b.Connect<CountPerKeyVertex, uint64_t>(in, count, 0,
                                         [](const uint64_t& k) { return k; });
  Subscribe<std::pair<uint64_t, uint64_t>>(
      b.OutputOf<std::pair<uint64_t, uint64_t>>(count),
      [&loop](uint64_t epoch, std::vector<std::pair<uint64_t, uint64_t>>& recs) {
        std::lock_guard<std::mutex> lock(loop.mu);
        for (auto [k, n] : recs) {
          loop.got[epoch][k] += n;
        }
        loop.delivered = epoch + 1;
        loop.cv.notify_all();
      });
  ctl.Start();
  const uint32_t pid = ctl.config().process_id;
  for (uint64_t e = 0; e < epochs; ++e) {
    if (before_epoch) {
      before_epoch(e);
    }
    {
      std::unique_lock<std::mutex> lock(loop.mu);
      loop.cv.wait(lock, [&] { return loop.delivered >= e; });
    }
    std::vector<uint64_t> data;
    for (uint64_t i = 0; i < kWakeRecords; ++i) {
      data.push_back(WakeRecord(pid, e, i));
    }
    handle->OnNext(std::move(data));
  }
  handle->OnCompleted();
  ctl.Join();
}

// The closed loop's expected output for epoch e: the records both processes fed.
std::map<uint64_t, uint64_t> ClosedLoopEpoch(uint64_t e) {
  std::map<uint64_t, uint64_t> want;
  for (uint32_t pid = 0; pid < 2; ++pid) {
    for (uint64_t i = 0; i < kWakeRecords; ++i) {
      ++want[WakeRecord(pid, e, i)];
    }
  }
  return want;
}

ClusterStats RunClosedLoop(ProgressStrategy strategy, ClosedLoop& loop) {
  return Cluster::Run(WakeOptions(strategy), [&loop](Controller& ctl) {
    RunClosedLoopBody(ctl, loop, kWakeEpochs);
  });
}

// Fig. 6b's notify-only barrier: every vertex requests a notification per iteration and
// re-requests the next one from OnNotify, so each iteration is one cluster-wide progress
// round with no data at all.
class WakeBarrierVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  explicit WakeBarrierVertex(std::atomic<uint64_t>* notified) : notified_(notified) {}
  void OnRecv(const Timestamp&, std::vector<uint64_t>&) override {}
  void OnNotify(const Timestamp& t) override {
    notified_->fetch_add(1, std::memory_order_relaxed);
    if (t.coords.back() + 1 < kBarrierIterations) {
      NotifyAt(t.Incremented());
    }
  }

 private:
  std::atomic<uint64_t>* notified_;
};

ClusterStats RunBarrierLoop(ProgressStrategy strategy, std::atomic<uint64_t>* notified) {
  return Cluster::Run(WakeOptions(strategy), [notified](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<uint64_t>(b);
    LoopContext loop(b, 0, "barrier");
    FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
    Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
    StageId barrier = b.NewStage<WakeBarrierVertex>(
        StageOptions{.name = "barrier",
                     .depth = 1,
                     .initial_notifications = {Timestamp(0, {0})}},
        [notified](uint32_t) { return std::make_unique<WakeBarrierVertex>(notified); });
    b.Connect<WakeBarrierVertex, uint64_t>(entered, barrier);
    b.Connect<WakeBarrierVertex, uint64_t>(fb.stream(), barrier);
    fb.ConnectLoop(b.OutputOf<uint64_t>(barrier));
    ctl.Start();
    handle->OnCompleted();
    ctl.Join();
  });
}

class EventDrivenProgress : public ::testing::TestWithParam<ProgressStrategy> {};

TEST_P(EventDrivenProgress, NoMissedWakeups) {
  ClosedLoop loop;
  const ClusterStats count_stats = RunClosedLoop(GetParam(), loop);
  for (uint64_t e = 0; e < kWakeEpochs; ++e) {
    ASSERT_EQ(loop.got[e], ClosedLoopEpoch(e)) << "epoch " << e;
  }
  EXPECT_EQ(count_stats.missed_wakeups, 0u) << "Count->Subscribe loop";

  std::atomic<uint64_t> notified{0};
  const ClusterStats barrier_stats = RunBarrierLoop(GetParam(), &notified);
  // Two vertices (one per process), one notification per iteration each.
  EXPECT_EQ(notified.load(), 2 * kBarrierIterations);
  EXPECT_EQ(barrier_stats.missed_wakeups, 0u) << "barrier loop";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EventDrivenProgress,
    ::testing::Values(ProgressStrategy::kDirect, ProgressStrategy::kLocalAcc,
                      ProgressStrategy::kGlobalAcc, ProgressStrategy::kLocalGlobalAcc),
    [](const ::testing::TestParamInfo<ProgressStrategy>& info) {
      std::string name = ToString(info.param);
      std::erase(name, '+');  // "Local+GlobalAcc" is not a valid test name
      return name;
    });

// ---------------------------------------------------------------------------------------
// The §3.4 pause on shared hosts. Job A pauses its workers mid-run (PauseAndDrain) and
// holds the pause while job B, on the same hosts and links, completes every one of its
// epochs; A then captures a checkpoint image, resumes and finishes. The pause must
// return, both outputs must equal their solo runs, and no host park may end by timeout
// with work waiting. No latency bound: the watchdog only turns a hung pause into a
// failure instead of a stuck test.

constexpr uint64_t kPausedLoopEpochs = 10;  // job B's epochs, all run while A is paused

TEST(JobServerPause, PausedJobCheckpointsWhileOtherJobRuns) {
  std::mutex guard_mu;
  std::condition_variable guard_cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(guard_mu);
    if (!guard_cv.wait_for(lock, std::chrono::seconds(120), [&] { return finished; })) {
      std::fprintf(stderr, "PausedJobCheckpointsWhileOtherJobRuns: hung for 120 s "
                           "(a paused job that never drains, or one that stalls the "
                           "other job)\n");
      std::abort();
    }
  });

  JobServer server(ServerOptions());
  server.Start();
  JobResult a;
  ClosedLoop b;
  std::atomic<uint32_t> a_paused{0};
  std::atomic<uint32_t> a_images{0};

  const JobId ja = server.Submit([&](Controller& ctl) {
    GraphBuilder gb(ctl);
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, gb, &a);
    ctl.Start();
    const uint32_t pid = ctl.config().process_id;
    const auto feed = [&](uint64_t e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(5, pid, e, i));
      }
      handle->OnNext(std::move(data));
    };
    feed(0);
    {
      // Epoch 0 has drained on every process, so no message of this job is in flight:
      // the quiet that PauseAndDrain asks of producers outside this process.
      std::unique_lock<std::mutex> lock(a.mu);
      a.cv.wait(lock, [&] { return a.epochs >= 1; });
    }
    ctl.PauseAndDrain();
    a_paused.fetch_add(1, std::memory_order_acq_rel);
    {
      std::unique_lock<std::mutex> lock(b.mu);
      b.cv.wait(lock, [&] { return b.delivered >= kPausedLoopEpochs; });
    }
    if (!CheckpointProcess(ctl).empty()) {  // pauses (already paused), captures, resumes
      a_images.fetch_add(1, std::memory_order_acq_rel);
    }
    for (uint64_t e = 1; e < kEpochs; ++e) {
      feed(e);
    }
    handle->OnCompleted();
    ctl.Join();
  });
  const JobId jb = server.Submit([&](Controller& ctl) {
    RunClosedLoopBody(ctl, b, kPausedLoopEpochs, [&](uint64_t e) {
      if (e == 0) {
        while (a_paused.load(std::memory_order_acquire) < kProcesses) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  });
  server.Wait(ja);
  server.Wait(jb);
  const ClusterStats stats = server.Stop();
  {
    std::lock_guard<std::mutex> lock(guard_mu);
    finished = true;
  }
  guard_cv.notify_all();
  watchdog.join();

  EXPECT_EQ(a_images.load(), kProcesses);
  EXPECT_EQ(a.counts, ExpectedCounts(5, kEpochs));
  for (uint64_t e = 0; e < kPausedLoopEpochs; ++e) {
    EXPECT_EQ(b.got[e], ClosedLoopEpoch(e)) << "job B epoch " << e;
  }
  EXPECT_EQ(stats.missed_wakeups, 0u);
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest flags, leaves ours
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      naiad::g_seed_override = std::strtoull(argv[i] + 7, nullptr, 0);
      std::fprintf(stderr, "multi_job_test: replaying seed %llu only\n",
                   static_cast<unsigned long long>(*naiad::g_seed_override));
    }
  }
  return RUN_ALL_TESTS();
}
