// recover: one kill and a selective (Falkirk Wheel) recovery of a forked 3-process word
// count, 1 worker per process — the only workload that runs src/ft.
//
// The cluster of bench/recovery_selective.cpp at half its input, so that several kill
// trials fit in one run: 16 epochs of 131072 words per process, cluster checkpoints
// after epochs 7 and 15, a per-record operator of 128 hash rounds so that re-executing
// lost epochs costs real CPU, and one member SIGKILLed while feeding epoch 14. Recovery
// rests on in-band detection (no supervisor hint). The kill schedule is fixed; --seed
// changes the words.
//
// Check: the final checkpoint images, summed over the processes, hold exactly the word
// counts of the generated corpus (what a run without a kill produces).

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/ft/cluster_recovery.h"
#include "src/ft/recovery.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kProcesses = 3;
constexpr uint64_t kEpochs = 16;
constexpr uint64_t kCheckpointEvery = 8;  // commits after epochs 7 and 15
constexpr uint64_t kKillEpoch = 14;
constexpr uint64_t kWordsPerEpoch = 131072;
constexpr uint64_t kVocabulary = 9973;
constexpr int kWorkRoundsPerRecord = 128;
constexpr uint64_t kSetupProbes = 16;

uint64_t CorpusSeed(uint64_t seed) { return naiad::HashCombine(seed, 0xC0FFEEULL); }

class CountVertex final : public naiad::SinkVertex<uint64_t> {
 public:
  void OnRecv(const naiad::Timestamp&, std::vector<uint64_t>& batch) override {
    for (uint64_t w : batch) {
      uint64_t x = w;
      for (int r = 0; r < kWorkRoundsPerRecord; ++r) {
        x = naiad::HashCombine(x, static_cast<uint64_t>(r));
      }
      scratch_ ^= x;
      ++counts_[w];
    }
  }
  void Checkpoint(naiad::ByteWriter& w) const override {
    w.WriteU32(static_cast<uint32_t>(counts_.size()));
    for (const auto& [word, count] : counts_) {
      w.WriteU64(word);
      w.WriteU64(count);
    }
  }
  bool Restore(naiad::ByteReader& r) override {
    counts_.clear();
    const uint32_t n = r.ReadU32();
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t word = r.ReadU64();
      counts_[word] = r.ReadU64();
    }
    return r.ok();
  }

 private:
  std::map<uint64_t, uint64_t> counts_;
  uint64_t scratch_ = 0;  // keeps the per-record work observable; not checkpointed
};

// Runs inside each forked member. Besides driving the word count it appends, per epoch,
// "epoch feed_ns passed_ns" to a file of its own in the work directory, and records when
// it first fed epoch 0 (the end of its set-up).
class WordCountApp final : public naiad::ClusterApp {
 public:
  WordCountApp(naiad::Controller& ctl, uint64_t seed, uint64_t words_per_epoch,
               std::string dir)
      : ctl_(&ctl), seed_(seed), words_per_epoch_(words_per_epoch), dir_(std::move(dir)) {
    naiad::GraphBuilder b(ctl);
    auto [in, h] = naiad::NewInput<uint64_t>(b);
    handle_ = h;
    input_stage_ = in.stage;
    naiad::StageOptions count_opts;
    count_opts.name = "count";
    naiad::StageId sid = b.NewStage<CountVertex>(
        count_opts, [](uint32_t) { return std::make_unique<CountVertex>(); });
    b.Connect<CountVertex, uint64_t>(in, sid, 0, [](const uint64_t& w) { return w; });
    probe_ = naiad::Probe(&ctl, sid);
  }
  ~WordCountApp() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void FeedEpoch(uint64_t epoch) override {
    const uint32_t pid = ctl_->config().process_id;
    const uint64_t now = NowNs();
    if (epoch == 0) {
      const std::string path = dir_ + "/feed0_p" + std::to_string(pid);
      const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
      if (fd >= 0) {
        const std::string line = std::to_string(now) + "\n";
        (void)!::write(fd, line.data(), line.size());
        ::close(fd);
      }
    }
    fed_at_[epoch] = now;
    naiad::Rng rng(naiad::HashCombine(naiad::HashCombine(CorpusSeed(seed_), epoch), pid));
    std::vector<uint64_t> words(words_per_epoch_);
    for (uint64_t& w : words) {
      w = rng.Below(kVocabulary);
    }
    handle_->OnNext(std::move(words));
  }

  bool EpochPassed(uint64_t epoch) override {
    const bool passed = probe_.Passed(epoch);
    auto it = fed_at_.find(epoch);
    if (passed && it != fed_at_.end()) {
      if (fd_ < 0) {
        const std::string path = dir_ + "/epochs_p" +
                                 std::to_string(ctl_->config().process_id) + "_" +
                                 std::to_string(::getpid());
        fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      }
      if (fd_ >= 0) {
        const std::string line = std::to_string(epoch) + " " + std::to_string(it->second) +
                                 " " + std::to_string(NowNs()) + "\n";
        (void)!::write(fd_, line.data(), line.size());
      }
      fed_at_.erase(it);
    }
    return passed;
  }

  void RestoreInputs(const std::vector<naiad::InputEpochs>& inputs) override {
    for (const naiad::InputEpochs& in : inputs) {
      if (in.stage == input_stage_) {
        handle_->RestoreEpoch(in.next_epoch, in.closed);
      }
    }
  }
  void CloseInputs() override { handle_->OnCompleted(); }

 private:
  naiad::Controller* ctl_;
  uint64_t seed_;
  uint64_t words_per_epoch_;
  std::string dir_;
  std::shared_ptr<naiad::InputHandle<uint64_t>> handle_;
  naiad::StageId input_stage_ = 0;
  naiad::Probe probe_;
  std::map<uint64_t, uint64_t> fed_at_;
  int fd_ = -1;
};

// ClusterKillRecoverDriver derives the kill (victim, epoch, feed-or-barrier phase,
// delay) from its seed; take the first seed whose kill lands mid-feed at kKillEpoch,
// after the epoch-7 commit, as bench/recovery_selective.cpp does.
uint64_t KillSeed() {
  for (uint64_t s = 0;; ++s) {
    naiad::Rng kr(naiad::HashCombine(s, naiad::HashString("CLUSTER-KILL")));
    const bool in_barrier = (kr.Next() & 1) != 0;
    if (!in_barrier && 1 + s % (kEpochs - 1) == kKillEpoch) {
      return s;
    }
  }
}

// Word counts summed over the final images; false if an image is missing or malformed.
bool FinalCounts(const std::string& dir, std::vector<uint64_t>& counts) {
  counts.assign(kVocabulary, 0);
  for (uint32_t p = 0; p < kProcesses; ++p) {
    const naiad::CheckpointReadResult res =
        naiad::ReadCheckpointFileEx(naiad::ClusterImagePath(dir, p, kEpochs - 1));
    if (!res.ok()) {
      return false;
    }
    naiad::ByteReader r(res.image);
    r.ReadU32();  // magic
    const uint32_t inputs = r.ReadU32();
    for (uint32_t i = 0; i < inputs; ++i) {
      r.ReadU32();
      r.ReadU8();
      r.ReadU64();
    }
    const uint32_t vertices = r.ReadU32();
    for (uint32_t v = 0; v < vertices && r.ok(); ++v) {
      r.ReadU32();  // stage: only the count stage has vertices
      r.ReadU32();  // index
      const uint32_t len = r.ReadU32();
      const size_t before = r.remaining();
      const uint32_t n = r.ReadU32();
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t word = r.ReadU64();
        const uint64_t count = r.ReadU64();
        if (word >= kVocabulary) {
          return false;
        }
        counts[word] += count;
      }
      if (before - r.remaining() != len) {
        return false;
      }
    }
    if (!r.ok()) {
      return false;
    }
  }
  return true;
}

std::vector<uint64_t> ExpectedCounts(uint64_t seed) {
  std::vector<uint64_t> counts(kVocabulary, 0);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    for (uint32_t p = 0; p < kProcesses; ++p) {
      naiad::Rng rng(naiad::HashCombine(naiad::HashCombine(CorpusSeed(seed), e), p));
      for (uint64_t i = 0; i < kWordsPerEpoch; ++i) {
        ++counts[rng.Below(kVocabulary)];
      }
    }
  }
  return counts;
}

// The time until every member of a fresh forked cluster has fed epoch 0 (fork, graph,
// mesh, Controller::Start), from a short run without a kill. A kill trial yields one
// such sample; these probes add more, so the set-up median is steady.
double SetupProbe(const Args& args, uint64_t probe) {
  const std::string dir = fs::absolute(args.out_dir).string() + "/recover-setup-" +
                          std::to_string(::getpid()) + "-" + std::to_string(probe);
  fs::remove_all(dir);
  fs::create_directories(dir);
  naiad::ClusterKillRecoverDriver::Options opts;
  opts.cfg.processes = kProcesses;
  opts.cfg.workers_per_process = 1;
  opts.cfg.total_epochs = 2;  // ClusterKillRecoverDriver's minimum
  opts.cfg.checkpoint_every = 2;
  opts.cfg.ckpt_dir = dir;
  opts.cfg.recovery_mode = naiad::RecoveryMode::kSelective;
  opts.inject_kill = false;
  const uint64_t seed = args.seed;
  const uint64_t t0 = NowNs();
  naiad::ClusterKillOutcome out;
  {
    Span s("ft.setup_probe_run", 0);
    out = naiad::ClusterKillRecoverDriver::Run(opts, [seed, dir](naiad::Controller& ctl) {
      return std::make_unique<WordCountApp>(ctl, seed, 1024, dir);
    });
  }
  uint64_t ready = 0;
  bool all_fed = true;
  for (uint32_t p = 0; p < kProcesses; ++p) {
    std::ifstream in(dir + "/feed0_p" + std::to_string(p));
    uint64_t ns = 0;
    in >> ns;
    all_fed = all_fed && ns >= t0;
    ready = std::max(ready, ns);
  }
  fs::remove_all(dir);
  if (!out.ok || !all_fed) {
    return -1;
  }
  return NsToS(ready - t0);
}

struct TrialOut {
  bool ok = false;
  double setup_s = 0;
  double job_s = 0;
  std::vector<double> epoch_us;
  double detection_s = 0;
  uint64_t outlog_peak_bytes = 0;  // outbound logs on disk, largest total seen
  naiad::ClusterStats stats;
};

TrialOut RunTrial(const Args& args, uint64_t kill_seed, const std::vector<uint64_t>& want,
                  uint64_t trial) {
  TrialOut t;
  const std::string dir = fs::absolute(args.out_dir).string() + "/recover-" +
                          std::to_string(::getpid()) + "-" + std::to_string(trial);
  fs::remove_all(dir);
  fs::create_directories(dir);
  naiad::ClusterKillRecoverDriver::Options opts;
  opts.cfg.processes = kProcesses;
  opts.cfg.workers_per_process = 1;
  opts.cfg.total_epochs = kEpochs;
  opts.cfg.checkpoint_every = kCheckpointEvery;
  opts.cfg.ckpt_dir = dir;
  opts.cfg.recovery_mode = naiad::RecoveryMode::kSelective;
  opts.cfg.supervisor_hint = false;
  opts.cfg.heartbeat_interval_ms = 25;
  opts.cfg.heartbeat_timeout_ms = 2000;
  opts.seed = kill_seed;
  opts.inject_kill = true;
  const uint64_t seed = args.seed;
  // The members' outbound logs live in the work directory; sample their total size while
  // the trial runs (they are truncated at each checkpoint, so the end state says little).
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load()) {
      uint64_t bytes = 0;
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().filename().string().rfind("outlog_", 0) == 0) {
          bytes += entry.file_size(ec);
        }
      }
      t.outlog_peak_bytes = std::max(t.outlog_peak_bytes, bytes);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const uint64_t t0 = NowNs();
  naiad::ClusterKillOutcome out;
  {
    Span s("ft.kill_recover_run", 0);
    out = naiad::ClusterKillRecoverDriver::Run(opts, [seed, dir](naiad::Controller& ctl) {
      return std::make_unique<WordCountApp>(ctl, seed, kWordsPerEpoch, dir);
    });
  }
  const uint64_t t_end = NowNs();
  done.store(true);
  sampler.join();
  t.stats = out.stats;
  t.detection_s = out.detection_seconds;
  bool ok = out.launched && out.ok && out.killed && out.stats.recoveries >= 1;
  uint64_t ready = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path());
    if (name.rfind("feed0_p", 0) == 0) {
      uint64_t ns = 0;
      in >> ns;
      ready = std::max(ready, ns);
    } else if (name.rfind("epochs_p", 0) == 0) {
      uint64_t e = 0;
      uint64_t fed = 0;
      uint64_t passed = 0;
      while (in >> e >> fed >> passed) {
        t.epoch_us.push_back(NsToUs(passed - fed));
      }
    }
  }
  std::vector<uint64_t> got;
  if (!FinalCounts(dir, got) || got != want) {
    std::printf("recover: trial %llu final counts differ from the corpus tally\n",
                static_cast<unsigned long long>(trial));
    ok = false;
  }
  if (ready == 0 || ready < t0) {
    ok = false;
  }
  t.ok = ok;
  t.setup_s = NsToS(ready - std::min(ready, t0));
  t.job_s = NsToS(t_end - std::min(t_end, std::max(ready, t0)));
  fs::remove_all(dir);
  return t;
}

}  // namespace

Result RunRecover(const Args& args) {
  Result r;
  const uint64_t start = NowNs();
  const uint64_t kill_seed = KillSeed();
  const std::vector<uint64_t> want = ExpectedCounts(args.seed);
  const double words = static_cast<double>(kEpochs * kProcesses * kWordsPerEpoch);
  std::vector<double> setup_s, job_s, rate, epoch_us, stall_s, downtime_s;
  std::vector<double> traced_job_s, detection_s, replay_drops, selective, ckpts, log_bytes;
  for (uint64_t probe = 0; probe < kSetupProbes; ++probe) {
    const double s = SetupProbe(args, probe);
    ++r.attempted;
    if (s < 0) {
      std::printf("recover: set-up probe %llu failed\n", static_cast<unsigned long long>(probe));
      ++r.wrong;
      continue;
    }
    setup_s.push_back(s);
  }
  double last_trial_s = 0;
  for (uint64_t trial = 0;; ++trial) {
    const double elapsed = NsToS(NowNs() - start);
    if (trial > 0 && elapsed + last_trial_s * 1.2 > args.seconds) {
      break;
    }
    // A traced run keeps its first trial untraced: the difference is the overhead.
    const bool traced = args.trace && trial > 0;
    if (traced) {
      Spans::Enable();
    }
    TrialOut t = RunTrial(args, kill_seed, want, trial);
    Spans::Disable();
    last_trial_s = NsToS(NowNs() - start) - elapsed;
    ++r.attempted;
    if (!t.ok) {
      ++r.wrong;
      continue;
    }
    if (traced) {
      traced_job_s.push_back(t.job_s);
      detection_s.push_back(t.detection_s);
      replay_drops.push_back(static_cast<double>(t.stats.replayed_frames_dropped));
      selective.push_back(static_cast<double>(t.stats.selective_recoveries));
      ckpts.push_back(static_cast<double>(t.stats.checkpoint_epochs));
      log_bytes.push_back(static_cast<double>(t.outlog_peak_bytes));
      continue;
    }
    setup_s.push_back(t.setup_s);
    job_s.push_back(t.job_s);
    rate.push_back(words / t.job_s);
    epoch_us.insert(epoch_us.end(), t.epoch_us.begin(), t.epoch_us.end());
    stall_s.push_back(t.stats.survivor_stall_seconds);
    downtime_s.push_back(t.stats.recovery_downtime_seconds);
  }
  std::printf("recover: %llu set-up probes, %zu untraced kill trials (kill seed %llu: "
              "mid-feed at epoch %llu), %.3g words per trial\n",
              static_cast<unsigned long long>(kSetupProbes), job_s.size(),
              static_cast<unsigned long long>(kill_seed),
              static_cast<unsigned long long>(kKillEpoch), words);
  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("job_s", Median(job_s), "s");
  r.E2e("records_per_s", Median(rate), "1/s");
  r.E2e("epoch_p50_us", Quantile(epoch_us, 0.5), "us");
  // The members are forked children: the largest of them, over all trials and probes.
  r.E2e("peak_rss_mb", PeakChildRssMb(), "MB");
  r.Info("epoch_p90_us", Quantile(epoch_us, 0.90), "us");
  r.Info("epoch_p99_us", Quantile(epoch_us, 0.99), "us");
  r.Info("recovery_stall_s", Median(stall_s), "s");
  r.Info("recovery_downtime_s", Median(downtime_s), "s");
  r.Info("epoch_samples", static_cast<double>(epoch_us.size()), "count");
  if (args.trace) {
    r.Layer("ft.detection_s", Median(detection_s), "s");
    r.Layer("ft.replayed_frames_dropped", Median(replay_drops), "count");
    r.Layer("ft.selective_recoveries", Median(selective), "count");
    r.Layer("ft.checkpoint_epochs", Median(ckpts), "count");
    r.Layer("ft.log_bytes_peak", Median(log_bytes), "B");
    r.Layer("trace.overhead_share", (Median(traced_job_s) - Median(job_s)) / Median(job_s),
            "share");
  }
  return r;
}

}  // namespace perfbench
