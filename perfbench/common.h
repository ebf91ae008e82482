// Shared pieces of the repository benchmark: arguments, timing, order statistics, the
// result record every workload fills, and the span recorder used by traced runs.
//
// Spans are recorded only by the benchmark's own files, around each call they make into
// a layer of the runtime (JobServer::Start, Controller::Start, InputHandle::OnNext, a
// probe wait, Controller::Join, ...). They stay in per-thread memory and are written out
// once, when the benchmark exits. With tracing off every span call is one branch.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <string>
#include <utility>
#include <vector>

#include "src/net/cluster.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".perfbench_out";  // spans, work directories
  // stream only: replaces the high phase's rate (epochs/s). Used to probe where the
  // backlog collapses (NOTES.md); the measured runs keep the default.
  double stream_high_rate = 0;
};

// CLOCK_MONOTONIC nanoseconds: one clock for every thread and every forked member.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}
inline double NsToS(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Resets this process's resident-set high-water mark (Linux /proc/self/clear_refs), so
// that PeakRssMb() then reports the peak since the reset.
void ResetPeakRss();
// Peak resident set of this process since the last reset, in MiB.
double PeakRssMb();
// Peak resident set of any reaped child process, in MiB.
double PeakChildRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload reports. `e2e` is measured with tracing off and `layer` only in a
// traced run; `info` holds further named figures that are printed but not gated.
struct Result {
  uint64_t attempted = 0;
  uint64_t wrong = 0;    // wrong or missing results: the run exits non-zero
  uint64_t late = 0;     // correct but past the workload's deadline (counts as failed)
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> info;
  void E2e(const std::string& n, double v, const std::string& u) { e2e.push_back({n, v, u}); }
  void Layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void Info(const std::string& n, double v, const std::string& u) { info.push_back({n, v, u}); }
};

// ---- spans --------------------------------------------------------------------------

struct SpanRec {
  const char* name;  // string literal
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint32_t tid;
};

class Spans {
 public:
  static void Enable() { enabled_.store(true, std::memory_order_release); }
  static void Disable() { enabled_.store(false, std::memory_order_release); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Appends a finished span to the calling thread's buffer.
  static void Record(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t id,
                     uint64_t parent);
  // Every span recorded so far, from all threads. Call once the threads have stopped.
  static std::vector<SpanRec> Collect();
  static uint64_t current();  // innermost open span of this thread (0 = none)
  static void set_current(uint64_t id);

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> next_id_;
};

// RAII span. `parent` defaults to the innermost open span of this thread; pass an id to
// link a span opened on another thread (a driver thread under the job's root span).
class Span {
 public:
  static constexpr uint64_t kCurrent = ~uint64_t{0};
  explicit Span(const char* name, uint64_t parent = kCurrent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t saved_current_ = 0;
  uint64_t start_ns_ = 0;
};

// Busy time and record counts of the benchmark-owned vertices, summed over all workers
// (traced runs only; callers check Spans::enabled()).
struct OpCounters {
  std::atomic<uint64_t> recv_ns{0};
  std::atomic<uint64_t> notify_ns{0};
  std::atomic<uint64_t> records_in{0};
};
extern OpCounters g_op;

// Per-layer self time of the recorded spans: each span's duration minus the part of it
// covered by its children, summed per span name. Printed as a table.
void PrintSelfTimes(const std::vector<SpanRec>& spans);
// Writes the spans as a JSON array to `path`.
void WriteSpans(const std::string& path, const std::vector<SpanRec>& spans);

// ---- runtime counters ----------------------------------------------------------------

// The layer counters one job's ClusterStats carries (obs metrics must be on).
struct JobLayerStats {
  double items_run = 0;
  double notifications_delivered = 0;
  double progress_flushes = 0;
  double dispatch_p50_ns = 0;
  double dispatch_p99_ns = 0;
  double notify_lag_p50_ns = 0;
  double notify_lag_p99_ns = 0;
  double run_time_p50_ns = 0;
  double writev_batch_p50 = 0;
  double send_queue_depth_p99 = 0;
  double data_bytes = 0;
  double data_frames = 0;
  double progress_bytes = 0;
  double progress_frames = 0;
  double send_queue_hwm_bytes = 0;
  double duplicate_frames_dropped = 0;
  double stray_frames_dropped = 0;
  double epochs = 0;          // epochs the job ran
  double records_moved = 0;   // records its operators moved (all hops, local ones too)
};
JobLayerStats LayerStatsOf(const naiad::ClusterStats& s, double epochs, double records_moved);

// Appends the layer metrics shared by the job-server workloads: per-job medians of the
// runtime counters, plus the span-derived figures the caller measured.
struct SpanFigures {
  std::vector<double> start_s, build_s, join_s, stop_s;
  std::vector<double> feed_ns;      // per feed call
  uint64_t fed_records = 0;
  std::vector<double> frontier_wait_us;
};
void AddJobServerLayers(Result& r, const std::vector<JobLayerStats>& jobs,
                        const SpanFigures& f);

// ---- one job on a fresh JobServer ----------------------------------------------------

struct JobRun {
  double setup_s = 0;  // JobServer::Start until every process returned from ctl.Start()
  double job_s = 0;    // that point until JobServer::Wait returned
  double start_s = 0;  // JobServer::Start alone
  double build_s = 0;  // process 0: body entry until ctl.Start() returned
  double stop_s = 0;   // JobServer::Stop
  double peak_rss_mb = 0;  // this process, from just before JobServer::Start to Stop
  naiad::ClusterStats stats;
};

// Handed to the SPMD body of a job. The body builds its dataflow, then calls
// StartAndSync(ctl), which runs Controller::Start and waits until every process of the
// job has returned from it: set-up ends there, and the measured job begins.
class JobCtx {
 public:
  explicit JobCtx(uint32_t processes) : all_started_(processes) {}
  uint64_t root() const { return root_; }
  void StartAndSync(naiad::Controller& ctl, uint64_t body_entry_ns);
  uint64_t started_ns() const { return started_max_.load(); }
  // Body entry to Controller::Start returning, on process 0.
  double build_s() const { return NsToS(build_ns_p0_.load()); }

 private:
  friend JobRun RunOnJobServer(const naiad::ClusterOptions&,
                               const std::function<void(naiad::Controller&, JobCtx&)>&);
  uint64_t root_ = 0;
  std::latch all_started_;
  std::atomic<uint64_t> started_max_{0};
  std::atomic<uint64_t> build_ns_p0_{0};
};

// Starts a JobServer with `opts`, submits `body`, waits for it and stops the server.
JobRun RunOnJobServer(const naiad::ClusterOptions& opts,
                      const std::function<void(naiad::Controller&, JobCtx&)>& body);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
