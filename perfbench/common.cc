#include "perfbench/common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "src/net/job_server.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double PeakChildRssMb() {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

// ---- spans --------------------------------------------------------------------------

std::atomic<bool> Spans::enabled_{false};
std::atomic<uint64_t> Spans::next_id_{1};
OpCounters g_op;

namespace {

struct ThreadBuf {
  uint32_t tid = 0;
  std::vector<SpanRec> recs;
};

std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // owned here: outlive their threads

ThreadBuf& LocalBuf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->tid = static_cast<uint32_t>(g_bufs.size());
    buf->recs.reserve(4096);
  }
  return *buf;
}

thread_local uint64_t t_current = 0;

}  // namespace

uint64_t Spans::current() { return t_current; }
void Spans::set_current(uint64_t id) { t_current = id; }

void Spans::Record(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t id,
                   uint64_t parent) {
  ThreadBuf& b = LocalBuf();
  b.recs.push_back(SpanRec{name, start_ns, end_ns, id, parent, b.tid});
}

std::vector<SpanRec> Spans::Collect() {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  std::vector<SpanRec> all;
  for (const auto& b : g_bufs) {
    all.insert(all.end(), b->recs.begin(), b->recs.end());
  }
  return all;
}

Span::Span(const char* name, uint64_t parent) : name_(name) {
  if (!Spans::enabled()) {
    return;
  }
  id_ = Spans::NextId();
  saved_current_ = Spans::current();
  parent_ = parent == kCurrent ? saved_current_ : parent;
  Spans::set_current(id_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) {
    return;
  }
  Spans::Record(name_, start_ns_, NowNs(), id_, parent_);
  Spans::set_current(saved_current_);
}

void PrintSelfTimes(const std::vector<SpanRec>& spans) {
  std::map<uint64_t, std::vector<const SpanRec*>> children;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  struct Agg {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRec& s : spans) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const SpanRec* c : it->second) {
        const uint64_t lo = std::max(c->start_ns, s.start_ns);
        const uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (lo < hi) {
          iv.emplace_back(lo, hi);
        }
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) {
        covered += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) {
      covered += cur_hi - cur_lo;
    }
    const uint64_t dur = s.end_ns - s.start_ns;
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_s += NsToS(dur);
    a.self_s += NsToS(dur - std::min(dur, covered));
  }
  std::printf("%-30s %10s %14s %14s\n", "span (layer call)", "count", "total_s", "self_s");
  for (const auto& [name, a] : by_name) {
    std::printf("%-30s %10llu %14.6f %14.6f\n", name.c_str(),
                static_cast<unsigned long long>(a.count), a.total_s, a.self_s);
  }
}

void WriteSpans(const std::string& path, const std::vector<SpanRec>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,\"id\":%llu,"
                 "\"parent\":%llu,\"tid\":%u}%s\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.tid,
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

// ---- runtime counters ----------------------------------------------------------------

namespace {

const naiad::obs::HistogramSnapshot* Hist(const naiad::obs::ObsSnapshot& s,
                                          const char* name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

double P50(const naiad::obs::ObsSnapshot& s, const char* name) {
  const auto* h = Hist(s, name);
  return h == nullptr ? 0 : h->p50;
}
double P99(const naiad::obs::ObsSnapshot& s, const char* name) {
  const auto* h = Hist(s, name);
  return h == nullptr ? 0 : h->p99;
}

}  // namespace

JobLayerStats LayerStatsOf(const naiad::ClusterStats& s, double epochs,
                           double records_moved) {
  JobLayerStats j;
  j.epochs = epochs;
  j.records_moved = records_moved;
  j.items_run = static_cast<double>(s.obs.counter("items_run"));
  j.notifications_delivered = static_cast<double>(s.obs.counter("notifications_delivered"));
  j.progress_flushes = static_cast<double>(s.obs.counter("progress_flushes"));
  j.dispatch_p50_ns = P50(s.obs, "dispatch_latency_ns");
  j.dispatch_p99_ns = P99(s.obs, "dispatch_latency_ns");
  j.notify_lag_p50_ns = P50(s.obs, "notify_lag_ns");
  j.notify_lag_p99_ns = P99(s.obs, "notify_lag_ns");
  j.run_time_p50_ns = P50(s.obs, "run_time_ns");
  j.writev_batch_p50 = P50(s.obs, "writev_batch");
  j.send_queue_depth_p99 = P99(s.obs, "send_queue_depth");
  j.data_bytes = static_cast<double>(s.data_bytes);
  j.data_frames = static_cast<double>(s.data_frames);
  j.progress_bytes = static_cast<double>(s.progress_bytes);
  j.progress_frames = static_cast<double>(s.progress_frames);
  j.send_queue_hwm_bytes = static_cast<double>(s.send_queue_hwm_bytes);
  j.duplicate_frames_dropped = static_cast<double>(s.duplicate_frames_dropped);
  j.stray_frames_dropped = static_cast<double>(s.stray_frames_dropped);
  return j;
}

void AddJobServerLayers(Result& r, const std::vector<JobLayerStats>& jobs,
                        const SpanFigures& f) {
  auto med = [&](double JobLayerStats::*field) {
    std::vector<double> v;
    for (const JobLayerStats& j : jobs) {
      v.push_back(j.*field);
    }
    return Median(v);
  };
  auto med_ratio = [&](double JobLayerStats::*num, double JobLayerStats::*den) {
    std::vector<double> v;
    for (const JobLayerStats& j : jobs) {
      v.push_back(j.*den > 0 ? j.*num / (j.*den) : 0);
    }
    return Median(v);
  };
  r.Layer("net.job_server.start_s", Median(f.start_s), "s");
  r.Layer("core.controller.build_s", Median(f.build_s), "s");
  r.Layer("core.controller.join_s", Median(f.join_s), "s");
  r.Layer("net.job_server.stop_s", Median(f.stop_s), "s");
  r.Layer("net.job_server.stray_frames_dropped", med(&JobLayerStats::stray_frames_dropped),
          "count");
  double feed_total_ns = 0;
  for (double ns : f.feed_ns) {
    feed_total_ns += ns;
  }
  r.Layer("core.io.feed_ns_per_record",
          f.fed_records == 0 ? 0 : feed_total_ns / static_cast<double>(f.fed_records), "ns");
  std::vector<double> feed_us;
  for (double ns : f.feed_ns) {
    feed_us.push_back(ns / 1e3);
  }
  r.Layer("core.io.feed_p99_us", Quantile(feed_us, 0.99), "us");
  r.Layer("core.progress.frontier_wait_p50_us", Quantile(f.frontier_wait_us, 0.5), "us");
  r.Layer("core.progress.frontier_wait_p99_us", Quantile(f.frontier_wait_us, 0.99), "us");
  r.Layer("net.progress_router.progress_bytes", med(&JobLayerStats::progress_bytes), "B");
  r.Layer("net.progress_router.progress_frames", med(&JobLayerStats::progress_frames),
          "count");
  r.Layer("net.progress_router.bytes_per_epoch",
          med_ratio(&JobLayerStats::progress_bytes, &JobLayerStats::epochs), "B");
  r.Layer("core.worker.items_run", med(&JobLayerStats::items_run), "count");
  r.Layer("core.worker.notifications_delivered",
          med(&JobLayerStats::notifications_delivered), "count");
  r.Layer("core.worker.dispatch_latency_p50_ns", med(&JobLayerStats::dispatch_p50_ns), "ns");
  r.Layer("core.worker.dispatch_latency_p99_ns", med(&JobLayerStats::dispatch_p99_ns), "ns");
  r.Layer("core.worker.notify_lag_p50_ns", med(&JobLayerStats::notify_lag_p50_ns), "ns");
  r.Layer("core.worker.notify_lag_p99_ns", med(&JobLayerStats::notify_lag_p99_ns), "ns");
  r.Layer("core.worker.run_time_p50_ns", med(&JobLayerStats::run_time_p50_ns), "ns");
  r.Layer("core.worker.progress_flushes", med(&JobLayerStats::progress_flushes), "count");
  r.Layer("net.transport.data_bytes", med(&JobLayerStats::data_bytes), "B");
  r.Layer("net.transport.data_frames", med(&JobLayerStats::data_frames), "count");
  r.Layer("net.transport.bytes_per_frame",
          med_ratio(&JobLayerStats::data_bytes, &JobLayerStats::data_frames), "B");
  r.Layer("net.transport.writev_batch_p50", med(&JobLayerStats::writev_batch_p50), "count");
  r.Layer("net.transport.send_queue_depth_p99", med(&JobLayerStats::send_queue_depth_p99),
          "count");
  r.Layer("net.transport.send_queue_hwm_bytes", med(&JobLayerStats::send_queue_hwm_bytes),
          "B");
  r.Layer("net.transport.duplicate_frames_dropped",
          med(&JobLayerStats::duplicate_frames_dropped), "count");
  r.Layer("ser.wire_bytes_per_record",
          med_ratio(&JobLayerStats::data_bytes, &JobLayerStats::records_moved), "B");
  // g_op sums over the traced jobs only; report it per job like the counters above.
  const double traced_jobs = static_cast<double>(std::max<size_t>(1, jobs.size()));
  r.Layer("op.recv_busy_s", NsToS(g_op.recv_ns.load()) / traced_jobs, "s");
  r.Layer("op.notify_busy_s", NsToS(g_op.notify_ns.load()) / traced_jobs, "s");
  r.Layer("op.records_in", static_cast<double>(g_op.records_in.load()) / traced_jobs,
          "count");
}

void JobCtx::StartAndSync(naiad::Controller& ctl, uint64_t body_entry_ns) {
  {
    Span s("core.controller.start", root_);
    ctl.Start();
  }
  const uint64_t now = NowNs();
  if (ctl.config().process_id == 0) {
    build_ns_p0_.store(now - body_entry_ns);
  }
  uint64_t prev = started_max_.load();
  while (prev < now && !started_max_.compare_exchange_weak(prev, now)) {
  }
  all_started_.arrive_and_wait();
}

JobRun RunOnJobServer(const naiad::ClusterOptions& opts,
                      const std::function<void(naiad::Controller&, JobCtx&)>& body) {
  // Hand the previous job's freed memory back to the kernel first, so every job starts
  // from the same heap state: otherwise what glibc's per-thread arenas happen to retain
  // makes both the job's page-fault work and the peak RSS vary from run to run.
  ::malloc_trim(0);
  ResetPeakRss();
  JobRun r;
  JobCtx jc(opts.processes);
  Span job("job", 0);
  const uint64_t t0 = NowNs();
  naiad::JobServer server(opts);
  {
    Span s("net.job_server.start");
    server.Start();
  }
  r.start_s = NsToS(NowNs() - t0);
  {
    // The bodies' spans hang under this one: Submit returns at once, and the job runs
    // on the driver threads until Wait returns.
    Span s("net.job_server.submit_wait");
    jc.root_ = s.id();
    const naiad::JobId id = server.Submit([&](naiad::Controller& ctl) { body(ctl, jc); });
    server.Wait(id);
  }
  const uint64_t t_end = NowNs();
  {
    Span s("net.job_server.stop");
    r.stats = server.Stop();
  }
  r.stop_s = NsToS(NowNs() - t_end);
  r.peak_rss_mb = PeakRssMb();
  r.setup_s = NsToS(jc.started_ns() - t0);
  r.job_s = NsToS(t_end - jc.started_ns());
  r.build_s = jc.build_s();
  return r;
}

}  // namespace perfbench
