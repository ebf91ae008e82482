// Figure 6a (§5.1): all-to-all data exchange throughput.
//
// A cyclic dataflow repeatedly exchanges 8-byte records among all workers of all
// processes; the paper plots aggregate throughput against cluster size, against an "ideal"
// network bound and a raw .NET-socket baseline. Here the wire is loopback TCP, so the raw
// TCP baseline is measured the same way, and the expected shape is: Naiad's wire
// throughput tracks below the raw-socket line (serialization + partitioning overhead on
// 8-byte records is the worst case, as in the paper) and aggregate records/s grows with
// the worker count.

#include <atomic>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/hash.h"
#include "src/base/stopwatch.h"
#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/net/cluster.h"
#include "src/net/socket.h"

namespace naiad {
namespace {

// Changes every record's key each round. The exchange routes by Mix64(x), so the next
// hop scatters each worker's batch over all workers (all-to-all); routing by x itself
// would send all of worker w's records to worker w + 1, a ring.
class RotateVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t& x : batch) {
      x += 1;
    }
    this->output().SendBatch(t, std::move(batch));
  }
};

struct Result {
  double seconds = 0;
  uint64_t wire_bytes = 0;
  uint64_t records_moved = 0;
};

Result RunExchange(uint32_t processes, uint32_t workers, uint64_t records_per_worker,
                   uint64_t rounds) {
  Result res;
  Stopwatch sw;
  ClusterStats stats = Cluster::Run(
      ClusterOptions{.processes = processes, .workers_per_process = workers},
      [&](Controller& ctl) {
        GraphBuilder b(ctl);
        auto [in, handle] = NewInput<uint64_t>(b);
        LoopContext loop(b, 0, "exchange");
        FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>(rounds);
        // Each round crosses two hops: rotate -> feedback re-partitions the new keys
        // all-to-all, and feedback -> rotate re-applies the same key, so it passes every
        // record through to the worker it is already on.
        Partitioner<uint64_t> part = [](const uint64_t& x) { return Mix64(x); };
        Stream<uint64_t> entered = loop.Ingress<uint64_t>(in, part);
        StageId rotate = b.NewStage<RotateVertex>(
            StageOptions{.name = "rotate", .depth = 1},
            [](uint32_t) { return std::make_unique<RotateVertex>(); });
        b.Connect<RotateVertex, uint64_t>(entered, rotate, 0, part);
        b.Connect<RotateVertex, uint64_t>(fb.stream(), rotate, 0, part);
        fb.ConnectLoop(b.OutputOf<uint64_t>(rotate), part);
        ctl.Start();
        const uint32_t tw = ctl.total_workers();
        std::vector<uint64_t> data;
        data.reserve(records_per_worker * ctl.config().workers_per_process);
        for (uint64_t i = 0; i < records_per_worker * ctl.config().workers_per_process;
             ++i) {
          data.push_back(i * tw + ctl.config().process_id);  // distinct keys per process
        }
        handle->OnNext(std::move(data));
        handle->OnCompleted();
        ctl.Join();
      });
  res.seconds = sw.ElapsedSeconds();
  res.wire_bytes = stats.data_bytes;
  res.records_moved = records_per_worker * workers * processes * rounds;
  return res;
}

// Raw loopback TCP throughput with 64 KB writes — the "socket baseline" line.
double RawSocketGbps() {
  Listener l;
  const uint16_t port = l.Open();
  std::atomic<uint64_t> received{0};
  std::thread server([&] {
    Socket s = l.Accept();
    std::vector<uint8_t> buf(1 << 16);
    while (s.ReadAll(std::span<uint8_t>(buf.data(), buf.size()))) {
      received.fetch_add(buf.size());
    }
  });
  Socket c = Socket::ConnectLocal(port);
  std::vector<uint8_t> buf(1 << 16, 0xab);
  Stopwatch sw;
  while (sw.ElapsedSeconds() < 0.4) {
    c.WriteAll(buf);
  }
  const double secs = sw.ElapsedSeconds();
  c.ShutdownBoth();
  server.join();
  return static_cast<double>(received.load()) * 8 / secs / 1e9;
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  using namespace naiad;
  // --small: reduced scale for the CI perf-smoke job (record-only artifact).
  // --reps=N: repetitions per config (best run reported); baseline recordings use more.
  bool small = false;
  int reps_flag = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--small") {
      small = true;
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps_flag = std::atoi(argv[i] + 7);
    }
  }
  const uint64_t records_per_worker = small ? 10000 : 20000;
  const uint64_t rounds = small ? 5 : 10;
  // Loopback throughput is scheduler-noisy; each config runs `reps` times and the best
  // run is reported (the paper's cluster numbers are similarly best-case steady-state).
  const int reps = reps_flag > 0 ? reps_flag : (small ? 1 : 3);
  const std::vector<uint32_t> proc_counts = small ? std::vector<uint32_t>{1u, 2u}
                                                  : std::vector<uint32_t>{1u, 2u, 4u};
  bench::Header("Fig. 6a", "all-to-all exchange throughput (§5.1)",
                "aggregate throughput scales linearly with computers; Naiad sits below the "
                "raw-socket line because 8-byte records maximize serialization overhead");
  const double raw_gbps = RawSocketGbps();
  bench::Row("raw TCP socket baseline (loopback, 64KB writes): %.2f Gb/s", raw_gbps);
  bench::Row("%-10s %-9s %-14s %-16s %-14s", "processes", "workers", "records/s",
             "wire Gb/s", "seconds");
  bench::JsonReport json("fig6a");
  json.Config("records_per_worker", static_cast<double>(records_per_worker));
  json.Config("rounds", static_cast<double>(rounds));
  json.Config("workers_per_process", 2);
  json.Config("raw_socket_gbps", raw_gbps);
  for (uint32_t procs : proc_counts) {
    Result r = RunExchange(procs, 2, records_per_worker, rounds);
    for (int rep = 1; rep < reps; ++rep) {
      Result again = RunExchange(procs, 2, records_per_worker, rounds);
      if (again.seconds < r.seconds) {
        r = again;
      }
    }
    const double rps = static_cast<double>(r.records_moved) / r.seconds;
    const double gbps = static_cast<double>(r.wire_bytes) * 8 / r.seconds / 1e9;
    bench::Row("%-10u %-9u %-14.3e %-16.3f %-14.2f", procs, procs * 2, rps, gbps,
               r.seconds);
    json.NewRow();
    json.Num("processes", procs);
    json.Num("workers", procs * 2);
    json.Num("records_per_sec", rps);
    json.Num("wire_gbps", gbps);
    json.Num("seconds", r.seconds);
    bench::MachineFields(json);
  }
  json.Write();
  bench::Row("(single-process rows exchange through shared memory: wire Gb/s ~ 0)");
  return 0;
}
