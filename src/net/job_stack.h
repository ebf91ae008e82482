// One dataflow's runtime stack on one process: the per-job wiring every caller shares.
//
// A JobStack assembles, for one (process, job) pair on a shared TcpTransport, the job's
// Controller (graph, tracker, workers), its DataTransport adapter, its
// DistributedProgressRouter and its ClusterControl, and owns the one frame-type demux
// (Deliver) that hands the job's frames to them. The job's wire-traffic accounting
// (JobTraffic) lives here too: the adapter and the router credit its sends, Deliver
// credits its wire receipts, and ClusterControl's barriers read only it.
//
// Two callers build it. The multi-tenant job server (src/net/job_server.h) builds one
// per registered job on each process, on the server's shared hosts (shared_event set).
// A forked cluster member (src/ft/cluster_recovery.h) builds one per generation for job
// 0, on its own worker threads, and keeps only what is recovery-specific around it. The
// transport itself belongs to the caller; ClusterOptions::link_policy() is its policy in
// both cases.

#ifndef SRC_NET_JOB_STACK_H_
#define SRC_NET_JOB_STACK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/event_count.h"
#include "src/core/controller.h"
#include "src/net/cluster.h"
#include "src/net/progress_router.h"
#include "src/net/transport.h"

namespace naiad {

class JobStack {
 public:
  // `transport` must outlive the stack and be started by the caller after construction
  // (its callbacks route to Deliver). With `shared_event`, the controller spawns no host
  // threads: the caller's hosts drive its workers (Config::shared_event).
  JobStack(const ClusterOptions& opts, uint32_t process, TcpTransport& transport,
           uint32_t job, EventCount* shared_event = nullptr);
  JobStack(const JobStack&) = delete;
  JobStack& operator=(const JobStack&) = delete;

  uint32_t job() const { return job_; }
  Controller& ctl() { return ctl_; }
  DistributedProgressRouter& router() { return router_; }
  ClusterControl& control() { return control_; }
  JobTraffic& traffic() { return traffic_; }

  // The job's data path: stamps the job id on every record bundle and credits the job's
  // accounting. The controller sends through it unless InterposeData installed a front.
  DataTransport& data() { return data_; }
  // Routes the controller's remote bundles through `front`, which must forward each one
  // to data() (selective recovery's outbound logs do). Before Controller::Start.
  void InterposeData(DataTransport* front) { ctl_.SetDataTransport(front); }

  // The demux: hands one of the job's frames to the controller, the router or the
  // control plane by type. Frames that crossed a socket (`wire`) are credited to
  // traffic().frames_received after delivery, so a counted frame is already visible to
  // the barriers' local-quiet probes.
  void Deliver(FrameType type, uint32_t src, std::span<const uint8_t> payload, bool wire);

  // A replayed data frame the transport's dedup dropped on purpose (selective recovery):
  // retires its pointstamp without delivering the records and credits it as received,
  // because its sender counted it as sent and the checkpoint barrier must balance.
  void DiscardReplayed(std::span<const uint8_t> payload);

 private:
  struct Data final : DataTransport {
    Data(TcpTransport& transport, uint32_t job, JobTraffic& traffic)
        : transport(transport), job(job), traffic(traffic) {}
    void SendBundle(uint32_t dst_process, ConnectorId, const Timestamp&, int64_t,
                    std::vector<uint8_t> frame) override {
      transport.Send(dst_process, FrameType::kData, std::move(frame), job, &traffic);
    }
    TcpTransport& transport;
    const uint32_t job;
    JobTraffic& traffic;
  };

  const uint32_t job_;
  JobTraffic traffic_;
  Data data_;
  Controller ctl_;
  DistributedProgressRouter router_;
  ClusterControl control_;
};

}  // namespace naiad

#endif  // SRC_NET_JOB_STACK_H_
