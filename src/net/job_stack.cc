#include "src/net/job_stack.h"

namespace naiad {

namespace {

Config JobConfig(const ClusterOptions& opts, uint32_t process, EventCount* shared_event) {
  Config cfg;
  cfg.process_id = process;
  cfg.processes = opts.processes;
  cfg.workers_per_process = opts.workers_per_process;
  cfg.batch_size = opts.batch_size;
  cfg.obs = opts.obs;
  cfg.shared_event = shared_event;
  return cfg;
}

}  // namespace

JobStack::JobStack(const ClusterOptions& opts, uint32_t process, TcpTransport& transport,
                   uint32_t job, EventCount* shared_event)
    : job_(job),
      data_(transport, job, traffic_),
      ctl_(JobConfig(opts, process, shared_event)),
      router_(&ctl_, &transport, opts.strategy, /*hold_limit=*/1024,
              opts.fault_plan != nullptr ? opts.fault_plan->Progress(process) : nullptr),
      control_(&ctl_, &transport, &router_, job, &traffic_) {
  router_.SetJobAccounting(job, &traffic_);
  ctl_.SetProgressRouter(&router_);
  ctl_.SetDataTransport(&data_);
  ctl_.SetQuiesceHook([this] { control_.RunTerminationBarrier(); });
}

void JobStack::Deliver(FrameType type, uint32_t src, std::span<const uint8_t> payload,
                       bool wire) {
  switch (type) {
    case FrameType::kData:
      ctl_.ReceiveRemoteBundle(payload);
      break;
    case FrameType::kProgress:
      router_.OnProgressFrame(src, payload);
      break;
    case FrameType::kProgressAcc:
      router_.OnAccumulatorFrame(src, payload);
      break;
    case FrameType::kControl:
      control_.HandleControl(src, payload);
      break;
  }
  if (wire) {
    traffic_.frames_received[static_cast<size_t>(type)].fetch_add(
        1, std::memory_order_relaxed);
  }
}

void JobStack::DiscardReplayed(std::span<const uint8_t> payload) {
  ctl_.DiscardRemoteBundle(payload);
  traffic_.frames_received[static_cast<size_t>(FrameType::kData)].fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace naiad
