// The logical dataflow graph (§3.1): stages linked by typed connectors, organized into
// nested loop contexts, plus the all-pairs minimal-path-summary matrix Ψ used to evaluate
// the could-result-in relation on (projected) pointstamps.
//
// The graph is built by the typed layer in stage.h/loop.h; this header is type-agnostic —
// record types appear only as type-erased hooks (partitioner, deliver, codec) stored on
// each connector.

#ifndef SRC_CORE_GRAPH_H_
#define SRC_CORE_GRAPH_H_

#include <algorithm>
#include <any>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/core/location.h"
#include "src/core/path_summary.h"
#include "src/core/timestamp.h"
#include "src/ser/bytes.h"

namespace naiad {

class VertexBase;
class WorkItemBase;
class Controller;

// What a stage does to the timestamps of messages passing through it (§2.1).
enum class TimestampAction : uint8_t { kNone, kIngress, kEgress, kFeedback };

struct StageDef {
  std::string name;
  uint32_t depth = 0;  // loop-nesting depth of the stage's *inputs*
  TimestampAction action = TimestampAction::kNone;
  uint32_t parallelism = 1;  // number of physical vertices across the whole cluster
  bool is_input = false;     // external producer stage (§2.1): no vertices, only a location
  uint64_t feedback_limit = 0;  // kFeedback only: drop records at iterations >= limit (0 = none)
  uint32_t reentrancy = 0;   // max re-entrant OnRecv depth for same-worker sends (§3.2)

  // Vertex instantiation (typed layer): create local vertex `index`, then wire its outlets.
  std::function<std::unique_ptr<VertexBase>(Controller*, uint32_t index)> factory;
  std::function<void(Controller*, VertexBase*)> wire_outputs;

  // Notifications each vertex should hold before the computation starts (epoch 0 based).
  std::vector<Timestamp> initial_notifications;

  std::vector<ConnectorId> inputs;                 // all inbound connectors
  std::vector<std::vector<ConnectorId>> outputs;   // per output port: fanout list

  uint32_t output_depth() const {
    switch (action) {
      case TimestampAction::kIngress:
        return depth + 1;
      case TimestampAction::kEgress:
        NAIAD_CHECK(depth >= 1);
        return depth - 1;
      default:
        return depth;
    }
  }

  PathSummary ActionSummary() const {
    switch (action) {
      case TimestampAction::kNone:
        return PathSummary::Identity(depth);
      case TimestampAction::kIngress:
        return PathSummary::Ingress(depth);
      case TimestampAction::kEgress:
        return PathSummary::Egress(depth);
      case TimestampAction::kFeedback:
        return PathSummary::Feedback(depth);
    }
    NAIAD_CHECK(false);
    return {};
  }
};

struct ConnectorDef {
  ConnectorId id = 0;
  StageId src = 0;
  uint32_t src_port = 0;
  StageId dst = 0;
  uint32_t dst_port = 0;
  uint32_t depth = 0;  // == src.output_depth() == dst.depth

  // std::function<uint64_t(const T&)> — empty when the connector does not exchange.
  std::any partitioner;
  // std::function<void(VertexBase*, const Timestamp&, std::vector<T>&&)>.
  std::any deliver;

  // Cross-process support; null when T has no Codec (then the graph must be single-process)
  // or installed lazily by the typed layer.
  // encode_batch serializes `static_cast<const std::vector<T>*>(batch)` into `w`.
  std::function<void(ByteWriter& w, const void* batch)> encode_batch;
  // decode_batch builds a ready-to-run work item for `target` from the wire bytes.
  std::function<std::unique_ptr<WorkItemBase>(ByteReader& r, const Timestamp& t,
                                              VertexBase* target)>
      decode_batch;
};

class LogicalGraph {
 public:
  StageId AddStage(StageDef def) {
    NAIAD_CHECK(!frozen());
    def.outputs.resize(1);  // every stage gets at least one output port slot
    stages_.push_back(std::move(def));
    return static_cast<StageId>(stages_.size() - 1);
  }

  ConnectorId AddConnector(ConnectorDef def) {
    NAIAD_CHECK(!frozen());
    NAIAD_CHECK(def.src < stages_.size() && def.dst < stages_.size());
    StageDef& src = stages_[def.src];
    StageDef& dst = stages_[def.dst];
    NAIAD_CHECK(src.output_depth() == dst.depth);
    def.depth = dst.depth;
    def.id = static_cast<ConnectorId>(connectors_.size());
    if (src.outputs.size() <= def.src_port) {
      src.outputs.resize(def.src_port + 1);
    }
    src.outputs[def.src_port].push_back(def.id);
    dst.inputs.push_back(def.id);
    connectors_.push_back(std::move(def));
    return connectors_.back().id;
  }

  const StageDef& stage(StageId s) const { return stages_[s]; }
  StageDef& mutable_stage(StageId s) {
    NAIAD_CHECK(!frozen());
    return stages_[s];
  }
  const ConnectorDef& connector(ConnectorId c) const { return connectors_[c]; }
  ConnectorDef& mutable_connector(ConnectorId c) {
    NAIAD_CHECK(!frozen());
    return connectors_[c];
  }

  uint32_t num_stages() const { return static_cast<uint32_t>(stages_.size()); }
  uint32_t num_connectors() const { return static_cast<uint32_t>(connectors_.size()); }
  uint32_t num_locations() const { return num_stages() + num_connectors(); }
  // Acquire-ordered: in distributed mode, network receive threads may probe the graph
  // while the SPMD body thread is still freezing it; a true result publishes psi_.
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  uint32_t LocationIndex(const Location& l) const {
    return l.is_stage() ? l.id : num_stages() + l.id;
  }

  uint32_t LocationDepth(const Location& l) const {
    return l.is_stage() ? stages_[l.id].depth : connectors_[l.id].depth;
  }

  // Freezes the graph and computes the minimal-summary matrix Ψ by worklist propagation
  // over the elementary hops (connector → destination stage with the identity summary;
  // stage → outbound connector with the stage's action summary).
  void Freeze() {
    NAIAD_CHECK(!frozen());
    const uint32_t n = num_locations();
    psi_.assign(static_cast<size_t>(n) * n, SummaryAntichain{});

    struct Hop {
      uint32_t dst;
      PathSummary summary;
    };
    std::vector<std::vector<Hop>> hops(n);
    for (const ConnectorDef& c : connectors_) {
      hops[LocationIndex(Location::Connector(c.id))].push_back(
          Hop{LocationIndex(Location::Stage(c.dst)), PathSummary::Identity(c.depth)});
    }
    for (StageId s = 0; s < num_stages(); ++s) {
      const PathSummary action = stages_[s].ActionSummary();
      for (const auto& port : stages_[s].outputs) {
        for (ConnectorId o : port) {
          hops[LocationIndex(Location::Stage(s))].push_back(
              Hop{LocationIndex(Location::Connector(o)), action});
        }
      }
    }

    struct Pending {
      uint32_t src;
      uint32_t via;
      PathSummary summary;
    };
    std::vector<Pending> work;
    for (uint32_t i = 0; i < n; ++i) {
      const PathSummary ident = PathSummary::Identity(DepthOfIndex(i));
      At(i, i).Insert(ident);
      work.push_back(Pending{i, i, ident});
    }
    while (!work.empty()) {
      Pending p = std::move(work.back());
      work.pop_back();
      for (const Hop& h : hops[p.via]) {
        PathSummary s = PathSummary::Compose(p.summary, h.summary);
        if (p.src == h.dst) {
          // A cycle summary mapping some timestamp at-or-before itself would deadlock the
          // scheduler; valid graphs route every cycle through a feedback stage (§2.1).
          NAIAD_CHECK(!PathSummary::Dominates(s, PathSummary::Identity(DepthOfIndex(p.src))))
              << "cycle without feedback through location index " << p.src;
        }
        if (At(p.src, h.dst).Insert(s)) {
          work.push_back(Pending{p.src, h.dst, std::move(s)});
        }
      }
    }
    frozen_.store(true, std::memory_order_release);  // publishes psi_
  }

  const SummaryAntichain& Summaries(const Location& from, const Location& to) const {
    NAIAD_CHECK(frozen());
    return psi_[static_cast<size_t>(LocationIndex(from)) * num_locations() +
                LocationIndex(to)];
  }

  // The could-result-in relation on pointstamps (§2.3): reflexive at equal pointstamps by
  // the empty path; callers decide whether to exclude p == q.
  bool CouldResultIn(const Pointstamp& a, const Pointstamp& b) const {
    return Summaries(a.loc, b.loc).CouldResultIn(a.time, b.time);
  }

 private:
  uint32_t DepthOfIndex(uint32_t i) const {
    return i < num_stages() ? stages_[i].depth : connectors_[i - num_stages()].depth;
  }
  SummaryAntichain& At(uint32_t i, uint32_t j) {
    return psi_[static_cast<size_t>(i) * num_locations() + j];
  }

  std::atomic<bool> frozen_{false};
  std::vector<StageDef> stages_;
  std::vector<ConnectorDef> connectors_;
  std::vector<SummaryAntichain> psi_;
};

}  // namespace naiad

#endif  // SRC_CORE_GRAPH_H_
