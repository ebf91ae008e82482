// The typed graph-assembly layer (§4.3): streams, stages, outlets, and the graph builder.
//
// A *stage* is a collection of identically-programmed vertices; a *stream* is one output
// port of a stage, carrying records of one C++ type at one loop depth. Connecting a stream
// to a stage input creates a connector, optionally with a partitioning function — the
// system then routes each record to `partition(rec) % parallelism` (§3.1). Without a
// partitioner, records stay on (or near) the sending worker.
//
// Vertices subclass one of the typed bases (UnaryVertex, BinaryVertex, Unary2Vertex,
// SinkVertex), which expose the paper's OnRecv/OnNotify/SendBy/NotifyAt programming model
// with batched OnRecv for efficiency.

#ifndef SRC_CORE_STAGE_H_
#define SRC_CORE_STAGE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/core/controller.h"
#include "src/core/graph.h"
#include "src/core/timestamp.h"
#include "src/core/vertex.h"
#include "src/core/work_item.h"
#include "src/core/worker.h"
#include "src/ser/codec.h"

namespace naiad {

template <typename T>
using Partitioner = std::function<uint64_t(const T&)>;

template <typename T>
using DeliverFn = std::function<void(VertexBase*, const Timestamp&, std::vector<T>&&)>;

// ------------------------------------------------------------------------------------
// Typed work item.
// ------------------------------------------------------------------------------------

template <typename T>
class DataItem final : public WorkItemBase {
 public:
  DataItem(ConnectorId ch, const Timestamp& t, VertexBase* target, const DeliverFn<T>* deliver,
           std::vector<T> recs)
      : WorkItemBase(ch, t, static_cast<int64_t>(recs.size()), target),
        deliver_(deliver),
        recs_(std::move(recs)) {}

  void Run() override { (*deliver_)(target(), time(), std::move(recs_)); }

 private:
  const DeliverFn<T>* deliver_;
  std::vector<T> recs_;
};

// ------------------------------------------------------------------------------------
// Controller::RouteBundle (declared in controller.h).
// ------------------------------------------------------------------------------------

template <typename T>
void Controller::RouteBundle(ConnectorId ch, uint32_t dst_vertex, const Timestamp& t,
                             std::vector<T>&& recs, ProgressBuffer& progress, Worker* src) {
  if (recs.empty()) {
    return;
  }
  const ConnectorDef& def = graph_.connector(ch);
  progress.Add(Pointstamp{t, Location::Connector(ch)}, static_cast<int64_t>(recs.size()));
  const uint32_t gw = GlobalWorkerOfVertex(dst_vertex);
  const uint32_t proc = ProcessOfGlobalWorker(gw);
  if (proc == cfg_.process_id) {
    VertexBase* target = LocalVertex(def.dst, dst_vertex);
    NAIAD_CHECK(target != nullptr);
    const auto* deliver = std::any_cast<DeliverFn<T>>(&def.deliver);
    NAIAD_CHECK(deliver != nullptr);
    auto item = std::make_unique<DataItem<T>>(ch, t, target, deliver, std::move(recs));
    Worker* w = workers_[gw % cfg_.workers_per_process].get();
    if (w == src) {
      const StageDef& dst_stage = graph_.stage(def.dst);
      if (dst_stage.reentrancy > src->reentry_depth()) {
        src->RunNested(std::move(item));  // bounded re-entrancy (§3.2)
      } else {
        src->EnqueueLocal(std::move(item));
      }
    } else {
      w->EnqueueExternal(std::move(item));
    }
  } else {
    NAIAD_CHECK(def.encode_batch != nullptr)
        << "connector " << ch << " carries a non-serializable type across processes";
    NAIAD_CHECK(transport_ != nullptr);
    const int64_t count = static_cast<int64_t>(recs.size());
    ByteWriter w;
    w.WriteU32(ch);
    w.WriteU32(dst_vertex);
    t.Encode(w);
    def.encode_batch(w, &recs);
    data_bytes_sent.fetch_add(w.size(), std::memory_order_relaxed);
    data_bundles_sent.fetch_add(1, std::memory_order_relaxed);
    transport_->SendBundle(proc, ch, t, count, std::move(w.buffer()));
  }
}

// ------------------------------------------------------------------------------------
// BatchRouter: one exchange connector's routing (§3.1), shared by the Outlet and the keyed
// input path.
//
// Route() calls the partitioner exactly once per record. It compares each record's
// destination with the first record's until one differs. If none does and nothing is
// buffered for that destination, the vector moves on whole: full `cap`-record bundles
// ship at once, cut by bulk moves, and the rest becomes that destination's buffer.
// Otherwise the records go, in order, into flat per-destination buffers. A buffer ships
// when it reaches `cap` or when its owner detaches it, so many small sends to one
// destination still leave as one bundle. A route with no partitioner, or with one
// destination, has a fixed destination and calls no partitioner; a power-of-two
// parallelism partitions with a mask instead of a hardware divide. No re-hashing:
// partitioners that need mixing apply it themselves, and integer-addressed routing (e.g.
// AllReduce targets) stays exact.
//
// `ship(dst, bundle)` hands a bundle on (RouteBundle) and may re-enter this router
// (§3.2), so a buffer is detached before it ships.
// ------------------------------------------------------------------------------------

template <typename T>
class BatchRouter {
 public:
  static constexpr size_t kUncapped = SIZE_MAX;

  // `home` is the destination of an unpartitioned route (the sending vertex's index).
  BatchRouter(ConnectorId ch, uint32_t parallelism, const Partitioner<T>* part, uint32_t home,
              size_t cap)
      : ch_(ch), parallelism_(parallelism), part_(part), cap_(cap), by_dst_(parallelism) {
    if (part == nullptr) {
      fixed_ = static_cast<int64_t>(home % parallelism);
    } else if (parallelism == 1) {
      fixed_ = 0;
    } else if ((parallelism & (parallelism - 1)) == 0) {
      mask_ = parallelism - 1;
    }
  }

  ConnectorId ch() const { return ch_; }
  bool idle() const { return active_.empty(); }  // nothing buffered

  // Buffers one record.
  template <typename U, typename Ship>
  void Add(U&& rec, Ship& ship) {
    Deposit(DestOf(rec), std::forward<U>(rec), ship);
  }

  template <typename Ship>
  void Route(std::vector<T>&& recs, Ship& ship) {
    if (recs.empty()) {
      return;
    }
    if (fixed_ >= 0) {
      RouteToOne(static_cast<uint32_t>(fixed_), recs, ship);
      return;
    }
    // Every record before the first that differs goes where the first one goes, so the
    // pass keeps no per-record answers. It reads copies of the members it needs, which
    // can stay in registers across the opaque partitioner calls; reloading the members
    // after each call measured 2-3 ns more per record on keyed input.
    auto dest = [&part = *part_, mask = mask_, n = parallelism_](const T& rec) {
      return Bucket(part(rec), mask, n);
    };
    const uint32_t first = dest(recs[0]);
    uint32_t dst = first;
    size_t i = 1;
    for (; i < recs.size(); ++i) {
      dst = dest(recs[i]);
      if (dst != first) {
        break;
      }
    }
    if (i == recs.size()) {
      RouteToOne(first, recs, ship);
      return;
    }
    const size_t differs = i;
    for (i = 0; i < recs.size(); ++i) {
      const uint32_t d = i < differs ? first : i == differs ? dst : dest(recs[i]);
      Deposit(d, std::move(recs[i]), ship);
    }
  }

  // Detaches every buffered bundle as (destination, records).
  std::vector<std::pair<uint32_t, std::vector<T>>> Detach() {
    std::vector<std::pair<uint32_t, std::vector<T>>> out;
    out.reserve(active_.size());
    for (uint32_t dst : active_) {
      out.emplace_back(dst, std::move(by_dst_[dst]));
      by_dst_[dst].clear();
    }
    active_.clear();
    return out;
  }

 private:
  static uint32_t Bucket(uint64_t key, uint32_t mask, uint32_t parallelism) {
    return mask != 0 ? static_cast<uint32_t>(key & mask)
                     : static_cast<uint32_t>(key % parallelism);
  }

  uint32_t DestOf(const T& rec) const {
    if (fixed_ >= 0) {
      return static_cast<uint32_t>(fixed_);
    }
    return Bucket((*part_)(rec), mask_, parallelism_);
  }

  template <typename Ship>
  void RouteToOne(uint32_t dst, std::vector<T>& recs, Ship& ship) {
    const size_t n = recs.size();
    size_t lo = 0;
    for (; n - lo > cap_ && by_dst_[dst].empty(); lo += cap_) {
      ship(dst, std::vector<T>(std::make_move_iterator(recs.begin() + lo),
                               std::make_move_iterator(recs.begin() + lo + cap_)));
    }
    if (!by_dst_[dst].empty()) {
      for (size_t i = lo; i < n; ++i) {
        Deposit(dst, std::move(recs[i]), ship);  // behind the records already buffered
      }
      return;
    }
    if (lo > 0) {
      // The tail gets its own storage, so the long batch's is freed now rather than
      // travelling on with a few records in it.
      recs = std::vector<T>(std::make_move_iterator(recs.begin() + lo),
                            std::make_move_iterator(recs.end()));
    }
    active_.push_back(dst);
    by_dst_[dst] = std::move(recs);
    if (by_dst_[dst].size() >= cap_) {
      ShipFull(dst, ship);
    }
  }

  template <typename U, typename Ship>
  void Deposit(uint32_t dst, U&& rec, Ship& ship) {
    std::vector<T>& buf = by_dst_[dst];
    if (buf.empty()) {
      Activate(dst);
    }
    buf.push_back(std::forward<U>(rec));
    if (buf.size() >= cap_) {
      ShipFull(dst, ship);
    }
  }

  // Out of line, like ShipFull below: keeps the per-record Deposit small enough to
  // inline, push_back included.
  [[gnu::noinline]] void Activate(uint32_t dst) {
    active_.push_back(dst);
    if (by_dst_[dst].capacity() == 0 && cap_ != kUncapped) {
      by_dst_[dst].reserve(cap_);
    }
  }

  // Out of line: keeps the per-record Deposit small enough to inline.
  template <typename Ship>
  [[gnu::noinline]] void ShipFull(uint32_t dst, Ship& ship) {
    std::vector<T> full = std::move(by_dst_[dst]);
    by_dst_[dst].clear();
    std::erase(active_, dst);
    ship(dst, std::move(full));
  }

  ConnectorId ch_;
  uint32_t parallelism_;
  const Partitioner<T>* part_;
  size_t cap_;          // bundle size at which a buffer ships; kUncapped: only on Detach
  int64_t fixed_ = -1;  // >= 0: every record goes to this destination
  uint32_t mask_ = 0;   // nonzero: dst = key & mask (power-of-two parallelism)
  std::vector<std::vector<T>> by_dst_;
  std::vector<uint32_t> active_;  // destinations with buffered records, first use first
};

// ------------------------------------------------------------------------------------
// Outlet: a vertex's typed output port (SendBy; §2.2), one BatchRouter per attached
// connector.
//
// Since a callback overwhelmingly sends at a single (adjusted) timestamp, the outlet
// keeps a single-entry timestamp cache and flushes everything on a cache miss rather than
// keying buffers by time. Fan-out to multiple routes copies records for all routes but
// the last, which takes them by move. Bundles are capped at `batch_size`.
// ------------------------------------------------------------------------------------

template <typename T>
class Outlet {
 public:
  void Configure(Controller* ctl, VertexBase* v, TimestampAction action,
                 uint64_t feedback_limit) {
    ctl_ = ctl;
    vertex_ = v;
    action_ = action;
    feedback_limit_ = feedback_limit;
  }
  void AddRoute(ConnectorId ch, uint32_t dst_parallelism, const Partitioner<T>* part) {
    routes_.emplace_back(ch, dst_parallelism, part, vertex_->address().index,
                         ctl_->config().batch_size);
  }
  bool wired() const { return ctl_ != nullptr; }
  size_t route_count() const { return routes_.size(); }

  // SendBy(e, m, t): buffers `rec` for delivery at (the stage-action-adjusted) time t.
  void Send(const Timestamp& t, const T& rec) { SendImpl(t, rec); }
  void Send(const Timestamp& t, T&& rec) { SendImpl(t, std::move(rec)); }

  void SendBatch(const Timestamp& t, std::vector<T>&& recs) {
    if (recs.empty()) {
      return;
    }
    const Timestamp adj = Adjust(t);
    if (!Admit(t, adj)) {
      return;
    }
    const uint32_t last = static_cast<uint32_t>(routes_.size()) - 1;
    for (uint32_t i = 0; i < last; ++i) {
      auto ship = Shipper(i, adj);
      routes_[i].Route(std::vector<T>(recs), ship);
    }
    auto ship = Shipper(last, adj);
    routes_[last].Route(std::move(recs), ship);
  }

  void Flush() { FlushAll(); }

 private:
  template <typename U>
  void SendImpl(const Timestamp& t, U&& rec) {
    NAIAD_DCHECK(wired());
    const Timestamp adj = Adjust(t);
    if (!Admit(t, adj)) {
      return;
    }
    const uint32_t last = static_cast<uint32_t>(routes_.size()) - 1;
    for (uint32_t i = 0; i < last; ++i) {
      auto ship = Shipper(i, adj);
      routes_[i].Add(T(rec), ship);  // fan-out copy; the last route moves
    }
    auto ship = Shipper(last, adj);
    routes_[last].Add(std::forward<U>(rec), ship);
  }

  // Points the timestamp cache at `adj`, t's adjusted time; false when the send goes
  // nowhere (a feedback drop, or no attached connector).
  bool Admit(const Timestamp& t, const Timestamp& adj) {
    if (Dropped(adj)) {
      return false;
    }
    CheckNotPast(t);
    if (routes_.empty()) {
      return false;
    }
    SwitchTime(adj);
    return true;
  }

  // Ships route `i`'s bundles at `t`. A nested delivery (§3.2) may send at another time
  // and retarget the cache; it is pointed back at `t` so the caller's remaining records
  // still buffer at their own time.
  auto Shipper(uint32_t i, const Timestamp& t) {
    return [this, i, &t](uint32_t dst, std::vector<T>&& recs) {
      ctl_->RouteBundle<T>(routes_[i].ch(), dst, t, std::move(recs),
                           vertex_->worker().progress(), &vertex_->worker());
      if (!has_time_ || !(cached_time_ == t)) {
        SwitchTime(t);
      }
    };
  }

  bool AnyBuffered() const {
    for (const BatchRouter<T>& r : routes_) {
      if (!r.idle()) {
        return true;
      }
    }
    return false;
  }

  // All buffered records share cached_time_; a send at a different time flushes first
  // (single-entry timestamp cache — callbacks overwhelmingly send at one time).
  void SwitchTime(const Timestamp& adj) {
    if (has_time_ && adj == cached_time_) {
      return;
    }
    FlushAll();
    cached_time_ = adj;
    has_time_ = true;
  }

  void FlushAll() {
    has_time_ = false;
    if (!AnyBuffered()) {
      return;
    }
    const Timestamp t = cached_time_;
    // Detach every route's buffers first: RouteBundle may re-enter this vertex
    // (re-entrancy, §3.2) and buffer new records mid-flush.
    std::vector<std::vector<std::pair<uint32_t, std::vector<T>>>> pending;
    pending.reserve(routes_.size());
    for (BatchRouter<T>& r : routes_) {
      pending.push_back(r.Detach());
    }
    for (uint32_t i = 0; i < pending.size(); ++i) {
      for (auto& [dst, recs] : pending[i]) {
        ctl_->RouteBundle<T>(routes_[i].ch(), dst, t, std::move(recs),
                             vertex_->worker().progress(), &vertex_->worker());
      }
    }
  }

  Timestamp Adjust(const Timestamp& t) const {
    switch (action_) {
      case TimestampAction::kNone:
        return t;
      case TimestampAction::kIngress:
        return t.Pushed(0);
      case TimestampAction::kEgress:
        return t.Popped();
      case TimestampAction::kFeedback:
        return t.Incremented();
    }
    NAIAD_CHECK(false);
    return t;
  }

  bool Dropped(const Timestamp& adj) const {
    return action_ == TimestampAction::kFeedback && feedback_limit_ != 0 &&
           adj.coords.back() >= feedback_limit_;
  }

  void CheckNotPast(const Timestamp& t) const {
    NAIAD_CHECK(!vertex_->worker().in_purge())
        << "purge callbacks have capability top and cannot send (§2.4)";
#ifndef NDEBUG
    if (const Timestamp* now = vertex_->worker().current_time();
        now != nullptr && now->depth() == t.depth()) {
      NAIAD_DCHECK(Timestamp::PartialLeq(*now, t));  // §2.2: no sends into the past
    }
#endif
  }

  Controller* ctl_ = nullptr;
  VertexBase* vertex_ = nullptr;
  TimestampAction action_ = TimestampAction::kNone;
  uint64_t feedback_limit_ = 0;
  std::vector<BatchRouter<T>> routes_;
  Timestamp cached_time_;
  bool has_time_ = false;
};

// ------------------------------------------------------------------------------------
// Typed vertex base classes.
// ------------------------------------------------------------------------------------

template <typename TIn, typename TOut>
class UnaryVertex : public VertexBase {
 public:
  using InputType = TIn;
  using OutputType = TOut;
  virtual void OnRecv(const Timestamp& t, std::vector<TIn>& batch) = 0;
  Outlet<TOut>& output() { return output_; }
  void FlushOutputs() override { output_.Flush(); }

 private:
  Outlet<TOut> output_;
};

template <typename TIn1, typename TIn2, typename TOut>
class BinaryVertex : public VertexBase {
 public:
  virtual void OnRecv1(const Timestamp& t, std::vector<TIn1>& batch) = 0;
  virtual void OnRecv2(const Timestamp& t, std::vector<TIn2>& batch) = 0;
  Outlet<TOut>& output() { return output_; }
  void FlushOutputs() override { output_.Flush(); }

 private:
  Outlet<TOut> output_;
};

template <typename TIn, typename TOut1, typename TOut2>
class Unary2Vertex : public VertexBase {
 public:
  virtual void OnRecv(const Timestamp& t, std::vector<TIn>& batch) = 0;
  Outlet<TOut1>& output1() { return output1_; }
  Outlet<TOut2>& output2() { return output2_; }
  void FlushOutputs() override {
    output1_.Flush();
    output2_.Flush();
  }

 private:
  Outlet<TOut1> output1_;
  Outlet<TOut2> output2_;
};

template <typename TIn1, typename TIn2, typename TOut1, typename TOut2>
class Binary2Vertex : public VertexBase {
 public:
  virtual void OnRecv1(const Timestamp& t, std::vector<TIn1>& batch) = 0;
  virtual void OnRecv2(const Timestamp& t, std::vector<TIn2>& batch) = 0;
  Outlet<TOut1>& output1() { return output1_; }
  Outlet<TOut2>& output2() { return output2_; }
  void FlushOutputs() override {
    output1_.Flush();
    output2_.Flush();
  }

 private:
  Outlet<TOut1> output1_;
  Outlet<TOut2> output2_;
};

template <typename TIn>
class SinkVertex : public VertexBase {
 public:
  using InputType = TIn;
  virtual void OnRecv(const Timestamp& t, std::vector<TIn>& batch) = 0;
};

// ------------------------------------------------------------------------------------
// Streams and the graph builder.
// ------------------------------------------------------------------------------------

template <typename T>
struct Stream {
  StageId stage = 0;
  uint32_t port = 0;
  uint32_t depth = 0;
  class GraphBuilder* builder = nullptr;

  bool valid() const { return builder != nullptr; }
};

struct StageOptions {
  std::string name;
  uint32_t depth = 0;
  TimestampAction action = TimestampAction::kNone;
  uint32_t parallelism = 0;  // 0: controller default (one vertex per worker)
  uint32_t reentrancy = 0;
  uint64_t feedback_limit = 0;
  std::vector<Timestamp> initial_notifications;
};

class GraphBuilder {
 public:
  explicit GraphBuilder(Controller& ctl) : ctl_(&ctl) {}

  Controller& controller() { return *ctl_; }
  LogicalGraph& graph() { return ctl_->graph(); }

  // Creates a stage whose vertices are produced by `make(index)`. V must be a typed vertex
  // base subclass; its outlets are wired automatically.
  template <typename V>
  StageId NewStage(StageOptions opts, std::function<std::unique_ptr<V>(uint32_t)> make) {
    StageDef def;
    def.name = std::move(opts.name);
    def.depth = opts.depth;
    def.action = opts.action;
    def.parallelism =
        opts.parallelism != 0 ? opts.parallelism : ctl_->default_parallelism();
    def.reentrancy = opts.reentrancy;
    def.feedback_limit = opts.feedback_limit;
    def.initial_notifications = std::move(opts.initial_notifications);
    def.factory = [make = std::move(make)](Controller*, uint32_t index) {
      return std::unique_ptr<VertexBase>(make(index));
    };
    StageId sid = graph().AddStage(std::move(def));
    graph().mutable_stage(sid).wire_outputs = [sid](Controller* c, VertexBase* vb) {
      WireVertexOutputs(c, sid, static_cast<V*>(vb));
    };
    return sid;
  }

  // Names the output port `port` of stage `sid` as a stream of TOut records.
  template <typename TOut>
  Stream<TOut> OutputOf(StageId sid, uint32_t port = 0) {
    const StageDef& def = graph().stage(sid);
    return Stream<TOut>{sid, port, def.output_depth(), this};
  }

  // Connects `s` to input port `dst_port` of stage `dst` (whose vertex class is V),
  // exchanging records by `part` when provided.
  template <typename V, typename T>
  ConnectorId Connect(const Stream<T>& s, StageId dst, uint32_t dst_port = 0,
                      Partitioner<T> part = nullptr) {
    NAIAD_CHECK(s.builder == this);
    ConnectorDef def;
    def.src = s.stage;
    def.src_port = s.port;
    def.dst = dst;
    def.dst_port = dst_port;
    if (part) {
      def.partitioner = std::move(part);
    }
    def.deliver = MakeDeliver<V, T>(dst_port);
    if constexpr (Encodable<T>) {
      def.encode_batch = [](ByteWriter& w, const void* batch) {
        Codec<std::vector<T>>::Encode(w, *static_cast<const std::vector<T>*>(batch));
      };
      ConnectorId pending_id = graph().num_connectors();
      def.decode_batch = [ctl = ctl_, pending_id](ByteReader& r, const Timestamp& t,
                                                  VertexBase* target)
          -> std::unique_ptr<WorkItemBase> {
        std::vector<T> recs;
        if (!Codec<std::vector<T>>::Decode(r, recs)) {
          return nullptr;
        }
        const auto* deliver =
            std::any_cast<DeliverFn<T>>(&ctl->graph().connector(pending_id).deliver);
        return std::make_unique<DataItem<T>>(pending_id, t, target, deliver,
                                             std::move(recs));
      };
    }
    return graph().AddConnector(std::move(def));
  }

  // Wires one vertex's outlets to the connectors attached to the stage's output ports.
  template <typename V>
  static void WireVertexOutputs(Controller* c, StageId sid, V* v) {
    if constexpr (requires { v->output(); }) {
      WireOutlet(c, sid, 0, v->output(), v);
    }
    if constexpr (requires { v->output1(); }) {
      WireOutlet(c, sid, 0, v->output1(), v);
      WireOutlet(c, sid, 1, v->output2(), v);
    }
  }

 private:
  // Picks the typed callback matching (vertex class, record type, input port). Binary
  // vertices may have differently-typed ports, so each arm is checked independently.
  template <typename V, typename T>
  static DeliverFn<T> MakeDeliver(uint32_t dst_port) {
    if (dst_port == 0) {
      if constexpr (requires(V v, const Timestamp& t, std::vector<T>& b) { v.OnRecv(t, b); }) {
        return [](VertexBase* vb, const Timestamp& t, std::vector<T>&& recs) {
          static_cast<V*>(vb)->OnRecv(t, recs);
        };
      } else if constexpr (requires(V v, const Timestamp& t, std::vector<T>& b) {
                             v.OnRecv1(t, b);
                           }) {
        return [](VertexBase* vb, const Timestamp& t, std::vector<T>&& recs) {
          static_cast<V*>(vb)->OnRecv1(t, recs);
        };
      } else {
        NAIAD_CHECK(false) << "vertex has no OnRecv/OnRecv1 taking this record type";
        return nullptr;
      }
    }
    NAIAD_CHECK(dst_port == 1);
    if constexpr (requires(V v, const Timestamp& t, std::vector<T>& b) { v.OnRecv2(t, b); }) {
      return [](VertexBase* vb, const Timestamp& t, std::vector<T>&& recs) {
        static_cast<V*>(vb)->OnRecv2(t, recs);
      };
    } else {
      NAIAD_CHECK(false) << "vertex has no OnRecv2 taking this record type";
      return nullptr;
    }
  }

  template <typename T>
  static void WireOutlet(Controller* c, StageId sid, uint32_t port, Outlet<T>& outlet,
                         VertexBase* v) {
    const StageDef& def = c->graph().stage(sid);
    outlet.Configure(c, v, def.action, def.feedback_limit);
    if (port >= def.outputs.size()) {
      return;
    }
    for (ConnectorId ch : def.outputs[port]) {
      const ConnectorDef& cd = c->graph().connector(ch);
      outlet.AddRoute(ch, c->graph().stage(cd.dst).parallelism,
                      std::any_cast<Partitioner<T>>(&cd.partitioner));
    }
  }

  Controller* ctl_;
};

}  // namespace naiad

#endif  // SRC_CORE_STAGE_H_
