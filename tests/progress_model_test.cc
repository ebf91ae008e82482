// Model check of the ProgressTracker against a naive reference.
//
// The reference, NaiveTracker below, is §2.3/§3.3 written out directly: one std::map of
// occurrence counts and a CouldResultIn scan over it on every query, with no memo. This
// harness replays randomized update schedules — nested loops to depth 2, out-of-order
// deltas, transiently negative counts, cancellations — against both on the same
// randomized graph and asserts that every observable (CanDeliver, FrontierPassed, Count,
// Empty, ActiveSnapshot) is identical after every applied batch, then that both drain to
// empty. Every probe is queried twice per batch, so the tracker's memoized answers are
// checked as well as its scans.
//
// 100 seeds, sharded 4×25 for ctest parallelism. Replay one seed with --seed=N (see
// EXPERIMENTS.md): shard 0 runs exactly that seed, the others become no-ops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "src/base/event_count.h"
#include "src/base/rng.h"
#include "src/core/graph.h"
#include "src/core/progress.h"

namespace naiad {
namespace {

std::optional<uint64_t> g_seed_override;

// A randomized but always-valid loop graph: a root chain, one loop that always contains
// a nested loop (depth 2), and optionally a second independent top-level loop. Random
// knobs vary the chain lengths so loop shapes and Ψ antichains differ per seed; every
// cycle goes through a feedback stage, so Freeze() accepts every generated graph.
struct ModelGraph {
  LogicalGraph g;
  std::vector<Location> locations;  // every stage and connector, for probing/updating

  StageId Stage(uint32_t depth, TimestampAction act, uint64_t feedback_limit = 0) {
    StageDef d;
    d.depth = depth;
    d.action = act;
    d.feedback_limit = feedback_limit;
    StageId s = g.AddStage(std::move(d));
    locations.push_back(Location::Stage(s));
    return s;
  }
  ConnectorId Conn(StageId src, StageId dst) {
    ConnectorDef cd;
    cd.src = src;
    cd.dst = dst;
    ConnectorId c = g.AddConnector(std::move(cd));
    locations.push_back(Location::Connector(c));
    return c;
  }
  // chain of `n` kNone stages at `depth`, connected from `from`; returns the last stage.
  StageId ChainFrom(StageId from, uint32_t depth, uint32_t n) {
    StageId cur = from;
    for (uint32_t i = 0; i < n; ++i) {
      StageId next = Stage(depth, TimestampAction::kNone);
      Conn(cur, next);
      cur = next;
    }
    return cur;
  }
  // A loop hanging off `from` (at `depth-1`): ingress, body chain, feedback cycle,
  // egress. `nest` adds an inner loop between two body stages. Returns the egress's
  // downstream stage at depth-1.
  StageId Loop(StageId from, uint32_t depth, uint32_t body_len, bool nest, Rng& rng) {
    StageId ingress = Stage(depth - 1, TimestampAction::kIngress);
    Conn(from, ingress);
    StageId head = Stage(depth, TimestampAction::kNone);
    Conn(ingress, head);
    StageId tail = ChainFrom(head, depth, body_len);
    if (nest) {
      tail = Loop(tail, depth + 1, 1 + static_cast<uint32_t>(rng.Below(2)), false, rng);
    }
    StageId fb = Stage(depth, TimestampAction::kFeedback, /*feedback_limit=*/16);
    Conn(tail, fb);
    Conn(fb, head);
    StageId egress = Stage(depth, TimestampAction::kEgress);
    Conn(tail, egress);
    StageId after = Stage(depth - 1, TimestampAction::kNone);
    Conn(egress, after);
    return after;
  }

  explicit ModelGraph(uint64_t seed) {
    Rng rng(HashCombine(seed, 0x4d4f444cULL));  // "MODL"
    StageId in = Stage(0, TimestampAction::kNone);
    StageId cur = ChainFrom(in, 0, static_cast<uint32_t>(rng.Below(3)));
    cur = Loop(cur, 1, 1 + static_cast<uint32_t>(rng.Below(2)), /*nest=*/true, rng);
    if (rng.Below(2) == 0) {
      cur = Loop(cur, 1, 1, /*nest=*/false, rng);
    }
    ChainFrom(cur, 0, 1 + static_cast<uint32_t>(rng.Below(2)));
    g.Freeze();
  }
};

Pointstamp RandomPoint(const ModelGraph& mg, Rng& rng) {
  const Location loc = mg.locations[rng.Below(mg.locations.size())];
  const uint32_t depth = mg.g.LocationDepth(loc);
  Timestamp t(rng.Below(3));
  for (uint32_t d = 0; d < depth; ++d) {
    t = t.Pushed(rng.Below(3));
  }
  return Pointstamp{t, loc};
}

// The probe set: every location × a small grid of times at its depth. Frontier answers
// must match at *every* probe after *every* batch — not just at the points updated.
std::vector<Pointstamp> ProbePoints(const ModelGraph& mg) {
  std::vector<Pointstamp> probes;
  for (const Location& loc : mg.locations) {
    const uint32_t depth = mg.g.LocationDepth(loc);
    for (uint64_t e = 0; e < 2; ++e) {
      const uint32_t combos = 1u << depth;  // coords from {0,2}^depth
      for (uint32_t bits = 0; bits < combos; ++bits) {
        Timestamp t(e);
        for (uint32_t d = 0; d < depth; ++d) {
          t = t.Pushed((bits >> d & 1) != 0 ? 2 : 0);
        }
        probes.push_back(Pointstamp{t, loc});
      }
    }
  }
  return probes;
}

// The reference: occurrence counts in one map, every query a full scan.
class NaiveTracker {
 public:
  explicit NaiveTracker(const LogicalGraph* g) : g_(g) {}

  void Apply(const std::vector<ProgressUpdate>& batch) {
    for (const ProgressUpdate& u : batch) {
      counts_[u.point] += u.delta;
    }
  }
  bool CanDeliver(const Pointstamp& p) const { return !Blocked(p, /*exclude_self=*/true); }
  bool FrontierPassed(const Pointstamp& p) const {
    return !Blocked(p, /*exclude_self=*/false);
  }
  int64_t Count(const Pointstamp& p) const {
    auto it = counts_.find(p);
    return it == counts_.end() ? 0 : it->second;
  }
  bool Empty() const { return ActiveSnapshot().empty(); }
  std::vector<std::pair<Pointstamp, int64_t>> ActiveSnapshot() const {
    std::vector<std::pair<Pointstamp, int64_t>> out;
    for (const auto& [q, c] : counts_) {
      if (c != 0) {
        out.emplace_back(q, c);
      }
    }
    return out;
  }

 private:
  bool Blocked(const Pointstamp& p, bool exclude_self) const {
    for (const auto& [q, c] : counts_) {
      if (c > 0 && !(exclude_self && q == p) && g_->CouldResultIn(q, p)) {
        return true;
      }
    }
    return false;
  }

  const LogicalGraph* g_;
  std::map<Pointstamp, int64_t> counts_;
};

void CheckSeed(uint64_t seed) {
  const ModelGraph mg(seed);
  EventCount ev;
  ProgressTracker tracker(&mg.g, &ev);
  NaiveTracker ref(&mg.g);
  uint32_t max_depth = 0;
  for (const Location& l : mg.locations) {
    max_depth = std::max(max_depth, mg.g.LocationDepth(l));
  }
  ASSERT_EQ(max_depth, 2u) << "model graph must nest to depth 2";

  const std::vector<Pointstamp> probes = ProbePoints(mg);
  Rng rng(HashCombine(seed, 0x53434844ULL));  // "SCHD"
  std::map<Pointstamp, int64_t> net;  // cumulative deltas, for the final drain

  const uint32_t batches = 30 + static_cast<uint32_t>(rng.Below(11));
  for (uint32_t b = 0; b <= batches; ++b) {
    std::vector<ProgressUpdate> batch;
    if (b < batches) {
      const uint32_t sz = 1 + static_cast<uint32_t>(rng.Below(8));
      for (uint32_t i = 0; i < sz; ++i) {
        // Mostly fresh ±1s (negatives may land before their positives — the transient
        // negative case); sometimes retire an earlier positive so activity drains and
        // frontiers genuinely move during the schedule.
        if (rng.Below(3) == 0 && !net.empty()) {
          auto it = net.begin();
          std::advance(it, rng.Below(net.size()));
          if (it->second > 0) {
            batch.push_back(ProgressUpdate{it->first, -1});
            continue;
          }
        }
        const int64_t delta = rng.Below(4) == 0 ? -1 : +1;
        batch.push_back(ProgressUpdate{RandomPoint(mg, rng), delta});
      }
    } else {
      // Final drain: negate the cumulative sum so both trackers must return to empty.
      for (const auto& [p, d] : net) {
        if (d != 0) {
          batch.push_back(ProgressUpdate{p, -d});
        }
      }
    }
    for (const ProgressUpdate& u : batch) {
      net[u.point] += u.delta;
    }
    tracker.Apply(batch);
    ref.Apply(batch);

    ASSERT_EQ(tracker.Empty(), ref.Empty()) << "seed " << seed << " batch " << b;
    ASSERT_EQ(tracker.ActiveSnapshot(), ref.ActiveSnapshot())
        << "seed " << seed << " batch " << b;
    for (int pass = 0; pass < 2; ++pass) {  // the second pass is served by the memo
      for (const Pointstamp& p : probes) {
        ASSERT_EQ(tracker.CanDeliver(p), ref.CanDeliver(p))
            << "CanDeliver(" << p.ToString() << ") seed " << seed << " batch " << b
            << " pass " << pass << "; replay with --seed=" << seed;
        ASSERT_EQ(tracker.FrontierPassed(p), ref.FrontierPassed(p))
            << "FrontierPassed(" << p.ToString() << ") seed " << seed << " batch " << b
            << " pass " << pass << "; replay with --seed=" << seed;
        ASSERT_EQ(tracker.Count(p), ref.Count(p))
            << "Count(" << p.ToString() << ") seed " << seed << " batch " << b;
      }
    }
  }
  ASSERT_TRUE(tracker.Empty());
  ASSERT_TRUE(ref.Empty());
  EXPECT_GT(tracker.Stats().query_memo_hits, 0u) << "seed " << seed;
}

class ProgressModelSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgressModelSweep, TrackerMatchesNaiveReferenceOnRandomSchedules) {
  const uint64_t shard = GetParam();
  if (g_seed_override.has_value()) {
    if (shard == 0) {
      CheckSeed(*g_seed_override);
    }
    return;
  }
  for (uint64_t i = 0; i < 25; ++i) {
    ASSERT_NO_FATAL_FAILURE(CheckSeed(shard * 25 + i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgressModelSweep, ::testing::Values(0u, 1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Shard" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest flags, leaves ours
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      naiad::g_seed_override = std::strtoull(argv[i] + 7, nullptr, 0);
      std::fprintf(stderr, "progress_model_test: replaying seed %llu only\n",
                   static_cast<unsigned long long>(*naiad::g_seed_override));
    }
  }
  return RUN_ALL_TESTS();
}
