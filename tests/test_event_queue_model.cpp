// Randomized model-equivalence suite for sim::EventQueue.
//
// The indexed-heap queue is checked against an obviously correct reference
// model: an ordered map keyed by (time, insertion-seq) with eager
// cancellation through an id -> key index. Its pop is "take the smallest
// (time, seq) key", so any divergence in the (time, id) pop sequence is a
// bug in the heap's sift/lazy-cancel machinery, not in the test. Every
// model operation is logarithmic, so the million-op campaign stays fast.
// Each run drives ~a million mixed operations (push, cancel,
// pop, bulk insert, storage recycle) from several seeds, covering the
// regimes the simulator produces: bursty near-future pushes, heavy
// cancellation (quantum re-arms), drain-to-empty, and arena reuse across
// simulated hosts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace vgrid::sim {
namespace {

// The test_event_queue_model_lifo build defines this to flip the model's
// tie-break to LIFO: that build must fail, proving the model still catches
// a pop-order divergence among same-time events.
#ifdef VGRID_MODEL_LIFO_TIE_BREAK
constexpr std::int64_t kTieBreakSign = -1;
#else
constexpr std::int64_t kTieBreakSign = 1;
#endif

// Reference model: eager, ordered, trivially correct.
class ModelQueue {
 public:
  EventId push(SimTime when, EventId id) {
    const Key key{when, kTieBreakSign * next_seq_++};
    pending_.emplace(key, id);
    index_.emplace(id, key);
    return id;
  }

  bool cancel(EventId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    pending_.erase(it->second);  // eager: never holds cancelled entries
    index_.erase(it);
    return true;
  }

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }

  /// Pop the earliest (time, insertion-seq) entry.
  std::pair<SimTime, EventId> pop() {
    const auto first = pending_.begin();
    const std::pair<SimTime, EventId> out{first->first.first, first->second};
    index_.erase(first->second);
    pending_.erase(first);
    return out;
  }

  SimTime next_time() const { return pending_.begin()->first.first; }

 private:
  /// (time, model-side insertion order): the seq is the FIFO tie-break.
  using Key = std::pair<SimTime, std::int64_t>;
  std::map<Key, EventId> pending_;
  std::map<EventId, Key> index_;  ///< the real queue's handle -> its key
  std::int64_t next_seq_ = 0;
};

// One fuzzing campaign: `ops` weighted operations against both queues,
// checking every pop and next_time against the model. The storage
// parameter is in/out so campaigns can chain through recycled arenas
// (ASSERT_* requires a void return).
void run_campaign(std::uint64_t seed, std::size_t ops,
                  EventQueue::Storage& storage) {
  util::Rng rng(seed);
  EventQueue queue(std::move(storage));
  ModelQueue model;
  // Live handles the campaign may cancel. Cancelled/fired ids stay in a
  // stale pool to exercise the generation check on dead handles.
  std::vector<EventId> live;
  std::vector<EventId> stale;
  SimTime clock = 0;  // popped times are monotone; pushes stay >= clock

  std::uint64_t popped = 0;
  std::uint64_t cancelled = 0;

  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 40) {
      // Push at a near-future time. A coarse time grid (below(50))
      // manufactures plenty of ties so the FIFO tie-break is load-bearing.
      const SimTime when = clock + static_cast<SimTime>(rng.below(50));
      const EventId id = queue.push(when, [] {});
      model.push(when, id);
      live.push_back(id);
    } else if (roll < 55 && !live.empty()) {
      // Cancel a random live event.
      const std::size_t pick = rng.below(live.size());
      const EventId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(queue.cancel(id)) << "live handle refused cancel";
      ASSERT_TRUE(model.cancel(id));
      stale.push_back(id);
      ++cancelled;
    } else if (roll < 60 && !stale.empty()) {
      // A dead handle (already fired or cancelled) must be rejected.
      const EventId id = stale[rng.below(stale.size())];
      ASSERT_FALSE(queue.cancel(id)) << "stale handle accepted";
    } else if (roll < 70) {
      // Bulk insert a small batch at mixed times.
      const std::size_t count = 1 + rng.below(8);
      SimTime times[8];
      EventId ids[8];
      for (std::size_t j = 0; j < count; ++j) {
        times[j] = clock + static_cast<SimTime>(rng.below(50));
      }
      queue.push_bulk(times, count, [](std::size_t) { return [] {}; }, ids);
      for (std::size_t j = 0; j < count; ++j) {
        model.push(times[j], ids[j]);
        live.push_back(ids[j]);
      }
    } else if (!queue.empty()) {
      // Pop and compare (time, id) against the model; spot-check
      // next_time() first since it shares the lazy-prune path.
      ASSERT_FALSE(model.empty()) << "queue has events the model lacks";
      ASSERT_EQ(queue.next_time(), model.next_time());
      const EventQueue::Fired fired = queue.pop();
      const auto expected = model.pop();
      ASSERT_EQ(fired.time, expected.first) << "pop time diverged";
      ASSERT_EQ(fired.id, expected.second) << "pop order diverged";
      ASSERT_TRUE(static_cast<bool>(fired.callback));
      clock = fired.time;
      const auto it = std::find(live.begin(), live.end(), fired.id);
      ASSERT_NE(it, live.end());
      *it = live.back();
      live.pop_back();
      stale.push_back(fired.id);
      ++popped;
    }
    ASSERT_EQ(queue.pending_count(), model.size());
    ASSERT_EQ(queue.empty(), model.empty());
    if (stale.size() > 4096) stale.resize(1024);  // bound the pools
  }

  // Drain: the remaining pop sequence must match the model exactly.
  while (!queue.empty()) {
    const EventQueue::Fired fired = queue.pop();
    const auto expected = model.pop();
    ASSERT_EQ(fired.time, expected.first);
    ASSERT_EQ(fired.id, expected.second);
    ++popped;
  }
  EXPECT_TRUE(model.empty());
  // The weights guarantee a real mix — a campaign that degenerated into
  // pure pushes or pure pops would be testing nothing.
  EXPECT_GT(popped, ops / 20);
  EXPECT_GT(cancelled, ops / 40);
  storage = queue.release_storage();
}

TEST(EventQueueModel, MillionMixedOpsMatchReferenceAcrossSeeds) {
  // ~1M operations total, split across seeds so a failure pins the seed.
  // Storage chains from campaign to campaign: the arena each seed runs in
  // was dirtied by the previous one, which is exactly how fleet recycles
  // queues between hosts — equivalence must survive recycling.
  const std::uint64_t seeds[] = {0x5eedULL, 0xcafef00dULL, 0xdecafbadULL,
                                 0x7e57ab1eULL};
  EventQueue::Storage storage;
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed);
    run_campaign(seed, 250'000, storage);
    if (testing::Test::HasFatalFailure()) return;
    // Recycled arenas keep capacity: after the first campaign the slot
    // arenas never need to grow again for same-sized campaigns.
    EXPECT_GT(storage.nodes.capacity(), 0u);
    EXPECT_GE(storage.callbacks.capacity(), storage.nodes.size());
  }
}

TEST(EventQueueModel, AdoptedStorageBehavesLikeFreshQueue) {
  // A queue abandoned mid-run (pending events and all) must hand its arena
  // to a successor that behaves exactly like a fresh queue.
  EventQueue first;
  for (int i = 0; i < 100; ++i) {
    first.push(static_cast<SimTime>(i), [] {});
  }
  EXPECT_EQ(first.pending_count(), 100u);
  EventQueue second(first.release_storage());
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(second.pending_count(), 0u);
  const EventId id = second.push(7, [] {});
  EXPECT_EQ(second.next_time(), 7);
  EXPECT_TRUE(second.cancel(id));
  EXPECT_TRUE(second.empty());
}

}  // namespace
}  // namespace vgrid::sim
