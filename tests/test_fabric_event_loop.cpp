#include "fabric/event_loop.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace of = osprey::fabric;
using osprey::util::kDay;
using osprey::util::kHour;
using osprey::util::kSecond;

TEST(EventLoop, StartsAtZero) {
  of::EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, FiresInTimeOrder) {
  of::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(3 * kSecond, [&] { order.push_back(3); });
  loop.schedule_at(1 * kSecond, [&] { order.push_back(1); });
  loop.schedule_at(2 * kSecond, [&] { order.push_back(2); });
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 3 * kSecond);
}

TEST(EventLoop, StableOrderAtEqualTimes) {
  of::EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(kSecond, [&order, i] { order.push_back(i); });
  }
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, RunUntilAdvancesClockEvenWithoutEvents) {
  of::EventLoop loop;
  EXPECT_EQ(loop.run_until(5 * kDay), 0u);
  EXPECT_EQ(loop.now(), 5 * kDay);
}

TEST(EventLoop, RunUntilLeavesLaterEventsPending) {
  of::EventLoop loop;
  int fired = 0;
  loop.schedule_at(1 * kHour, [&] { ++fired; });
  loop.schedule_at(3 * kHour, [&] { ++fired; });
  EXPECT_EQ(loop.run_until(2 * kHour), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventsMayScheduleEvents) {
  of::EventLoop loop;
  std::vector<of::SimTime> times;
  loop.schedule_at(kSecond, [&] {
    times.push_back(loop.now());
    loop.schedule_after(kSecond, [&] { times.push_back(loop.now()); });
  });
  loop.run_all();
  EXPECT_EQ(times, (std::vector<of::SimTime>{kSecond, 2 * kSecond}));
}

TEST(EventLoop, CancelPreventsFiring) {
  of::EventLoop loop;
  bool fired = false;
  of::EventId id = loop.schedule_at(kSecond, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // already cancelled
  loop.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelledTombstonesDoNotBlockRunUntil) {
  of::EventLoop loop;
  of::EventId id = loop.schedule_at(kSecond, [] {});
  loop.schedule_at(2 * kSecond, [] {});
  loop.cancel(id);
  EXPECT_EQ(loop.run_until(3 * kSecond), 1u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, SchedulingInPastThrows) {
  of::EventLoop loop;
  loop.schedule_at(kSecond, [] {});
  loop.run_all();
  EXPECT_THROW(loop.schedule_at(0, [] {}), osprey::util::InvalidArgument);
  EXPECT_THROW(loop.schedule_after(-1, [] {}),
               osprey::util::InvalidArgument);
}

TEST(EventLoop, RunawayLoopIsCapped) {
  of::EventLoop loop;
  std::function<void()> rearm = [&] { loop.schedule_after(1, rearm); };
  loop.schedule_after(1, rearm);
  EXPECT_THROW(loop.run_all(1000), osprey::util::Error);
}

TEST(EventLoop, ProcessedCounter) {
  of::EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_at(i * kSecond, [] {});
  loop.run_all();
  EXPECT_EQ(loop.events_processed(), 7u);
}

namespace {

// Oracle for the differential test below: the earlier loop, with its
// callbacks in a std::map side table and a priority queue of
// (time, seq) keys whose cancelled entries are skipped as tombstones.
class ReferenceLoop {
 public:
  of::SimTime now() const { return now_; }
  std::size_t pending() const { return callbacks_.size(); }

  of::EventId schedule_at(of::SimTime t, std::function<void()> cb) {
    of::EventId id = next_seq_++;
    queue_.push(Entry{t, id});
    callbacks_.emplace(id, std::move(cb));
    return id;
  }
  of::EventId schedule_after(of::SimTime dt, std::function<void()> cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }
  bool cancel(of::EventId id) { return callbacks_.erase(id) > 0; }

  std::size_t run_until(of::SimTime t) {
    std::size_t fired = 0;
    while (!queue_.empty()) {
      Entry entry = queue_.top();
      if (callbacks_.find(entry.seq) == callbacks_.end()) {
        queue_.pop();
        continue;
      }
      if (entry.time > t) break;
      if (fire_next()) ++fired;
    }
    now_ = t;
    return fired;
  }
  std::size_t run_all() {
    std::size_t fired = 0;
    while (fire_next()) ++fired;
    return fired;
  }

 private:
  struct Entry {
    of::SimTime time;
    std::uint64_t seq;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  bool fire_next() {
    while (!queue_.empty()) {
      Entry entry = queue_.top();
      auto it = callbacks_.find(entry.seq);
      queue_.pop();
      if (it == callbacks_.end()) continue;
      now_ = entry.time;
      std::function<void()> cb = std::move(it->second);
      callbacks_.erase(it);
      cb();
      return true;
    }
    return false;
  }

  of::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  std::map<of::EventId, std::function<void()>> callbacks_;
};

// Drives `loop` through `ops` random operations and returns a log of
// everything observable: firing order and times, pending() after each
// step, and every cancel/run_until return value. Every random choice is
// a function of (seed, op index) or of the firing event's id, so two
// loops with the same semantics produce the same log.
template <typename Loop>
std::vector<std::uint64_t> drive(Loop& loop, std::uint64_t seed, int ops) {
  using osprey::util::mix64;
  std::vector<std::uint64_t> log;
  std::uint64_t issued = 0;  // ids handed out so far
  std::function<void(of::EventId)> on_fire = [&](of::EventId id) {
    log.push_back(std::uint64_t{0xF1} << 56 | id);  // tags a firing
    log.push_back(static_cast<std::uint64_t>(loop.now()));
    log.push_back(loop.pending());
    const std::uint64_t h = mix64(seed ^ (id << 20));
    if (h % 4 == 0) {  // a child event, possibly at the same time
      const of::EventId child = issued++;
      EXPECT_EQ(loop.schedule_after(static_cast<of::SimTime>((h >> 8) % 3),
                                    [&, child] { on_fire(child); }),
                child);
    }
    if (h % 5 == 0) {  // cancel anything: pending, fired, itself, unknown
      log.push_back(loop.cancel((h >> 16) % (issued + 2)));
    }
  };
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = mix64(seed + static_cast<std::uint64_t>(op));
    const std::uint64_t kind = r % 20;
    const std::uint64_t arg = r >> 8;
    if (kind < 9) {  // schedule, often at a time already in the heap
      const of::EventId id = issued++;
      const of::SimTime at = loop.now() + static_cast<of::SimTime>(arg % 4);
      EXPECT_EQ(loop.schedule_at(at, [&, id] { on_fire(id); }), id);
    } else if (kind < 13) {  // cancel anything, unknown ids included
      log.push_back(loop.cancel(arg % (issued + 2)));
    } else if (kind == 13) {  // double cancel
      log.push_back(loop.cancel(arg % (issued + 1)));
      log.push_back(loop.cancel(arg % (issued + 1)));
    } else {
      log.push_back(
          loop.run_until(loop.now() + static_cast<of::SimTime>(arg % 3)));
    }
    log.push_back(loop.pending());
  }
  log.push_back(loop.run_all());
  log.push_back(loop.pending());
  return log;
}

}  // namespace

TEST(EventLoop, MatchesMapAndPriorityQueueReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    of::EventLoop loop;
    ReferenceLoop reference;
    std::vector<std::uint64_t> got = drive(loop, seed, 10'000);
    std::vector<std::uint64_t> want = drive(reference, seed, 10'000);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " log entry " << i;
    }
    EXPECT_EQ(loop.now(), reference.now());
    EXPECT_TRUE(loop.empty());
    EXPECT_GT(loop.events_processed(), 5000u);  // the ops mostly fire
  }
}

TEST(EventLoop, CancelOfFiringOrFiredEventReturnsFalse) {
  of::EventLoop loop;
  of::EventId self = 0;
  bool cancelled_self = true;
  self = loop.schedule_at(kSecond, [&] { cancelled_self = loop.cancel(self); });
  loop.run_all();
  EXPECT_FALSE(cancelled_self);
  EXPECT_FALSE(loop.cancel(self));
  EXPECT_FALSE(loop.cancel(self + 100));  // never issued
}
