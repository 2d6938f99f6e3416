// MpmcQueue tests: bounded-capacity backpressure, exact delivery (no lost or
// duplicated entries) under producer/consumer hammering, per-producer FIFO
// order, the blocking pop/push variants' stop semantics, and their wakeups
// (a two-queue ping-pong in which every hop puts a sleeper to sleep). The
// hammer cases also run under the ThreadSanitizer CI lane (tsan preset),
// which is what keeps the count/value CAS protocol honestly race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "util/mpmc_queue.hpp"

namespace emutile {
namespace {

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(MpmcQueue<int>(65).capacity(), 128u);
}

TEST(MpmcQueue, SingleThreadFifoAndBoundedBackpressure) {
  MpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  // Full ring: pushes fail (backpressure), nothing is overwritten.
  EXPECT_FALSE(q.try_push(99));
  EXPECT_EQ(q.size_approx(), 4u);
  for (int i = 0; i < 4; ++i) {
    const std::optional<int> v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_EQ(q.size_approx(), 0u);
  // The ring is reusable across laps.
  EXPECT_TRUE(q.try_push(42));
  EXPECT_EQ(q.try_pop().value_or(-1), 42);
}

TEST(MpmcQueue, MoveOnlyValuesMoveThroughTheCells) {
  MpmcQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(7)));
  std::optional<std::unique_ptr<int>> v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(*v != nullptr);
  EXPECT_EQ(**v, 7);
  // Entries left in the ring are destroyed by the queue's destructor —
  // covered implicitly by ASan/LSan runs of this test.
  EXPECT_TRUE(q.try_push(std::make_unique<int>(8)));
}

/// Entry tagged with its producer and that producer's sequence number, so
/// consumers can verify exact delivery and per-producer order.
struct Tagged {
  std::uint32_t producer = 0;
  std::uint32_t seq = 0;
};

TEST(MpmcQueue, HammerEightByEightLosesNothingDuplicatesNothing) {
  constexpr std::uint32_t kProducers = 8;
  constexpr std::uint32_t kConsumers = 8;
  constexpr std::uint32_t kPerProducer = 20'000;
  MpmcQueue<Tagged> q(256);

  std::atomic<bool> stop{false};
  std::vector<std::vector<Tagged>> consumed(kConsumers);
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&q, &stop, &consumed, c] {
      consumed[c].reserve((kPerProducer * kProducers) / kConsumers);
      while (std::optional<Tagged> v = q.pop_wait(stop))
        consumed[c].push_back(*v);
    });
  }
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, &stop, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        // push_wait provides the backpressure loop; stop never fires while
        // producers run, so every entry lands.
        ASSERT_TRUE(q.push_wait(Tagged{p, i}, stop));
      }
    });
  }
  for (std::uint32_t p = 0; p < kProducers; ++p)
    threads[kConsumers + p].join();
  // Producers are done; stop the consumers (they drain the ring first).
  stop.store(true);
  q.notify_all();
  for (std::uint32_t c = 0; c < kConsumers; ++c) threads[c].join();

  // Exact delivery: every (producer, seq) pair exactly once.
  std::vector<std::uint32_t> seen(kProducers * kPerProducer, 0);
  std::size_t total = 0;
  for (const std::vector<Tagged>& batch : consumed) {
    for (const Tagged& t : batch) {
      ASSERT_LT(t.producer, kProducers);
      ASSERT_LT(t.seq, kPerProducer);
      ++seen[t.producer * kPerProducer + t.seq];
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers) * kPerProducer);
  for (const std::uint32_t count : seen) ASSERT_EQ(count, 1u);
}

TEST(MpmcQueue, PerProducerOrderSurvivesOneConsumer) {
  // With a single consumer, each producer's entries must arrive in their
  // push order (MPMC interleaves producers but never reorders one).
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 10'000;
  MpmcQueue<Tagged> q(64);
  std::atomic<bool> stop{false};

  std::vector<Tagged> consumed;
  consumed.reserve(kProducers * kPerProducer);
  std::thread consumer([&q, &stop, &consumed] {
    while (std::optional<Tagged> v = q.pop_wait(stop)) consumed.push_back(*v);
  });
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &stop, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push_wait(Tagged{p, i}, stop));
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true);
  q.notify_all();
  consumer.join();

  ASSERT_EQ(consumed.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  std::vector<std::uint32_t> next(kProducers, 0);
  for (const Tagged& t : consumed) {
    ASSERT_EQ(t.seq, next[t.producer])
        << "producer " << t.producer << " reordered";
    ++next[t.producer];
  }
}

TEST(MpmcQueue, StoppingPopStillDrainsTheRing) {
  MpmcQueue<int> q(8);
  std::atomic<bool> stop{false};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(i));
  stop.store(true);  // stop set *before* the pops: entries must still drain
  for (int i = 0; i < 5; ++i) {
    const std::optional<int> v = q.pop_wait(stop);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.pop_wait(stop).has_value());  // drained + stopping => done
}

TEST(MpmcQueue, StoppedPushGivesUpOnFullRing) {
  MpmcQueue<int> q(2);
  std::atomic<bool> stop{false};
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  stop.store(true);
  EXPECT_FALSE(q.push_wait(3, stop));  // full and stopping: refuse, not hang
}

TEST(MpmcQueue, BlockedConsumerWakesOnPush) {
  MpmcQueue<int> q(4);
  std::atomic<bool> stop{false};
  std::optional<int> got;
  std::thread consumer([&] { got = q.pop_wait(stop); });
  // Give the consumer time to reach the blocking wait, then feed it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.try_push(123));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 123);
}

TEST(MpmcQueue, PingPongRoundTripsNeverWaitOutALostWakeup) {
  // Every hop lands on a queue whose only consumer is asleep or about to
  // be, so each of the 20k hops exercises the sleep/wake handshake. A lost
  // notify stalls a hop for the whole 50 ms wait slice; the bound allows a
  // slow sanitizer build, not a stall on a sizable share of the hops.
  constexpr int kRoundTrips = 10'000;
  MpmcQueue<int> ping(2);
  MpmcQueue<int> pong(2);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    while (std::optional<int> v = ping.pop_wait(stop))
      if (!pong.push_wait(*v + 1, stop)) return;
  });
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRoundTrips; ++i) {
    ASSERT_TRUE(ping.push_wait(2 * i, stop));
    const std::optional<int> back = pong.pop_wait(stop);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(*back, 2 * i + 1);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop.store(true);
  ping.notify_all();
  pong.notify_all();
  echo.join();
  EXPECT_LT(elapsed, std::chrono::seconds(20));
}

}  // namespace
}  // namespace emutile
