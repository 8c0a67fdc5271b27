#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/crc32.h"
#include "src/base/histogram.h"
#include "src/base/rate_limiter.h"
#include "src/base/rng.h"
#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/base/thread_pool.h"

namespace frangipani {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  Status err = NotFound("missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing");
}

TEST(StatusTest, StatusOrValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e(Internal("boom"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInternal);
}

TEST(StatusTest, Macros) {
  auto fails = []() -> Status { return InvalidArgument("x"); };
  auto wrapper = [&]() -> Status {
    RETURN_IF_ERROR(fails());
    return OkStatus();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);

  auto gives = []() -> StatusOr<std::string> { return std::string("hi"); };
  auto user = [&]() -> StatusOr<size_t> {
    ASSIGN_OR_RETURN(std::string s, gives());
    return s.size();
  };
  auto result = user();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 2u);
}

TEST(SerialTest, RoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0x1234);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutBool(true);
  enc.PutString("hello");
  enc.PutBytes({1, 2, 3});
  Bytes buf = enc.Take();
  Decoder dec(buf);
  EXPECT_EQ(dec.GetU8(), 0xAB);
  EXPECT_EQ(dec.GetU16(), 0x1234);
  EXPECT_EQ(dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI64(), -42);
  EXPECT_TRUE(dec.GetBool());
  EXPECT_EQ(dec.GetString(), "hello");
  EXPECT_EQ(dec.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(SerialTest, TruncatedInputSetsError) {
  Encoder enc;
  enc.PutU32(7);
  Bytes buf = enc.Take();
  Decoder dec(buf);
  dec.GetU64();
  EXPECT_FALSE(dec.ok());
}

TEST(SerialTest, MalformedLengthPrefix) {
  Encoder enc;
  enc.PutU32(1000);  // claims 1000 bytes follow; none do
  Bytes buf = enc.Take();
  Decoder dec(buf);
  Bytes out = dec.GetBytes();
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(dec.ok());
}

TEST(Crc32Test, KnownValues) {
  // CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_NE(Crc32c("a", 1), Crc32c("b", 1));
}

TEST(Crc32Test, HardwareMatchesTableAtEveryLengthAndAlignment) {
  if (!crc32c_internal::HardwareSupported()) {
    GTEST_SKIP() << "CPU has no SSE4.2";
  }
  constexpr size_t kMaxLen = 4096;
  std::vector<uint8_t> buf(kMaxLen + 8);
  Rng rng(0xC4C);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint8_t* p = buf.data() + align;
      uint32_t seed = static_cast<uint32_t>(len * 0x9E3779B1u);
      ASSERT_EQ(crc32c_internal::Hardware(p, len, 0), crc32c_internal::Table(p, len, 0))
          << "align " << align << " len " << len;
      ASSERT_EQ(crc32c_internal::Hardware(p, len, seed), crc32c_internal::Table(p, len, seed))
          << "align " << align << " len " << len << " seeded";
    }
  }
  EXPECT_EQ(crc32c_internal::Hardware("123456789", 9, 0), 0xE3069283u);
}

TEST(RateLimiterTest, UnlimitedReservesNothingButCountsBytes) {
  RateLimiter rl(0);
  EXPECT_EQ(rl.Acquire(1000), RateLimiter::kNoReservation);
  EXPECT_LT(RateLimiter::kNoReservation, std::chrono::steady_clock::now());
  rl.Transfer(24);
  EXPECT_EQ(rl.total_bytes(), 1024u);
}

TEST(RateLimiterTest, SerializesTransfers) {
  RateLimiter rl(1e6);  // 1 MB/s
  TimePoint start = std::chrono::steady_clock::now();
  TimePoint t1 = rl.Acquire(100'000);  // 100 ms of capacity
  TimePoint t2 = rl.Acquire(100'000);
  EXPECT_GE(std::chrono::duration<double>(t1 - start).count(), 0.099);
  EXPECT_GE(std::chrono::duration<double>(t2 - t1).count(), 0.099);
  EXPECT_EQ(rl.total_bytes(), 200'000u);
}

TEST(ManualClockTest, Advances) {
  ManualClock clock;
  TimePoint t0 = clock.Now();
  clock.Advance(std::chrono::microseconds(500));
  EXPECT_EQ(std::chrono::duration_cast<std::chrono::microseconds>(clock.Now() - t0).count(),
            500);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SequentialTasksStartOneThread) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 0);  // the constructor starts none
  int runs = 0;
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&] { ++runs; });
    pool.Drain();  // the one worker is idle again before the next Submit
  }
  EXPECT_EQ(runs, 20);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, BlockingTasksStartOneThreadEachUpToTheCap) {
  constexpr int kCap = 4;
  for (int k : {1, 3, 4, 7}) {
    ThreadPool pool(kCap);
    std::mutex mu;
    std::condition_variable cv;
    int running = 0;
    int finished = 0;
    bool open = false;
    for (int i = 0; i < k; ++i) {
      pool.Submit([&] {
        std::unique_lock<std::mutex> lk(mu);
        ++running;
        cv.notify_all();
        cv.wait(lk, [&] { return open; });
        ++finished;
      });
    }
    int expected = std::min(k, kCap);
    {
      std::unique_lock<std::mutex> lk(mu);
      ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10), [&] { return running == expected; }))
          << "k=" << k;
    }
    EXPECT_EQ(pool.num_threads(), expected) << "k=" << k;
    {
      std::lock_guard<std::mutex> guard(mu);
      open = true;
    }
    cv.notify_all();
    pool.Drain();
    EXPECT_EQ(finished, k);
    EXPECT_EQ(pool.num_threads(), expected) << "k=" << k;
  }
}

TEST(ThreadPoolTest, DrainAndDestructorWaitForQueuedWork) {
  std::vector<int> order;
  std::mutex mu;
  auto task = [&](int i) {
    return [&, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::lock_guard<std::mutex> guard(mu);
      order.push_back(i);
    };
  };
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit(task(i));
    }
    pool.Drain();
    std::lock_guard<std::mutex> guard(mu);
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(order[i], i);  // one worker runs the queue in FIFO order
    }
  }
  order.clear();
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit(task(i));
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(order.size(), 10u);
}

TEST(PeriodicTaskTest, FiresAndStops) {
  std::atomic<int> fires{0};
  {
    PeriodicTask task(Duration(5'000), [&] { fires.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  int after_stop = fires.load();
  EXPECT_GE(after_stop, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fires.load(), after_stop);
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(10), 10u);
    uint64_t x = r.Range(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
    double d = r.Double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(r.Name(8).size(), 8u);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Percentile(0.5), 50, 2);
  EXPECT_NEAR(h.Percentile(0.99), 99, 2);
  EXPECT_EQ(h.Max(), 100);
}

}  // namespace
}  // namespace frangipani
