#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/network.h"

namespace frangipani {
namespace {

class EchoService : public Service {
 public:
  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override {
    calls.fetch_add(1);
    last_from = from;
    if (method == 99) {
      return Internal("requested failure");
    }
    Bytes reply = request;
    reply.push_back(static_cast<uint8_t>(method));
    return reply;
  }
  std::atomic<int> calls{0};
  std::atomic<NodeId> last_from{kInvalidNode};
};

TEST(NetworkTest, BasicCall) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  auto reply = net.Call(a, b, "echo", 7, {1, 2, 3});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, (Bytes{1, 2, 3, 7}));
  EXPECT_EQ(echo.last_from.load(), a);
}

TEST(NetworkTest, HandlerErrorPropagates) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  auto reply = net.Call(a, b, "echo", 99, {});
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
}

TEST(NetworkTest, UnknownServiceUnavailable) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  auto reply = net.Call(a, b, "nope", 1, {});
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST(NetworkTest, NodeDownUnreachable) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.SetNodeUp(b, false);
  EXPECT_EQ(net.Call(a, b, "echo", 1, {}).status().code(), StatusCode::kUnavailable);
  net.SetNodeUp(b, true);
  EXPECT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
}

TEST(NetworkTest, PartitionIsPairwiseAndSymmetric) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  NodeId c = net.AddNode("c");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.RegisterService(c, "echo", &echo);
  net.SetPartitioned(a, b, true);
  EXPECT_FALSE(net.Call(a, b, "echo", 1, {}).ok());
  EXPECT_TRUE(net.Call(a, c, "echo", 1, {}).ok());
  net.SetPartitioned(a, b, false);
  EXPECT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
}

TEST(NetworkTest, IsolationCutsAllLinks) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.RegisterService(a, "echo", &echo);
  net.SetIsolated(a, true);
  EXPECT_FALSE(net.Call(a, b, "echo", 1, {}).ok());
  EXPECT_FALSE(net.Call(b, a, "echo", 1, {}).ok());
  net.SetIsolated(a, false);
  EXPECT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
}

TEST(NetworkTest, LatencyModelDelaysCalls) {
  LinkParams params;
  params.latency = Duration(20'000);  // 20 ms one-way
  Network net(params);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(elapsed, 0.039);  // request + reply propagation
}

TEST(NetworkTest, BandwidthModelLimitsThroughput) {
  LinkParams params;
  params.bandwidth_bps = 10e6;  // 10 MB/s NICs
  Network net(params);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  Bytes big(1 << 20, 0xAA);  // 1 MB
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.Call(a, b, "echo", 1, big).ok());
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // 1 MB request + ~1 MB reply at 10 MB/s: >= ~0.2 s.
  EXPECT_GE(elapsed, 0.19);
  EXPECT_GE(net.BytesThrough(a), 2u << 20);
}

TEST(NetworkTest, DropProbabilityLosesMessages) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.SetDropProbability(0.5);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!net.Call(a, b, "echo", 1, {}).ok()) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 190);
}

TEST(NetworkTest, ConcurrentCallsSafe) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (net.Call(a, b, "echo", 1, {9}).ok()) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 400);
  EXPECT_EQ(echo.calls.load(), 400);
}

TEST(NetworkTest, LatencyOnlyLinkStillDelays) {
  // Unlimited bandwidth, 20 ms latency on one end: the call skips the NIC
  // reservation but must still sleep out the propagation delay each way.
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.SetLinkParams(b, LinkParams{.latency = Duration(20'000)});
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(elapsed, 0.039);
  net.SetLinkParams(b, LinkParams{});
  start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
  elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 0.039);
}

TEST(NetworkTest, FaultTogglesDuringConcurrentCallsTakeEffect) {
  // Workers call a -> b nonstop while the main thread steps through fault
  // settings. `phase` is odd while a setting is changing; a call that saw
  // the same even phase before and after ran entirely under one setting and
  // must succeed exactly when that setting is fault-free.
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  std::vector<std::function<void()>> settings = {
      [&] { net.SetPartitioned(a, b, true); }, [&] { net.SetPartitioned(b, a, false); },
      [&] { net.SetDropProbability(1.0); },    [&] { net.SetDropProbability(0); },
      [&] { net.SetIsolated(b, true); },       [&] { net.SetIsolated(b, false); },
      [&] { net.SetNodeUp(b, false); },        [&] { net.SetNodeUp(b, true); },
  };
  constexpr int kPhases = 9;  // stable phases 0, 2, ..., 16
  auto faulty = [](int phase) { return (phase / 2) % 2 == 1; };
  std::atomic<int> phase{0};
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::atomic<int>> checked(2 * kPhases);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        int before = phase.load(std::memory_order_acquire);
        bool ok = net.Call(a, b, "echo", 1, {7}).ok();
        int after = phase.load(std::memory_order_acquire);
        if (before != after || before % 2 != 0) {
          continue;
        }
        checked[before].fetch_add(1);
        if (ok == faulty(before)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  auto wait_for_calls = [&](int ph) {
    for (int i = 0; i < 2000 && checked[ph].load() < 20; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_for_calls(0);
  for (size_t i = 0; i < settings.size(); ++i) {
    phase.fetch_add(1, std::memory_order_acq_rel);
    settings[i]();
    phase.fetch_add(1, std::memory_order_acq_rel);
    wait_for_calls(static_cast<int>(2 * (i + 1)));
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  for (int ph = 0; ph < 2 * kPhases; ph += 2) {
    EXPECT_GE(checked[ph].load(), 20) << "phase " << ph;
  }
}

TEST(NetworkTest, ServiceRegistrationDuringCalls) {
  // Registration publishes a new service map while calls read the old one.
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (!stop.load()) {
        if (!net.Call(a, b, "echo", 1, {}).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::unique_ptr<EchoService>> others;
  for (int i = 0; i < 50; ++i) {
    others.push_back(std::make_unique<EchoService>());
    net.RegisterService(b, "svc" + std::to_string(i), others.back().get());
  }
  for (int i = 0; i < 50; i += 2) {
    net.UnregisterService(b, "svc" + std::to_string(i));
  }
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(net.Call(a, b, "svc1", 1, {}).ok());
  EXPECT_FALSE(net.Call(a, b, "svc0", 1, {}).ok());
}

}  // namespace
}  // namespace frangipani
