// Observability layer: metrics registry, histograms under concurrency,
// trace spans, and the cross-layer propagation through a real FS op.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

using obs::Counter;
using obs::Layer;
using obs::MetricsRegistry;
using obs::OpMetrics;
using obs::OpTrace;
using obs::Span;

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("y.count"), a);
  EXPECT_EQ(reg.GetHistogram("x.us"), reg.GetHistogram("x.us"));
  EXPECT_EQ(reg.GetGauge("x.g"), reg.GetGauge("x.g"));
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Histogram* h = reg.GetHistogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kPerThread);
  // Sum and max use CAS loops, so they are exact too.
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum = expected_sum + static_cast<double>(t + 1) * kPerThread;
  }
  EXPECT_DOUBLE_EQ(h->Sum(), expected_sum);
  EXPECT_DOUBLE_EQ(h->Max(), kThreads);
}

TEST(MetricsRegistryTest, StripedMetricsMatchSerialReference) {
  // More threads than stripes, so stripes are shared; values include
  // nonpositive ones. Integer values keep every double sum exact.
  constexpr int kThreads = 24;
  constexpr int kPerThread = 5000;
  auto value = [](int t, int i) {
    return static_cast<double>((t * 7919 + i * 104729) % 3000 - 100);
  };
  auto increment = [](int t, int i) { return static_cast<uint64_t>((t + i) % 5); };
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Histogram* h = reg.GetHistogram("h");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment(increment(t, i));
        h->Record(value(t, i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  Histogram ref;
  uint64_t ref_count = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ref_count += increment(t, i);
      ref.Record(value(t, i));
    }
  }
  EXPECT_EQ(c->value(), ref_count);
  EXPECT_EQ(h->count(), ref.count());
  EXPECT_EQ(h->Sum(), ref.Sum());
  EXPECT_EQ(h->Max(), ref.Max());
  EXPECT_EQ(h->Mean(), ref.Mean());
  for (double p : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h->Percentile(p), ref.Percentile(p)) << "p" << p;
  }
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    ASSERT_EQ(h->BucketCount(i), ref.BucketCount(i)) << "bucket " << i;
  }
  c->Reset();
  h->Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->Sum(), 0);
  EXPECT_EQ(h->Max(), 0);
}

TEST(HistogramTest, QuantileAccuracy) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(i);
  }
  // Log buckets with 32 sub-buckets per octave: relative error < ~3%.
  EXPECT_NEAR(h.Percentile(0.5), 5000, 5000 * 0.04);
  EXPECT_NEAR(h.Percentile(0.9), 9000, 9000 * 0.04);
  EXPECT_NEAR(h.Percentile(0.99), 9900, 9900 * 0.04);
  EXPECT_DOUBLE_EQ(h.Max(), 10000);
  EXPECT_LE(h.Percentile(1.0), h.Max());
  // Values spanning many octaves, including sub-1.0.
  Histogram wide;
  wide.Record(0.001);
  wide.Record(1000000);
  EXPECT_NEAR(wide.Percentile(0.0), 0.001, 0.001 * 0.05);
  EXPECT_DOUBLE_EQ(wide.Max(), 1000000);
}

TEST(MetricsRegistryTest, JsonExportRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("fs.ops")->Increment(42);
  reg.GetGauge("cache.bytes")->Set(-7);
  Histogram* h = reg.GetHistogram("op.read.total_us");
  for (int i = 1; i <= 100; ++i) {
    h->Record(i);
  }
  std::string json = reg.ExportJson();
  // Structural sanity: one top-level object with the three sections.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // Values survive the trip.
  EXPECT_NE(json.find("\"fs.ops\":42"), std::string::npos);
  EXPECT_NE(json.find("\"cache.bytes\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"op.read.total_us\":{\"count\":100,\"sum\":5050,\"mean\":50.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"max\":100"), std::string::npos);
  // Balanced braces (no truncation).
  int depth = 0;
  for (char ch : json) {
    depth += (ch == '{') - (ch == '}');
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // ResetAll zeroes but keeps handles valid.
  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("fs.ops")->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
}

TEST(TraceTest, NestedOpTraceIsPassthrough) {
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  MetricsRegistry reg;
  OpMetrics outer_m = OpMetrics::For(&reg, "outer");
  OpMetrics inner_m = OpMetrics::For(&reg, "inner");
  uint64_t first_id = 0;
  {
    OpTrace outer(&outer_m);
    EXPECT_TRUE(outer.active());
    first_id = obs::CurrentTraceId();
    EXPECT_NE(first_id, 0u);
    {
      OpTrace inner(&inner_m);
      EXPECT_FALSE(inner.active());
      // The outer trace stays current.
      EXPECT_EQ(obs::CurrentTraceId(), first_id);
    }
    EXPECT_EQ(obs::CurrentTraceId(), first_id);
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  // Only the outer op recorded; the nested one was a no-op.
  EXPECT_EQ(outer_m.count->value(), 1u);
  EXPECT_EQ(outer_m.total_us->count(), 1u);
  EXPECT_EQ(inner_m.count->value(), 0u);

  // Distinct ops get distinct trace ids.
  OpTrace next(&outer_m);
  EXPECT_NE(obs::CurrentTraceId(), first_id);
}

TEST(TraceTest, SpansAttributeExclusiveTime) {
  MetricsRegistry reg;
  OpMetrics m = OpMetrics::For(&reg, "op");
  {
    OpTrace trace(&m);
    Span lock_span(Layer::kLock, "test.lock", 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    {
      Span petal_span(Layer::kPetal, "test.petal", 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  constexpr int kLockIdx = static_cast<int>(Layer::kLock);
  constexpr int kPetalIdx = static_cast<int>(Layer::kPetal);
  constexpr int kFsIdx = static_cast<int>(Layer::kFs);
  ASSERT_EQ(m.total_us->count(), 1u);
  ASSERT_EQ(m.layer_us[kLockIdx]->count(), 1u);
  ASSERT_EQ(m.layer_us[kPetalIdx]->count(), 1u);
  ASSERT_EQ(m.layer_us[kFsIdx]->count(), 1u);
  double total = m.total_us->Mean();
  double lock_us = m.layer_us[kLockIdx]->Mean();
  double petal_us = m.layer_us[kPetalIdx]->Mean();
  double fs_us = m.layer_us[kFsIdx]->Mean();
  // Exclusive attribution: the nested petal sleep is not double-counted
  // into the lock layer, and kFs holds only the (tiny) remainder.
  EXPECT_GE(total, 8000);
  EXPECT_GE(petal_us, 4000);
  EXPECT_GE(lock_us, 2000);
  EXPECT_LT(lock_us, total - petal_us + 1000);
  EXPECT_GE(fs_us, 0);
  // Layer times sum to the total (same measured intervals, by construction;
  // allow slack for bucket quantization in the histograms).
  EXPECT_NEAR(lock_us + petal_us + fs_us, total, total * 0.1 + 50);
}

TEST(TraceTest, SpanWithoutTraceStillFeedsHistogram) {
  MetricsRegistry reg;
  Histogram* lat = reg.GetHistogram("lat_us");
  {
    Span span(Layer::kPetal, "test.petal", 0, lat);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(lat->count(), 1u);
  EXPECT_GE(lat->Mean(), 1000);
}

// One Span's two clock reads feed all three outputs: the layer time, the
// histogram sample and the ring event carry the same duration.
TEST(TraceTest, SpanFeedsAttributionHistogramAndRing) {
  obs::Recorder* rec = obs::Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  MetricsRegistry reg;
  OpMetrics m = OpMetrics::For(&reg, "op");
  Histogram* lat = reg.GetHistogram("lat_us");
  uint64_t id = 0;
  {
    OpTrace trace(&m);
    id = obs::CurrentTraceId();
    Span span(Layer::kWal, "test.wal", 3, lat, "lsn", 9);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  rec->Enable(false);
  constexpr int kWalIdx = static_cast<int>(Layer::kWal);
  ASSERT_EQ(m.layer_us[kWalIdx]->count(), 1u);
  ASSERT_EQ(lat->count(), 1u);
  std::vector<obs::TraceEvent> spans;
  for (const obs::TraceEvent& e : rec->Snapshot()) {
    if (std::string(e.name) == "test.wal") {
      spans.push_back(e);
    }
  }
  ASSERT_EQ(spans.size(), 1u);
  const obs::TraceEvent& e = spans[0];
  EXPECT_EQ(e.trace_id, id);
  EXPECT_EQ(e.node, 3u);
  EXPECT_EQ(e.layer, Layer::kWal);
  EXPECT_EQ(e.a0, 9u);
  EXPECT_GE(e.dur_ns, 2'000'000);
  // Histogram sums are exact, so both samples equal the event's duration.
  double dur_us = static_cast<double>(e.dur_ns) / 1e3;
  EXPECT_DOUBLE_EQ(lat->Sum(), dur_us);
  EXPECT_DOUBLE_EQ(m.layer_us[kWalIdx]->Sum(), dur_us);
  rec->Clear();
}

// RPC handler time belongs to the caller's layer: a kLock scope that makes
// a Network::Call whose handler sleeps is charged to lock, not net.
TEST(TraceTest, RpcHandlerTimeStaysInCallersLayer) {
  class SlowService : public Service {
   public:
    StatusOr<Bytes> Handle(uint32_t, const Bytes&, NodeId) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return Bytes{};
    }
  };
  Network net;  // default links: no latency, unlimited bandwidth
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  SlowService slow;
  net.RegisterService(b, "slow", &slow);
  MetricsRegistry reg;
  OpMetrics m = OpMetrics::For(&reg, "op");
  {
    OpTrace trace(&m);
    Span lock_span(Layer::kLock, "test.lock", a);
    ASSERT_TRUE(net.Call(a, b, "slow", 0, Bytes(16, 1)).ok());
  }
  constexpr int kLockIdx = static_cast<int>(Layer::kLock);
  constexpr int kNetIdx = static_cast<int>(Layer::kNet);
  ASSERT_EQ(m.layer_us[kLockIdx]->count(), 1u);
  EXPECT_GE(m.layer_us[kLockIdx]->Mean(), 5000);
  // Two messages crossed the (unmodeled) wire; that is all kNet holds.
  ASSERT_EQ(m.layer_us[kNetIdx]->count(), 1u);
  EXPECT_LT(m.layer_us[kNetIdx]->Mean(), 1000);
}

// End-to-end: a traced FS op propagates through the clerk, WAL, Petal
// client, and network on the caller's thread, so per-layer breakdowns in
// the default registry are populated.
TEST(TracePropagationTest, FsOpsProduceLayerBreakdowns) {
  MetricsRegistry* reg = MetricsRegistry::Default();
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  auto node = cluster.AddFrangipani();
  ASSERT_TRUE(node.ok());
  FrangipaniFs* fs = (*node)->fs();

  uint64_t create_before = reg->GetCounter("op.create.count")->value();
  uint64_t read_petal_before = reg->GetHistogram("op.read.petal_us")->count();

  auto ino = fs->Create("/traced");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs->Write(*ino, 0, Bytes(8192, 0xAB)).ok());
  ASSERT_TRUE(fs->Fsync(*ino).ok());
  ASSERT_TRUE(fs->DropCaches().ok());
  Bytes buf;
  ASSERT_TRUE(fs->Read(*ino, 0, 8192, &buf).ok());

  // Create acquired locks and talked to the lock server over the network.
  EXPECT_GT(reg->GetCounter("op.create.count")->value(), create_before);
  EXPECT_GE(reg->GetHistogram("op.create.total_us")->count(), 1u);
  EXPECT_GE(reg->GetHistogram("op.create.lock_us")->count(), 1u);
  EXPECT_GE(reg->GetHistogram("op.create.net_us")->count(), 1u);
  // The cold read went to Petal inside the traced op.
  EXPECT_GT(reg->GetHistogram("op.read.petal_us")->count(), read_petal_before);
  // Layer wiring fed the standalone histograms and per-node net counters.
  EXPECT_GE(reg->GetHistogram("petal.read_us")->count(), 1u);
  EXPECT_GE(reg->GetHistogram("lock.acquire_us")->count(), 1u);
  EXPECT_GT(reg->GetCounter("petal.read_bytes")->value(), 0u);
  EXPECT_GT(reg->GetCounter("net.n1.msgs")->value(), 0u);

  // The cluster-level dump sees all of it.
  std::string json = cluster.DumpMetricsJson();
  EXPECT_NE(json.find("\"op.create.total_us\""), std::string::npos);
  EXPECT_NE(json.find("\"op.read.petal_us\""), std::string::npos);
  std::string text = cluster.DumpMetrics();
  EXPECT_NE(text.find("op.create.count"), std::string::npos);
}

// ---- Flight recorder ----

using obs::EventKind;
using obs::Recorder;
using obs::RecordInstant;
using obs::TraceEvent;

// The disabled path is one relaxed load: no ring is allocated, no event is
// constructed, no counter moves.
TEST(RecorderTest, DisabledPathAllocatesNothing) {
  Recorder* rec = Recorder::Default();
  rec->Enable(false);
  rec->Clear();
  MetricsRegistry* reg = MetricsRegistry::Default();
  uint64_t events_before = reg->GetCounter("obs.events")->value();
  uint64_t dropped_before = reg->GetCounter("obs.dropped_events")->value();
  for (int i = 0; i < 1000; ++i) {
    Span span(Layer::kPetal, "disabled.span", 1, nullptr, "i", i);
    RecordInstant(Layer::kLock, "disabled.instant", 1);
  }
  EXPECT_EQ(rec->ring_count(), 0u);
  EXPECT_TRUE(rec->Snapshot().empty());
  EXPECT_EQ(reg->GetCounter("obs.events")->value(), events_before);
  EXPECT_EQ(reg->GetCounter("obs.dropped_events")->value(), dropped_before);
}

TEST(RecorderTest, RingWraparoundOverwritesOldestAndCountsDrops) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  MetricsRegistry* reg = MetricsRegistry::Default();
  uint64_t dropped_before = reg->GetCounter("obs.dropped_events")->value();
  constexpr uint64_t kExtra = 100;
  // One marker that must be overwritten, then enough to wrap the ring.
  RecordInstant(Layer::kFs, "wrap.early", 1);
  for (uint64_t i = 0; i + 1 < Recorder::kRingSlots + kExtra; ++i) {
    RecordInstant(Layer::kFs, "wrap.late", 1, "i", i);
  }
  std::vector<TraceEvent> snap = rec->Snapshot();
  EXPECT_EQ(snap.size(), Recorder::kRingSlots);
  for (const TraceEvent& e : snap) {
    EXPECT_STRNE(e.name, "wrap.early");
  }
  EXPECT_EQ(reg->GetCounter("obs.dropped_events")->value(), dropped_before + kExtra);
  rec->Enable(false);
  rec->Clear();
}

// A ring's slots take memory only as the ring fills them: a thread that
// emits 100 events (8 KB of slots) must not pin a whole 4096-slot ring.
TEST(RecorderTest, RingTakesMemoryOnlyAsItFills) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  constexpr size_t kRingBytes = Recorder::kRingSlots * 80;
  std::thread emitter([] {
    for (uint64_t i = 0; i < 100; ++i) {
      RecordInstant(Layer::kFs, "lazy.ring", 1, "i", i);
    }
  });
  emitter.join();
  ASSERT_EQ(rec->ring_count(), 1u);
  size_t resident = rec->resident_ring_bytes();
  EXPECT_GE(resident, 100u * 80);
  EXPECT_LT(resident, kRingBytes / 4) << "one ring is " << kRingBytes << " bytes";
  EXPECT_EQ(rec->Snapshot().size(), 100u);
  rec->Enable(false);
  rec->Clear();
}

// A promoted slow op keeps a copy of its span tree, so later ring
// wraparound cannot erase it; the kept events also reach DumpJson.
TEST(RecorderTest, SlowOpPromotionSurvivesWraparound) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  rec->set_slow_op_us(1);  // everything is "slow"
  MetricsRegistry* reg = MetricsRegistry::Default();
  uint64_t promoted_before = reg->GetCounter("obs.slow_ops")->value();
  MetricsRegistry local;
  OpMetrics m = OpMetrics::For(&local, "slowop");
  uint64_t id = 0;
  {
    OpTrace op(&m, /*node=*/7);
    id = obs::CurrentTraceId();
    Span inner(Layer::kPetal, "slowop.inner", 7, nullptr, "chunk", 42);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rec->set_slow_op_us(0);
  EXPECT_EQ(reg->GetCounter("obs.slow_ops")->value(), promoted_before + 1);
  // Wrap the ring so the live copies of the op's events are overwritten.
  for (uint64_t i = 0; i < Recorder::kRingSlots + 8; ++i) {
    RecordInstant(Layer::kFs, "slowop.filler", 7);
  }
  std::vector<Recorder::SlowOp> kept = rec->SlowOps();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].trace_id, id);
  EXPECT_EQ(kept[0].node, 7u);
  EXPECT_STREQ(kept[0].op, "slowop");
  bool has_inner = false;
  for (const TraceEvent& e : kept[0].events) {
    if (std::string(e.name) == "slowop.inner") {
      has_inner = true;
      EXPECT_EQ(e.trace_id, id);
      EXPECT_EQ(e.a0, 42u);
    }
  }
  EXPECT_TRUE(has_inner);
  // The dump merges kept slow-op events back in even after overwrite.
  std::string json = rec->DumpJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("slowop.inner"), std::string::npos);
  EXPECT_FALSE(rec->SlowestOpSummary().empty());
  rec->Enable(false);
  rec->Clear();
}

// Slow-op capture filters each ring by trace id instead of sorting a full
// snapshot; the kept events must equal what snapshot-then-filter keeps: the
// earliest kMaxSlowOpEvents of the op's events by start time, across live
// rings and the ring of a thread that has exited.
TEST(RecorderTest, SlowOpCaptureMatchesSnapshotThenFilter) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  constexpr uint64_t kOp = 0xC0FFEE;
  constexpr int kThreads = 3;
  constexpr int kPerThread = 600;  // 1800 of the op's events > kMaxSlowOpEvents
  // Thread t emits event i at start time i * kThreads + t (all distinct),
  // alternating the op's trace id with another op's.
  auto emit = [&](int t) {
    for (int i = 0; i < 2 * kPerThread; ++i) {
      TraceEvent e;
      e.name = "capture.event";
      e.trace_id = i % 2 == 0 ? kOp : kOp + 1;
      e.start_ns = 1000 + static_cast<int64_t>(i) * kThreads + t;
      e.a0 = static_cast<uint64_t>(t);
      rec->Emit(e);
    }
  };
  std::thread retired([&] { emit(0); });  // exits: its ring is retired
  retired.join();
  std::mutex mu;
  std::condition_variable cv;
  int emitted = 0;
  bool release = false;
  std::vector<std::thread> live;
  for (int t = 1; t < kThreads; ++t) {
    live.emplace_back([&, t] {
      emit(t);
      std::unique_lock<std::mutex> lk(mu);
      ++emitted;
      cv.notify_all();
      cv.wait(lk, [&] { return release; });  // keep the ring live
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return emitted == kThreads - 1; });
  }
  std::vector<TraceEvent> expected;
  for (const TraceEvent& e : rec->Snapshot()) {
    if (e.trace_id == kOp && expected.size() < Recorder::kMaxSlowOpEvents) {
      expected.push_back(e);
    }
  }
  rec->PromoteSlowOp(kOp, "capture", 1, 0, 1000);
  {
    std::lock_guard<std::mutex> guard(mu);
    release = true;
    cv.notify_all();
  }
  for (std::thread& t : live) {
    t.join();
  }
  std::vector<Recorder::SlowOp> kept = rec->SlowOps();
  ASSERT_EQ(kept.size(), 1u);
  ASSERT_EQ(expected.size(), Recorder::kMaxSlowOpEvents);
  ASSERT_EQ(kept[0].events.size(), expected.size());
  std::set<uint64_t> tids;
  for (size_t i = 0; i < expected.size(); ++i) {
    const TraceEvent& got = kept[0].events[i];
    EXPECT_EQ(got.trace_id, kOp);
    EXPECT_EQ(got.start_ns, expected[i].start_ns) << i;
    EXPECT_EQ(got.tid, expected[i].tid) << i;
    EXPECT_EQ(got.a0, expected[i].a0) << i;
    tids.insert(got.tid);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));  // every ring contributed
  rec->Enable(false);
  rec->Clear();
}

// With the keep-list full, an op no slower than every kept op is turned
// away before its events are collected, and the list is unchanged; a slower
// op still replaces the fastest kept op, events included.
TEST(RecorderTest, FullKeepListTurnsAwayFasterOpBeforeCollecting) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  Counter* captures = MetricsRegistry::Default()->GetCounter("obs.slow_op_captures");
  constexpr uint64_t kBase = 0xFA57000;
  constexpr uint64_t kFaster = kBase + 1000, kSlower = kBase + 1001;
  // Kept op i takes (i + 10) us, so the fastest kept op takes 10 us.
  for (uint64_t i = 0; i < Recorder::kMaxSlowOps; ++i) {
    rec->PromoteSlowOp(kBase + i, "kept", 1, 0, static_cast<int64_t>(i + 10) * 1000);
  }
  for (uint64_t id : {kFaster, kSlower}) {
    TraceEvent e;
    e.name = "keeplist.event";
    e.trace_id = id;
    e.start_ns = 1;
    rec->Emit(e);
  }
  auto total_by_trace = [&] {
    std::map<uint64_t, int64_t> out;
    for (const Recorder::SlowOp& op : rec->SlowOps()) {
      out[op.trace_id] = op.total_ns;
    }
    return out;
  };
  std::map<uint64_t, int64_t> before = total_by_trace();
  ASSERT_EQ(before.size(), Recorder::kMaxSlowOps);

  uint64_t captured = captures->value();
  rec->PromoteSlowOp(kFaster, "faster", 1, 0, 10 * 1000);  // ties the fastest: not kept
  EXPECT_EQ(captures->value(), captured);
  EXPECT_EQ(total_by_trace(), before);

  rec->PromoteSlowOp(kSlower, "slower", 1, 0, 500 * 1000);
  EXPECT_EQ(captures->value(), captured + 1);
  std::map<uint64_t, int64_t> after = total_by_trace();
  std::map<uint64_t, int64_t> expected = before;
  expected.erase(kBase);  // the fastest kept op
  expected[kSlower] = 500 * 1000;
  EXPECT_EQ(after, expected);
  for (const Recorder::SlowOp& op : rec->SlowOps()) {
    if (op.trace_id == kSlower) {
      ASSERT_EQ(op.events.size(), 1u);
      EXPECT_STREQ(op.events[0].name, "keeplist.event");
    }
  }
  rec->Enable(false);
  rec->Clear();
}

// Emitters keep writing while another thread snapshots and dumps: the
// seqlock skips mid-write slots instead of tearing them. Run under TSan in
// CI to verify the memory-order protocol.
TEST(RecorderTest, ConcurrentEmitDuringDump) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;  // > kRingSlots: wraps while dumping
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        Span span(Layer::kNet, "race.span", t + 1, nullptr, "i", i);
        RecordInstant(Layer::kNet, "race.instant", t + 1);
      }
      running.fetch_sub(1);
    });
  }
  // Dump continuously until every writer has finished, so reads overlap the
  // emits (and the overwrites, once the rings wrap).
  do {
    std::vector<TraceEvent> snap = rec->Snapshot();
    for (const TraceEvent& e : snap) {
      ASSERT_NE(e.name, nullptr);
    }
    std::string json = rec->DumpJson();
    int depth = 0;
    for (char ch : json) {
      depth += (ch == '{') - (ch == '}');
      ASSERT_GE(depth, 0);
    }
    ASSERT_EQ(depth, 0);
  } while (running.load() > 0);
  for (auto& w : writers) {
    w.join();
  }
  // Exited writers retired their rings; their events are still visible.
  EXPECT_FALSE(rec->Snapshot().empty());
  rec->Enable(false);
  rec->Clear();
}

// Async work submitted from inside a traced op inherits the op's trace id,
// so spans emitted on IO-pool threads land in the same span tree.
TEST(RecorderTest, TraceIdPropagatesThroughIoPool) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  Network net;
  MetricsRegistry local;
  OpMetrics m = OpMetrics::For(&local, "async_op");
  uint64_t id = 0;
  std::atomic<uint64_t> submit_seen{0};
  std::vector<uint64_t> pf_seen(8, 0);
  {
    OpTrace op(&m);
    id = obs::CurrentTraceId();
    ASSERT_NE(id, 0u);
    std::promise<void> done;
    net.SubmitIo([&] {
      submit_seen.store(obs::CurrentTraceId());
      {
        Span span(Layer::kPetal, "pool.span", 0);
      }
      // Signal only after the span has been emitted, so the snapshot below
      // is ordered after it.
      done.set_value();
    });
    done.get_future().wait();
    ASSERT_TRUE(net.ParallelFor(pf_seen.size(), /*window=*/4,
                                [&](size_t i) {
                                  pf_seen[i] = obs::CurrentTraceId();
                                  return Status::Ok();
                                })
                    .ok());
  }
  EXPECT_EQ(submit_seen.load(), id);
  for (uint64_t seen : pf_seen) {
    EXPECT_EQ(seen, id);
  }
  // Off the pool and outside the op, no id leaks.
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  bool pool_span_tagged = false;
  for (const TraceEvent& e : rec->Snapshot()) {
    if (std::string(e.name) == "pool.span") {
      pool_span_tagged = e.trace_id == id;
    }
  }
  EXPECT_TRUE(pool_span_tagged);
  rec->Enable(false);
  rec->Clear();
}

// A cold read reaches Petal inside the traced op, so the Petal client's span
// shows up in the flight recorder under the op's trace id.
TEST(RecorderTest, ColdReadRecordsPetalClientSpan) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  Cluster cluster(opts);  // Start() turns the recorder on
  ASSERT_TRUE(cluster.Start().ok());
  auto node = cluster.AddFrangipani();
  ASSERT_TRUE(node.ok());
  FrangipaniFs* fs = (*node)->fs();
  auto ino = fs->Create("/cold");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs->Write(*ino, 0, Bytes(8192, 0xCD)).ok());
  ASSERT_TRUE(fs->Fsync(*ino).ok());
  ASSERT_TRUE(fs->DropCaches().ok());
  Recorder* rec = Recorder::Default();
  rec->Clear();
  Bytes buf;
  ASSERT_TRUE(fs->Read(*ino, 0, 8192, &buf).ok());
  std::vector<TraceEvent> events = rec->Snapshot();
  uint64_t read_id = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "read") {
      read_id = e.trace_id;
    }
  }
  ASSERT_NE(read_id, 0u);
  bool client_read_tagged = false;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "petal.client_read" && e.trace_id == read_id) {
      client_read_tagged = true;
      EXPECT_EQ(e.layer, Layer::kPetal);
    }
  }
  EXPECT_TRUE(client_read_tagged);
  rec->Enable(false);
  rec->Clear();
}

// ---- Windowed snapshots ----

TEST(SamplerTest, WindowedDeltaMath) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  obs::Gauge* g = reg.GetGauge("g");
  Histogram* h = reg.GetHistogram("h");
  c->Increment(5);
  g->Set(3);
  h->Record(10);
  obs::MetricsSampler sampler(&reg);
  sampler.Tick();  // baseline only, no window
  EXPECT_EQ(sampler.window_count(), 0u);

  c->Increment(7);
  g->Set(10);
  h->Record(4);
  h->Record(6);
  sampler.Tick();
  EXPECT_EQ(sampler.window_count(), 1u);

  sampler.Tick();  // idle window: only the gauge level is nonzero
  EXPECT_EQ(sampler.window_count(), 2u);

  std::string csv = sampler.ExportCsv();
  EXPECT_EQ(csv.rfind("window,t_ms,metric,value\n", 0), 0u);
  // Window 0: counter delta 7 (not the cumulative 12), histogram deltas
  // count=2 / sum=10, gauge level 10.
  EXPECT_NE(csv.find(",c,7\n"), std::string::npos);
  EXPECT_EQ(csv.find(",c,12\n"), std::string::npos);
  EXPECT_NE(csv.find(",h.count,2\n"), std::string::npos);
  EXPECT_NE(csv.find(",h.sum,10\n"), std::string::npos);
  EXPECT_NE(csv.find(",g,10\n"), std::string::npos);
  // The idle window emits no counter/histogram rows (zero deltas skipped).
  size_t first = csv.find(",c,7\n");
  EXPECT_EQ(csv.find(",c,", first + 1), std::string::npos);

  sampler.Reset();
  EXPECT_EQ(sampler.window_count(), 0u);
  // After Reset the next Tick is a baseline again.
  sampler.Tick();
  EXPECT_EQ(sampler.window_count(), 0u);
}

TEST(SamplerTest, BackgroundStartStop) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("bg");
  obs::MetricsSampler sampler(&reg);
  sampler.Start(Duration(5'000));  // 5 ms windows
  for (int i = 0; i < 20; ++i) {
    c->Increment();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();
  EXPECT_GE(sampler.window_count(), 2u);
  std::string csv = sampler.ExportCsv();
  EXPECT_NE(csv.find(",bg,"), std::string::npos);
  sampler.Stop();  // idempotent
}

}  // namespace
}  // namespace frangipani
