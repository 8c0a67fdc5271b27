// Cross-layer op tracing.
//
// The simulated Network runs RPC handlers on the caller's thread, so a
// thread-local trace context set at the top of a FrangipaniFs op is visible
// all the way down through the lock clerk, the lock server's handler, WAL
// flushes, PetalClient, the Petal server's handler, and Network::Transmit —
// no explicit plumbing through call signatures.
//
// OpTrace is the RAII root span: it stamps a trace id, times the whole op,
// and on destruction records the total plus a per-layer breakdown into the
// op's metrics. Span is the inner span: each layer's hot path opens one, and
// its two clock reads feed three outputs — exclusive-time attribution (a
// Span adds its elapsed time to its own layer and subtracts it from the
// enclosing layer, so when the root closes the per-layer times sum exactly
// to the op total, kFs holding the remainder), an optional latency
// histogram, and one flight-recorder event (src/obs/recorder.h).
//
// Work on threads other than the op's (prefetch pool, background flush
// demons) simply carries no trace context and is not attributed; that is
// deliberate — the breakdown answers "where did *this call's* latency go".
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "src/obs/metrics.h"

namespace frangipani {
namespace obs {

enum class Layer { kFs = 0, kLock, kWal, kPetal, kNet };
inline constexpr int kNumLayers = 5;

const char* LayerName(Layer layer);

// Pre-resolved metric handles for one op name, so OpTrace's destructor never
// touches the registry mutex. Metric names are global (shared across fs
// instances): op.<op>.count, op.<op>.total_us, op.<op>.<layer>_us.
struct OpMetrics {
  Counter* count = nullptr;
  Histogram* total_us = nullptr;
  Histogram* layer_us[kNumLayers] = {};
  // Interned op name ("create", "read", ...), used as the root span's name
  // in the flight recorder.
  const char* name = nullptr;

  static OpMetrics For(MetricsRegistry* registry, const std::string& op);
};

struct TraceState {
  uint64_t trace_id = 0;
  uint32_t node = 0;  // simulated machine running the op (0 = unattributed)
  int64_t start_ns = 0;
  int64_t layer_ns[kNumLayers] = {};
  uint64_t layer_calls[kNumLayers] = {};
  Layer current = Layer::kFs;  // layer charged for time not inside a Span
  const OpMetrics* metrics = nullptr;
};

// Monotonic clock for span timing. The simulator models network / disk
// delays with real sleeps, so wall time is the right measure.
int64_t MonotonicNs();

// Trace id of the op active on this thread: the OpTrace rooted here, or the
// id inherited from the submitting op (InheritedTraceScope) on pool threads;
// 0 if neither. Used by the flight recorder to parent spans and by
// FLOG-style diagnostics to correlate lines with an op.
uint64_t CurrentTraceId();

// Carries a trace id onto a worker thread for the duration of a scope, so
// spans emitted by IO-pool / prefetch work appear as children of the
// submitting op in the flight recorder. Deliberately does NOT create a
// TraceState: Span exclusive-time attribution still sees no active
// trace on the worker, so per-op layer breakdowns keep answering "where did
// this call's latency go" (satellite: parentage changes, attribution
// doesn't). Nests by save/restore, so chained submits are safe.
class InheritedTraceScope {
 public:
  explicit InheritedTraceScope(uint64_t trace_id);
  ~InheritedTraceScope();

  InheritedTraceScope(const InheritedTraceScope&) = delete;
  InheritedTraceScope& operator=(const InheritedTraceScope&) = delete;

 private:
  uint64_t saved_;
};

class OpTrace {
 public:
  // `node` is the simulated machine running the op; it tags the root span
  // and slow-op captures in the flight recorder.
  explicit OpTrace(const OpMetrics* metrics, uint32_t node = 0);
  ~OpTrace();

  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

  // False when another OpTrace is already active on this thread (nested
  // public ops, e.g. Stat calling the shared StatIno path) — the inner
  // trace is a no-op and the outer one keeps accumulating.
  bool active() const { return active_; }

 private:
  bool active_;
  TraceState state_;
};

// Acquires a deferred unique_lock, recording the time spent blocked on the
// mutex into `wait_us` (microseconds). The uncontended path is one try_lock
// and a zero record — cheap enough for per-operation shard locks. This is
// how the sharded stores (petal.store_wait_us, fs.cache.shard_wait_us)
// expose their contention.
void LockTimed(std::unique_lock<std::mutex>& lk, Histogram* wait_us);

enum class EventKind : uint8_t { kSpan = 0, kInstant = 1 };

// One flight-recorder event. `name` and the arg names must point at storage
// with process lifetime (string literals or InternString results). Args are
// numeric by design (lock ids, chunk indices, byte counts); 0-valued arg
// names mark the arg as absent.
struct TraceEvent {
  uint64_t trace_id = 0;
  uint32_t node = 0;  // originating simulated machine; 0 = unattributed
  uint32_t tid = 0;   // recorder-assigned emitting-thread index
  Layer layer = Layer::kFs;
  EventKind kind = EventKind::kSpan;
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;  // 0 for instants
  const char* a0_name = nullptr;
  uint64_t a0 = 0;
  const char* a1_name = nullptr;
  uint64_t a1 = 0;
};

// Tag for a Span that records its ring event but moves no time between
// layers: the work inside it belongs to the enclosing layer (an RPC
// handler's time is the caller's; a revoke flush on the requester's thread
// is that op's lock wait).
struct RecordOnly {};
inline constexpr RecordOnly kRecordOnly{};

// RAII scope span. One clock read at open and one at close feed:
//  - exclusive-time attribution to `layer` when an OpTrace is active on
//    this thread (not for kRecordOnly spans);
//  - `latency_us`, if non-null, whether or not a trace is active — that is
//    how the standalone per-layer latency histograms are fed;
//  - one kSpan ring event, if the recorder was on at open.
// With none of the three wanted, a Span reads no clock and touches no ring.
// The trace id is sampled at close via CurrentTraceId(), so spans on IO-pool
// threads pick up the submitting op's inherited id.
class Span {
 public:
  Span(Layer layer, const char* name, uint32_t node, Histogram* latency_us = nullptr,
       const char* a0_name = nullptr, uint64_t a0 = 0, const char* a1_name = nullptr,
       uint64_t a1 = 0);
  Span(RecordOnly, Layer layer, const char* name, uint32_t node,
       const char* a0_name = nullptr, uint64_t a0 = 0, const char* a1_name = nullptr,
       uint64_t a1 = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Late-bound args for values only known mid-span (e.g. byte counts).
  void arg0(const char* name, uint64_t v) {
    e_.a0_name = name;
    e_.a0 = v;
  }
  void arg1(const char* name, uint64_t v) {
    e_.a1_name = name;
    e_.a1 = v;
  }

 private:
  Span(TraceState* trace, Layer layer, const char* name, uint32_t node,
       Histogram* latency_us, const char* a0_name, uint64_t a0, const char* a1_name,
       uint64_t a1);

  TraceEvent e_;
  TraceState* trace_;  // attribution target; null when none
  Layer parent_ = Layer::kFs;
  Histogram* latency_us_;
  bool record_;  // recorder was on at open
};

}  // namespace obs
}  // namespace frangipani

#endif  // SRC_OBS_TRACE_H_
