// Cluster flight recorder: lock-free per-thread ring buffers of structured
// span/instant events, exportable as Chrome-trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Design:
//  - Each emitting thread owns one EventRing (fixed 4096 slots, mapped on
//    first emit as zero-filled pages that take memory only as the ring
//    fills them). Emit writes only thread-local slots plus relaxed bumps of
//    the obs.events / obs.dropped_events counters, whose per-thread stripes
//    keep them exact without a cache line shared between emitters, so
//    recording never takes a lock and never blocks another thread.
//  - Overwrite-oldest semantics: the ring is circular; once a thread has
//    emitted kSlots events, every further emit overwrites that thread's
//    oldest event and increments the `obs.dropped_events` counter. A dump
//    therefore shows the *most recent* window of activity per thread, not
//    the whole run. Slots use a seqlock (odd = mid-write) so a concurrent
//    dump skips, rather than tears, the slot being overwritten.
//  - Disabled path: every instrumentation site (obs::Span, RecordInstant)
//    checks RecorderEnabled(), a single relaxed atomic load. No ring is
//    allocated and no event is emitted while the recorder is off.
//  - Slow-op capture: when an OpTrace completes above the configured
//    threshold (Recorder::set_slow_op_us), its full span tree — every ring
//    event carrying that trace id, including spans emitted by IO-pool
//    threads that inherited the id — is copied into a bounded keep-list
//    (kMaxSlowOps entries; when full, a new op replaces the fastest kept op
//    only if it is slower; an op that would not be kept is turned away
//    before its events are collected). Kept ops survive later ring
//    overwrites and are merged into DumpJson; `obs.slow_ops` counts
//    promotions and `obs.slow_op_captures` the ones whose events were
//    collected.
//  - Exited threads retire their ring instead of freeing it, so a dump still
//    sees their events; at most kMaxRetiredRings retired rings are kept
//    (oldest dropped, counted as dropped events).
#ifndef SRC_OBS_RECORDER_H_
#define SRC_OBS_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace frangipani {
namespace obs {

// Process-wide recorder on/off flag, read by every instrumentation site with
// one relaxed load.
extern std::atomic<bool> g_recorder_on;
inline bool RecorderEnabled() { return g_recorder_on.load(std::memory_order_relaxed); }

// Interns `s` into a process-lifetime string table and returns a stable
// C-string pointer. Event names must be interned (or string literals) so
// ring slots can hold raw pointers.
const char* InternString(const std::string& s);

class EventRing;

class Recorder {
 public:
  static constexpr size_t kRingSlots = 4096;    // events kept per thread
  static constexpr size_t kMaxSlowOps = 32;     // slow-op keep-list bound
  static constexpr size_t kMaxSlowOpEvents = 1024;  // spans kept per slow op
  static constexpr size_t kMaxRetiredRings = 64;

  // A slow op promoted to the keep-list: the root op plus every event that
  // carried its trace id at promotion time.
  struct SlowOp {
    uint64_t trace_id = 0;
    const char* op = nullptr;
    uint32_t node = 0;
    int64_t start_ns = 0;
    int64_t total_ns = 0;
    std::vector<TraceEvent> events;
  };

  // Process-wide instance used by all runtime layers (like
  // MetricsRegistry::Default).
  static Recorder* Default();

  Recorder();

  // Turns recording on/off (affects future emits only; existing ring
  // contents and kept slow ops are preserved until Clear()).
  void Enable(bool on);

  // Ops slower than this are promoted to the keep-list; 0 disables slow-op
  // capture. Thread-safe.
  void set_slow_op_us(int64_t us) { slow_op_us_.store(us, std::memory_order_relaxed); }
  int64_t slow_op_us() const { return slow_op_us_.load(std::memory_order_relaxed); }

  // Appends one event to the calling thread's ring (overwriting its oldest
  // if full). Callers gate on RecorderEnabled() themselves; Emit assumes the
  // recorder is on.
  void Emit(const TraceEvent& event);

  // Called by OpTrace when an op finishes above the slow threshold. If the
  // op would be kept (the keep-list has room or holds a faster op), scans
  // all rings for events with `trace_id` and copies the earliest
  // kMaxSlowOpEvents of them into the keep-list; otherwise collects
  // nothing. Other ops' events are skipped after one load each, so only
  // this op's events are copied and sorted.
  void PromoteSlowOp(uint64_t trace_id, const char* op, uint32_t node, int64_t start_ns,
                     int64_t total_ns);

  // Copies every live ring event (racing emitters may be skipped for the
  // one slot they are mid-write in), sorted by start time.
  std::vector<TraceEvent> Snapshot() const;

  std::vector<SlowOp> SlowOps() const;

  // Chrome trace-event JSON: one "process" row per node (named via
  // SetNodeName), one track per emitting thread, spans as "X" complete
  // events with trace id + args, instants as "i". Ring events and kept
  // slow-op events are merged and deduplicated. Load the output in
  // https://ui.perfetto.dev or chrome://tracing.
  std::string DumpJson() const;

  // Indented span tree of the slowest kept op with its critical path marked
  // ("*" = the longest child at each nesting level). Empty string when no
  // slow op has been captured.
  std::string SlowestOpSummary() const;

  // Names the Perfetto process row for a node id (Network::AddNode wires
  // this automatically).
  void SetNodeName(uint32_t node, const std::string& name);

  // Drops all ring contents, retired rings, and kept slow ops. Counters are
  // not reset (they live in the metrics registry).
  void Clear();

  // Number of rings ever created (live + retired); exposed for tests
  // asserting the disabled path allocates nothing.
  size_t ring_count() const;
  // Bytes of ring slot memory that is resident (live + retired rings);
  // exposed for tests asserting a ring takes memory only as it fills.
  size_t resident_ring_bytes() const;

 private:
  friend class EventRing;
  friend struct RingHolder;

  EventRing* RingForThisThread();
  // Live and retired ring events, sorted by start time: all of them when
  // `trace_id` is 0, else only those carrying `trace_id`.
  std::vector<TraceEvent> SortedEvents(uint64_t trace_id) const;
  void RetireRing(const std::shared_ptr<EventRing>& ring);

  std::atomic<int64_t> slow_op_us_{0};
  // Bumped by Clear(); a thread whose cached ring predates the current
  // generation re-registers a fresh one on its next emit.
  std::atomic<uint64_t> clear_gen_{0};

  mutable std::mutex mu_;  // ring registries, slow list, node names
  std::vector<std::shared_ptr<EventRing>> rings_;    // owned by live threads
  std::deque<std::shared_ptr<EventRing>> retired_;   // owners exited
  uint32_t next_tid_ = 1;
  std::deque<SlowOp> slow_ops_;
  std::map<uint32_t, std::string> node_names_;

  Counter* m_events_;
  Counter* m_dropped_;
  Counter* m_slow_ops_;
  Counter* m_slow_op_captures_;
};

// Emits a zero-duration instant event (grant applied, partial revoke, ...).
// Does nothing while the recorder is off.
void RecordInstant(Layer layer, const char* name, uint32_t node = 0,
                   const char* a0_name = nullptr, uint64_t a0 = 0,
                   const char* a1_name = nullptr, uint64_t a1 = 0);

}  // namespace obs
}  // namespace frangipani

#endif  // SRC_OBS_RECORDER_H_
