#include "src/net/network.h"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

namespace {
// Envelope overhead per message, and the per-sub-request framing overhead
// inside a vector call (method id, lengths, status demux fields).
constexpr size_t kHeaderBytes = 64;
constexpr size_t kSubHeaderBytes = 16;
}  // namespace

Network::~Network() {
  // Drain and join IO workers while every member they can touch is still
  // alive; default member-order destruction would free nodes_ first.
  io_pool_.reset();
}

NodeId Network::AddNode(std::string name) {
  std::lock_guard<std::mutex> guard(mu_);
  size_t n = num_nodes_.load(std::memory_order_relaxed);
  FGP_CHECK(n < kMaxNodes) << "node table full";
  auto node = std::make_unique<Node>();
  node->name = std::move(name);
  node->latency_us.store(defaults_.latency.count(), std::memory_order_relaxed);
  node->nic = std::make_unique<RateLimiter>(defaults_.bandwidth_bps);
  NodeId id = static_cast<NodeId>(n + 1);
  node->id = id;
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  node->m_msgs = reg->GetCounter("net.n" + std::to_string(id) + ".msgs");
  node->m_bytes = reg->GetCounter("net.n" + std::to_string(id) + ".bytes");
  obs::Recorder::Default()->SetNodeName(id, node->name);
  EditServices(*node, [](ServiceMap&) {});
  nodes_[n] = std::move(node);
  num_nodes_.store(n + 1, std::memory_order_release);
  return id;
}

Network::Node* Network::NodeAt(NodeId id) const {
  if (id < 1 || id > num_nodes_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return nodes_[id - 1].get();
}

Network::Node& Network::CheckedNode(NodeId id) const {
  FGP_CHECK(id >= 1 && id <= num_nodes_.load(std::memory_order_acquire)) << "unknown node " << id;
  return *nodes_[id - 1];
}

void Network::EditServices(Node& node, const std::function<void(ServiceMap&)>& edit) {
  const ServiceMap* old = node.services.load(std::memory_order_relaxed);
  auto next = std::make_unique<ServiceMap>(old != nullptr ? *old : ServiceMap());
  edit(*next);
  node.services.store(next.get(), std::memory_order_release);
  service_maps_.push_back(std::move(next));
}

void Network::RegisterService(NodeId node, const std::string& service, Service* svc) {
  std::lock_guard<std::mutex> guard(mu_);
  const char* span_name = obs::InternString("rpc." + service);
  EditServices(CheckedNode(node), [&](ServiceMap& m) { m[service] = {svc, span_name}; });
}

void Network::UnregisterService(NodeId node, const std::string& service) {
  std::lock_guard<std::mutex> guard(mu_);
  if (Node* n = NodeAt(node)) {
    EditServices(*n, [&](ServiceMap& m) { m.erase(service); });
  }
}

std::string Network::NodeName(NodeId node) const {
  Node* n = NodeAt(node);
  return n != nullptr ? n->name : "<invalid>";
}

bool Network::Reachable(const Node* src, const Node* dst) {
  if (src == nullptr || dst == nullptr) {
    return false;
  }
  if (!src->up.load(std::memory_order_acquire) || !dst->up.load(std::memory_order_acquire) ||
      src->isolated.load(std::memory_order_acquire) ||
      dst->isolated.load(std::memory_order_acquire)) {
    return false;
  }
  if (!faults_.load(std::memory_order_acquire)) {
    return true;
  }
  std::lock_guard<std::mutex> guard(mu_);
  auto key = std::minmax(src->id, dst->id);
  if (partitions_.count({key.first, key.second}) > 0) {
    return false;
  }
  if (drop_probability_ > 0 && rng_.Double() < drop_probability_) {
    return false;
  }
  return true;
}

void Network::Transmit(Node& src, Node& dst, size_t bytes) {
  // The kNet share of every message: wire time, queueing included, recorded
  // on the sending node.
  obs::Span span(obs::Layer::kNet, "net.tx", src.id, nullptr, "bytes", bytes, "dst", dst.id);
  src.m_msgs->Increment();
  src.m_bytes->Increment(bytes);
  // A message occupies the sender's and the receiver's link; the completion
  // time is the later of the two reservations plus propagation latency. A
  // message between two unlimited, zero-latency links costs no clock read.
  TimePoint reserved = std::max(src.nic->Acquire(bytes), dst.nic->Acquire(bytes));
  Duration latency(std::max(src.latency_us.load(std::memory_order_relaxed),
                            dst.latency_us.load(std::memory_order_relaxed)));
  if (reserved == RateLimiter::kNoReservation && latency == Duration::zero()) {
    m_queue_delay_us_->Record(0);
    return;
  }
  TimePoint now = std::chrono::steady_clock::now();
  TimePoint done = std::max(reserved, now) + latency;
  if (done > now) {
    // Queueing + propagation delay actually imposed on this message.
    m_queue_delay_us_->Record(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(done - now)
            .count());
    std::this_thread::sleep_until(done);
  } else {
    m_queue_delay_us_->Record(0);
  }
}

StatusOr<Bytes> Network::Call(NodeId from, NodeId to, const std::string& service,
                              uint32_t method, const Bytes& request) {
  Node* src = NodeAt(from);
  Node* dst = NodeAt(to);
  if (!Reachable(src, dst)) {
    return Unavailable("node " + std::to_string(to) + " unreachable from " +
                       std::to_string(from));
  }
  const ServiceMap& services = *dst->services.load(std::memory_order_acquire);
  auto it = services.find(service);
  if (it == services.end()) {
    return Unavailable("service '" + service + "' not registered at node " +
                       std::to_string(to));
  }
  Service* svc = it->second.svc;
  // Whole-RPC span (request wire + handler + reply wire). Record-only: the
  // wire time is kNet through Transmit's own span, and the handler runs on
  // this thread but its time belongs to whatever layer it is part of.
  obs::Span rpc_span(obs::kRecordOnly, obs::Layer::kNet, it->second.span_name, from, "dst", to,
                     "method", method);
  Transmit(*src, *dst, request.size() + kHeaderBytes);

  StatusOr<Bytes> response = svc->Handle(method, request, from);

  // The reply can also be lost / the target can die mid-call.
  if (!Reachable(dst, src)) {
    return Unavailable("reply from node " + std::to_string(to) + " lost");
  }
  size_t resp_bytes = response.ok() ? response.value().size() : 0;
  Transmit(*dst, *src, resp_bytes + kHeaderBytes);
  return response;
}

std::vector<StatusOr<Bytes>> Network::CallBatch(NodeId from, NodeId to,
                                                const std::vector<SubCall>& subs) {
  std::vector<StatusOr<Bytes>> results(subs.size(),
                                       StatusOr<Bytes>(Unavailable("not attempted")));
  if (subs.empty()) {
    return results;
  }
  if (subs.size() == 1) {
    results[0] = Call(from, to, subs[0].service, subs[0].method, subs[0].request);
    return results;
  }
  m_vector_calls_->Increment();
  m_vector_subcalls_->Increment(subs.size());
  // Record-only, like Call's rpc span: the sub-handlers' time is the caller's.
  obs::Span span(obs::kRecordOnly, obs::Layer::kNet, "net.vector_call", from, "dst", to, "n",
                 subs.size());

  Node* src = NodeAt(from);
  Node* dst = NodeAt(to);
  if (!Reachable(src, dst)) {
    Status down = Unavailable("node " + std::to_string(to) + " unreachable from " +
                              std::to_string(from));
    for (auto& r : results) {
      r = down;
    }
    return results;
  }

  // Marshal every sub-request into one request envelope. The whole batch is
  // one message on the wire, so it is charged one header and one latency.
  Encoder req;
  req.PutU32(static_cast<uint32_t>(subs.size()));
  for (const SubCall& sub : subs) {
    req.PutString(sub.service);
    req.PutU32(sub.method);
    req.PutBytes(sub.request);
  }
  Transmit(*src, *dst, req.size() + kHeaderBytes + subs.size() * kSubHeaderBytes);

  // Destination side: demux the envelope and run each handler in order on
  // this (the caller's) thread, exactly as a plain Call would.
  Encoder rep;
  {
    Decoder dec(req.buffer());
    uint32_t n = dec.GetU32();
    rep.PutU32(n);
    for (uint32_t i = 0; i < n; ++i) {
      std::string service = dec.GetString();
      uint32_t method = dec.GetU32();
      Bytes payload = dec.GetBytes();
      const ServiceMap& services = *dst->services.load(std::memory_order_acquire);
      auto it = services.find(service);
      Service* svc = it != services.end() ? it->second.svc : nullptr;
      StatusOr<Bytes> sub_result =
          svc != nullptr ? svc->Handle(method, payload, from)
                         : StatusOr<Bytes>(Unavailable("service '" + service +
                                                       "' not registered at node " +
                                                       std::to_string(to)));
      if (sub_result.ok()) {
        rep.PutU8(1);
        rep.PutBytes(sub_result.value());
      } else {
        rep.PutU8(0);
        rep.PutU32(static_cast<uint32_t>(sub_result.status().code()));
        rep.PutString(std::string(sub_result.status().message()));
      }
    }
  }

  if (!Reachable(dst, src)) {
    Status lost = Unavailable("reply from node " + std::to_string(to) + " lost");
    for (auto& r : results) {
      r = lost;
    }
    return results;
  }
  Transmit(*dst, *src, rep.size() + kHeaderBytes + subs.size() * kSubHeaderBytes);

  // Caller side: demux per-entry status + payload from the reply envelope.
  Decoder dec(rep.buffer());
  uint32_t n = dec.GetU32();
  for (uint32_t i = 0; i < n && i < results.size(); ++i) {
    if (dec.GetU8() != 0) {
      results[i] = dec.GetBytes();
    } else {
      StatusCode code = static_cast<StatusCode>(dec.GetU32());
      results[i] = Status(code, dec.GetString());
    }
  }
  return results;
}

std::vector<StatusOr<Bytes>> Network::ParallelCalls(NodeId from,
                                                    const std::vector<CallSpec>& specs,
                                                    uint32_t window, ParallelForOptions opts,
                                                    size_t max_batch) {
  std::vector<StatusOr<Bytes>> results(specs.size(),
                                       StatusOr<Bytes>(Unavailable("not attempted")));
  if (specs.empty()) {
    return results;
  }
  if (max_batch == 0) {
    max_batch = 1;
  }
  // Fusion pass: group spec indices by destination (chunk placement stripes
  // round-robin, so same-destination entries are generally NOT adjacent),
  // splitting oversized groups at max_batch. Each unit is one message pair.
  std::map<NodeId, std::vector<size_t>> by_dst;
  for (size_t i = 0; i < specs.size(); ++i) {
    by_dst[specs[i].to].push_back(i);
  }
  std::vector<std::vector<size_t>> units;
  for (auto& [dst, idx] : by_dst) {
    for (size_t off = 0; off < idx.size(); off += max_batch) {
      size_t end = std::min(idx.size(), off + max_batch);
      units.emplace_back(idx.begin() + off, idx.begin() + end);
    }
  }
  // Units always "succeed" from ParallelFor's point of view: per-entry
  // failures land in `results`, and issuing must not stop early.
  (void)ParallelFor(
      units.size(), window,
      [&](size_t u) -> Status {
        const std::vector<size_t>& idx = units[u];
        if (idx.size() == 1) {
          const CallSpec& s = specs[idx[0]];
          results[idx[0]] = Call(from, s.to, s.service, s.method, s.request);
          return OkStatus();
        }
        std::vector<SubCall> subs;
        subs.reserve(idx.size());
        for (size_t i : idx) {
          subs.push_back({specs[i].service, specs[i].method, specs[i].request});
        }
        std::vector<StatusOr<Bytes>> unit_results = CallBatch(from, specs[idx[0]].to, subs);
        for (size_t k = 0; k < idx.size(); ++k) {
          results[idx[k]] = std::move(unit_results[k]);
        }
        return OkStatus();
      },
      opts);
  return results;
}

void Network::SubmitIo(std::function<void()> fn) {
  // Carry the submitting op's trace id onto the worker so the flight
  // recorder parents pool-side spans under the op. Layer attribution is
  // untouched (InheritedTraceScope creates no TraceState).
  uint64_t trace_id = obs::CurrentTraceId();
  if (trace_id == 0) {
    io_pool_->Submit(std::move(fn));
    return;
  }
  io_pool_->Submit([trace_id, fn = std::move(fn)] {
    obs::InheritedTraceScope inherit(trace_id);
    fn();
  });
}

std::future<StatusOr<Bytes>> Network::CallAsync(NodeId from, NodeId to,
                                                const std::string& service, uint32_t method,
                                                Bytes request) {
  auto task = std::make_shared<std::packaged_task<StatusOr<Bytes>()>>(
      [this, from, to, service, method, req = std::move(request)] {
        return Call(from, to, service, method, req);
      });
  std::future<StatusOr<Bytes>> result = task->get_future();
  // Via SubmitIo so the async call inherits the submitter's trace id.
  SubmitIo([task] { (*task)(); });
  return result;
}

Status Network::ParallelFor(size_t count, uint32_t window,
                            const std::function<Status(size_t)>& op,
                            ParallelForOptions opts) {
  if (count <= 1 || window <= 1) {
    for (size_t i = 0; i < count; ++i) {
      RETURN_IF_ERROR(op(i));
    }
    return OkStatus();
  }
  // Completion state is shared-owned by the tasks: a worker finishing its
  // mutex release after the caller has already observed inflight == 0 and
  // returned must not be left holding a destroyed mutex/cv. `op` itself can
  // stay by-reference — the loop only exits once every issued task has
  // finished running it.
  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    size_t inflight = 0;
    bool failed = false;
    Status first_error;
  };
  auto g = std::make_shared<Gather>();

  size_t next = 0;
  std::unique_lock<std::mutex> lk(g->mu);
  // Stop issuing after the first failure; keep looping only to drain what is
  // already in flight, else the wait below would sleep forever with unissued
  // items still counted by `next < count`.
  while ((next < count && !g->failed) || g->inflight > 0) {
    if (next < count && !g->failed && g->inflight < window) {
      size_t i = next++;
      size_t now_inflight = ++g->inflight;
      if (opts.inflight != nullptr) {
        opts.inflight->Add(1);
      }
      if (opts.inflight_peak != nullptr) {
        // Peak from the locally tracked count (exact under `mu`), not a
        // read-back of the shared gauge that concurrent transfers perturb.
        opts.inflight_peak->Max(static_cast<int64_t>(now_inflight));
      }
      lk.unlock();
      SubmitIo([g, &op, opts, i] {
        Status st = op(i);
        if (opts.inflight != nullptr) {
          opts.inflight->Add(-1);
        }
        std::lock_guard<std::mutex> guard(g->mu);
        --g->inflight;
        if (!st.ok() && !g->failed) {
          g->failed = true;
          g->first_error = st;
        }
        g->cv.notify_all();
      });
      lk.lock();
    } else {
      g->cv.wait(lk);
    }
  }
  return g->failed ? g->first_error : OkStatus();
}

void Network::SetNodeUp(NodeId node, bool up) {
  CheckedNode(node).up.store(up, std::memory_order_release);
}

bool Network::IsNodeUp(NodeId node) const {
  Node* n = NodeAt(node);
  return n != nullptr && n->up.load(std::memory_order_acquire);
}

void Network::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  std::lock_guard<std::mutex> guard(mu_);
  auto key = std::minmax(a, b);
  if (partitioned) {
    partitions_.insert({key.first, key.second});
  } else {
    partitions_.erase({key.first, key.second});
  }
  faults_.store(!partitions_.empty() || drop_probability_ > 0, std::memory_order_release);
}

void Network::SetIsolated(NodeId node, bool isolated) {
  CheckedNode(node).isolated.store(isolated, std::memory_order_release);
}

void Network::SetDropProbability(double p) {
  std::lock_guard<std::mutex> guard(mu_);
  drop_probability_ = p;
  faults_.store(!partitions_.empty() || drop_probability_ > 0, std::memory_order_release);
}

void Network::SetLinkParams(NodeId node, LinkParams params) {
  Node& n = CheckedNode(node);
  n.latency_us.store(params.latency.count(), std::memory_order_relaxed);
  n.nic->set_rate(params.bandwidth_bps);
}

uint64_t Network::BytesThrough(NodeId node) const {
  Node* n = NodeAt(node);
  return n != nullptr ? n->nic->total_bytes() : 0;
}

}  // namespace frangipani
