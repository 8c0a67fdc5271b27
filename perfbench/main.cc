// One trial of the repository benchmark: sets up an in-process Frangipani
// installation, runs one workload on it for --seconds, checks its outputs,
// prints every metric by name with its unit, and ends with one JSON line.
// perfbench/run.py runs trials in separate processes and combines them.
//
//   perfbench --workload smallops|shared_dir|stream --seed N --seconds S --trace 0|1
//       [--spans-out FILE]
//   perfbench --probe local_concurrency --seed N --seconds S
//
// --trace 0 measures the end-to-end metrics on stock Cluster::AddFrangipani
// machines. --trace 1 measures on machines built from the same public
// constructors with timed decorators (trace.h) and reports the per-layer
// metrics. METRICS.md defines every metric; BENCHMARK.json holds the bounds.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "perfbench/trace.h"
#include "src/fs/fsck.h"
#include "src/fs/inode.h"
#include "src/obs/metrics.h"
#include "src/server/cluster.h"

namespace perfbench {
namespace {

using Clk = std::chrono::steady_clock;

constexpr int kMachines = 4;            // one client thread per machine
constexpr size_t kSmallBytes = 1024;    // small-op payload
constexpr uint64_t kUnit = 64 * 1024;   // stream transfer unit
constexpr uint64_t kStreamFileBytes = 16ull << 20;  // per machine per round
constexpr size_t kNamesPerClient = 1024;
constexpr double kMiB = 1 << 20;
// Tail percentiles tried, highest last. The ladder stops at p90: smallops'
// p99 is set by host preemption and the update demon's once-a-second
// SyncAll and moved by a fifth between runs of the same code on a quiet
// host (tenfold for p99.9 on a busy one), so it is printed, not reported.
constexpr double kTailLadder[] = {0.9};

enum class Workload { kSmallops, kSharedDir, kStream };

struct Spec {
  Workload workload;
  std::string name;
  bool timing = false;    // the paper's disk and link models
  bool sync_log = false;  // metadata ops force their log record
  int warmup_cycles = 0;  // per client, part of set-up
  // > 0: the window is cut into slices this long and each metric is the
  // median over slices. For the CPU-bound workload, so that a burst of host
  // CPU steal (typically under a second) moves a few slices, not the result.
  double slice_s = 0;
};

bool SpecFor(const std::string& name, Spec* spec) {
  if (name == "smallops") {
    *spec = {Workload::kSmallops, name, false, true, 2000, 0.25};
  } else if (name == "shared_dir") {
    *spec = {Workload::kSharedDir, name, true, false, 4, 0};
  } else if (name == "stream") {
    *spec = {Workload::kStream, name, true, false, 0, 0};
  } else {
    return false;
  }
  return true;
}

// ---- seeded inputs ----

uint64_t Hash64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Stream file contents: word i of the file holds Hash64(key + i).
void FillPattern(uint64_t key, uint64_t offset, Bytes* out) {
  out->resize(kUnit);
  for (uint64_t w = 0; w < kUnit / 8; ++w) {
    uint64_t v = Hash64(key + offset / 8 + w);
    std::memcpy(out->data() + w * 8, &v, 8);
  }
}

uint64_t StreamKey(uint64_t seed, int machine, uint64_t round) {
  return Hash64(Hash64(seed) ^ (uint64_t(machine) << 48) ^ (round << 8));
}

struct ClientInput {
  int machine = 0;
  std::string dir;
  std::vector<std::string> names;  // file names in seeded order
  Bytes payload;                   // small-op payload
  Duration stagger{0};             // start delay of the timed window
};

std::vector<ClientInput> MakeInputs(const Spec& spec, uint64_t seed) {
  std::mt19937_64 rng(Hash64(seed ^ 0xF1A9u));
  std::vector<ClientInput> inputs(kMachines);
  for (int m = 0; m < kMachines; ++m) {
    ClientInput& in = inputs[m];
    in.machine = m;
    switch (spec.workload) {
      case Workload::kSmallops:
        in.dir = "/m" + std::to_string(m);
        break;
      case Workload::kSharedDir:
        in.dir = "/shared";
        break;
      case Workload::kStream:
        in.dir = "/s" + std::to_string(m);
        break;
    }
    std::set<std::string> seen;
    while (in.names.size() < kNamesPerClient) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "m%d-%016llx", m,
                    static_cast<unsigned long long>(rng()));
      if (seen.insert(buf).second) {
        in.names.push_back(buf);
      }
    }
    in.payload.resize(kSmallBytes);
    for (auto& b : in.payload) {
      b = static_cast<uint8_t>(rng());
    }
    in.stagger = Duration(static_cast<int64_t>(rng() % 1000));
  }
  return inputs;
}

// ---- accounting ----

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok = 0;
  uint64_t wrong_output = 0;  // calls that returned OK with wrong results
  uint64_t cycles = 0;        // cycles whose every call succeeded
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  std::vector<float> cycle_ms;
  std::string first_error;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    ok += o.ok;
    wrong_output += o.wrong_output;
    cycles += o.cycles;
    bytes_written += o.bytes_written;
    bytes_read += o.bytes_read;
    cycle_ms.insert(cycle_ms.end(), o.cycle_ms.begin(), o.cycle_ms.end());
    if (first_error.empty()) {
      first_error = o.first_error;
    }
  }
};

// Runs one FS call inside a span; counts it; false when it failed.
template <typename Fn>
bool Call(Tally& t, const char* what, Kind kind, Fn&& fn) {
  ++t.attempted;
  Status st = OkStatus();
  {
    ScopedSpan span(kind);
    st = fn();
  }
  if (st.ok()) {
    ++t.ok;
    return true;
  }
  ++t.failed;
  if (t.first_error.empty()) {
    t.first_error = std::string(what) + ": " + st.ToString();
  }
  return false;
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 + usage.ru_stime.tv_sec +
         usage.ru_stime.tv_usec * 1e-6;
}

double PeakRssMB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB
}

double RssMB() {
  long total = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &total, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

// Samples the resident set every 100 ms until Stop(). The median sample is
// the memory a workload holds while it runs; a peak would mostly record
// when a transient allocation happened to land.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Joins the sampler; returns the samples taken.
  std::vector<double> Stop() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
    return samples_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      samples_.push_back(RssMB());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(100), [&] { return stop_; }));
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;           // guarded by mu_
  std::vector<double> samples_;  // guarded by mu_ until joined
  std::thread thread_;
};

// Host CPU time from /proc/stat: all ticks and the ticks stolen by the
// hypervisor. A CPU-bound trial with high steal ran on a busy host.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostTicks ReadHostTicks() {
  HostTicks t;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) {
        t.total += x;
      }
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

double Seconds(Clk::time_point a, Clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- the installation ----

// Petal, the lock service and four mounted machines: stock FrangipaniNodes,
// or TracedNodes for the traced run.
class Installation {
 public:
  static StatusOr<std::unique_ptr<Installation>> Start(const Spec& spec, bool traced) {
    ClusterOptions options = bench::PaperClusterOptions(/*nvram=*/false);
    options.enable_timing = spec.timing;
    options.node.fs.sync_log = spec.sync_log;
    auto inst = std::unique_ptr<Installation>(new Installation());
    inst->cluster_ = std::make_unique<Cluster>(options);
    Cluster& c = *inst->cluster_;
    RETURN_IF_ERROR(c.Start());
    for (int m = 0; m < kMachines; ++m) {
      if (!traced) {
        ASSIGN_OR_RETURN(FrangipaniNode * node, c.AddFrangipani());
        inst->fs_.push_back(node->fs());
        continue;
      }
      NodeId id = c.net()->AddNode("frangipani" + std::to_string(m));
      auto node = std::make_unique<TracedNode>(c.net(), id, c.petal_nodes(), c.lock_nodes(),
                                               c.vdisk(), c.clock(), c.options().node,
                                               c.geometry());
      RETURN_IF_ERROR(node->Mount(c.options().lock_table));
      inst->fs_.push_back(node->fs());
      inst->traced_.push_back(std::move(node));
    }
    return inst;
  }

  FrangipaniFs* fs(int m) { return fs_[m]; }
  Cluster& cluster() { return *cluster_; }
  bool traced() const { return !traced_.empty(); }
  TracedNode* traced_node(int m) { return traced_[m].get(); }

  Status Unmount(int m) {
    if (traced()) {
      return traced_[m]->Unmount();
    }
    return cluster_->node(m)->Unmount();
  }

 private:
  Installation() = default;

  // Declared first so the traced machines are torn down before it.
  std::unique_ptr<Cluster> cluster_;
  std::vector<FrangipaniFs*> fs_;
  std::vector<std::unique_ptr<TracedNode>> traced_;
};

// ---- the small-op cycle ----

// Create -> Write 1 KB -> Read it back -> Stat -> Unlink; stops at the first
// failed call. True when every call succeeded and returned the right data.
bool RunCycle(FrangipaniFs* fs, const ClientInput& in, uint64_t i, Tally& t) {
  std::string path = in.dir + "/" + in.names[i % in.names.size()];
  uint64_t ino = 0;
  if (!Call(t, "Create", Kind::kCreate, [&] {
        StatusOr<uint64_t> r = fs->Create(path);
        if (r.ok()) {
          ino = *r;
        }
        return r.status();
      })) {
    return false;
  }
  if (!Call(t, "Write", Kind::kWrite, [&] { return fs->Write(ino, 0, in.payload); })) {
    return false;
  }
  t.bytes_written += in.payload.size();
  Bytes buf;
  if (!Call(t, "Read", Kind::kRead, [&] {
        StatusOr<size_t> n = fs->Read(ino, 0, in.payload.size(), &buf);
        if (!n.ok()) {
          return n.status();
        }
        if (*n != in.payload.size() || buf.size() < *n ||
            std::memcmp(buf.data(), in.payload.data(), *n) != 0) {
          ++t.wrong_output;
          return DataLoss("read-back bytes differ from the written payload");
        }
        return OkStatus();
      })) {
    return false;
  }
  t.bytes_read += in.payload.size();
  if (!Call(t, "Stat", Kind::kStat, [&] {
        StatusOr<FileAttr> attr = fs->Stat(path);
        if (!attr.ok()) {
          return attr.status();
        }
        if (attr->size != kSmallBytes || attr->type != FileType::kRegular) {
          ++t.wrong_output;
          return DataLoss("stat reports size " + std::to_string(attr->size) + ", want 1024");
        }
        return OkStatus();
      })) {
    return false;
  }
  return Call(t, "Unlink", Kind::kUnlink, [&] { return fs->Unlink(path); });
}

// Lets the main thread start every client's timed window at once.
class Gate {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitArrived(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

// ---- set-up ----

struct Prepared {
  std::unique_ptr<Installation> inst;
  double setup_s = 0;
  Tally warmup;
};

// Reads the directory inodes from Petal and collects their small blocks.
std::set<uint64_t> DirectoryBlocks(Installation& inst, const std::vector<uint64_t>& inos) {
  PetalDevice device(inst.cluster().admin_petal(), inst.cluster().vdisk());
  const Geometry& g = inst.cluster().geometry();
  std::set<uint64_t> blocks;
  for (uint64_t ino : inos) {
    Bytes raw;
    if (!device.Read(g.InodeAddr(ino), kInodeSize, &raw).ok()) {
      continue;
    }
    StatusOr<Inode> inode = Inode::Decode(raw);
    if (!inode.ok()) {
      continue;
    }
    for (uint64_t b : inode->small) {
      if (b != 0) {
        blocks.insert(g.SmallBlockAddr(b));
      }
    }
  }
  return blocks;
}

// Cluster start, mkfs, mounts, workload directories and warm-up cycles: all
// the work before the first timed call.
StatusOr<Prepared> Prepare(const Spec& spec, const std::vector<ClientInput>& inputs,
                           bool traced) {
  Prepared p;
  Clk::time_point t0 = Clk::now();
  ASSIGN_OR_RETURN(p.inst, Installation::Start(spec, traced));
  Installation& inst = *p.inst;
  std::set<std::string> dirs;
  for (const ClientInput& in : inputs) {
    if (dirs.insert(in.dir).second) {
      RETURN_IF_ERROR(inst.fs(in.machine)->Mkdir(in.dir));
    }
  }
  if (spec.warmup_cycles > 0) {
    std::vector<Tally> warm(kMachines);
    std::vector<std::thread> threads;
    for (int m = 0; m < kMachines; ++m) {
      threads.emplace_back([&, m] {
        for (int i = 0; i < spec.warmup_cycles; ++i) {
          RunCycle(inst.fs(m), inputs[m], i, warm[m]);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    for (const Tally& w : warm) {
      p.warmup.Merge(w);
    }
  }
  if (traced) {
    std::vector<uint64_t> inos = {kRootInode};
    for (int m = 0; m < kMachines; ++m) {
      RETURN_IF_ERROR(inst.fs(m)->SyncAll());
    }
    for (const std::string& dir : dirs) {
      ASSIGN_OR_RETURN(uint64_t ino, inst.fs(0)->Lookup(dir));
      inos.push_back(ino);
    }
    std::set<uint64_t> blocks = DirectoryBlocks(inst, inos);
    for (int m = 0; m < kMachines; ++m) {
      inst.traced_node(m)->device()->SetDirectoryBlocks(blocks);
    }
  }
  p.setup_s = Seconds(t0, Clk::now());
  return p;
}

// ---- the timed window ----

// One slice of a sliced window.
struct Slice {
  double seconds = 0;
  double cpu_s = 0;
  uint64_t ok = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  std::vector<float> cycle_ms;  // cycles that ended in the slice
};

struct Window {
  double seconds = 0;
  double cpu_s = 0;
  double write_s = 0;  // stream: summed write phases (incl. Fsync)
  double read_s = 0;   // stream: summed read phases
  std::vector<double> rss_mb;  // resident-set samples over the window
  HostTicks host_before, host_after;
  Tally tally;
  std::map<std::string, double> before, after;  // registry snapshots
  std::vector<FsStats> fs_before, fs_after;
  std::vector<Slice> slices;  // empty unless the workload is sliced
};

void Snapshot(Installation& inst, std::map<std::string, double>* reg,
              std::vector<FsStats>* fs) {
  obs::MetricsRegistry::Default()->SnapshotValues(reg);
  fs->clear();
  for (int m = 0; m < kMachines; ++m) {
    fs->push_back(inst.fs(m)->Stats());
  }
}

void MeasureCycles(Installation& inst, const std::vector<ClientInput>& inputs, double seconds,
                   double slice_s, Window* w) {
  // What a client has completed so far, published after every cycle so the
  // main thread can cut slices without touching the client's Tally.
  struct Progress {
    std::atomic<uint64_t> ok{0}, bytes_written{0}, bytes_read{0};
  };
  int nslices = slice_s > 0 ? static_cast<int>(seconds / slice_s) : 0;
  Gate gate;
  std::atomic<bool> stop{false};
  Clk::time_point t0;  // written before gate.Open(), read by clients after it
  std::vector<Tally> tallies(kMachines);
  std::vector<std::vector<std::pair<int, float>>> sliced(kMachines);  // (slice, ms)
  std::vector<Progress> progress(kMachines);
  std::vector<std::thread> threads;
  for (int m = 0; m < kMachines; ++m) {
    threads.emplace_back([&, m] {
      const ClientInput& in = inputs[m];
      Tally& t = tallies[m];
      gate.Arrive();
      std::this_thread::sleep_for(in.stagger);
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        Tracer::SetCycle((uint64_t(m + 1) << 40) | (i + 1));
        Clk::time_point c0 = Clk::now();
        if (RunCycle(inst.fs(m), in, i, t)) {
          Clk::time_point c1 = Clk::now();
          float ms = static_cast<float>(std::chrono::duration<double, std::milli>(c1 - c0).count());
          ++t.cycles;
          t.cycle_ms.push_back(ms);
          int slice = nslices > 0 ? static_cast<int>(Seconds(t0, c1) / slice_s) : 0;
          if (slice < nslices) {
            sliced[m].emplace_back(slice, ms);
          }
        }
        progress[m].ok.store(t.ok, std::memory_order_relaxed);
        progress[m].bytes_written.store(t.bytes_written, std::memory_order_relaxed);
        progress[m].bytes_read.store(t.bytes_read, std::memory_order_relaxed);
      }
      Tracer::SetCycle(0);
    });
  }
  gate.WaitArrived(kMachines);
  Snapshot(inst, &w->before, &w->fs_before);
  double cpu0 = CpuSeconds();
  w->host_before = ReadHostTicks();
  t0 = Clk::now();
  RssSampler rss;
  Tracer::Get().SetActive(inst.traced());
  gate.Open();
  // Slice boundaries: completed work and process CPU at each one; `seconds`
  // holds the boundary's offset from t0 until it is turned into a length.
  Slice last;
  last.cpu_s = cpu0;
  for (int k = 1; k <= nslices; ++k) {
    std::this_thread::sleep_until(t0 + std::chrono::duration<double>(k * slice_s));
    Slice now;
    now.seconds = Seconds(t0, Clk::now());
    now.cpu_s = CpuSeconds();
    for (const Progress& p : progress) {
      now.ok += p.ok.load(std::memory_order_relaxed);
      now.bytes_written += p.bytes_written.load(std::memory_order_relaxed);
      now.bytes_read += p.bytes_read.load(std::memory_order_relaxed);
    }
    w->slices.push_back({now.seconds - last.seconds, now.cpu_s - last.cpu_s, now.ok - last.ok,
                         now.bytes_written - last.bytes_written, now.bytes_read - last.bytes_read,
                         {}});
    last = now;
  }
  std::this_thread::sleep_until(t0 + std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : threads) {
    t.join();
  }
  Tracer::Get().SetActive(false);
  w->rss_mb = rss.Stop();
  w->seconds = Seconds(t0, Clk::now());
  w->write_s = w->read_s = w->seconds;
  w->cpu_s = CpuSeconds() - cpu0;
  w->host_after = ReadHostTicks();
  Snapshot(inst, &w->after, &w->fs_after);
  for (int m = 0; m < kMachines; ++m) {
    w->tally.Merge(tallies[m]);
    for (const auto& [slice, ms] : sliced[m]) {
      w->slices[slice].cycle_ms.push_back(ms);
    }
  }
}

// Runs fn(m) on one thread per machine, tagged with the round as its cycle;
// returns the phase's wall time.
template <typename Fn>
double Phase(uint64_t round, Fn&& fn) {
  Clk::time_point t0 = Clk::now();
  std::vector<std::thread> threads;
  for (int m = 0; m < kMachines; ++m) {
    threads.emplace_back([&, m] {
      Tracer::SetCycle((uint64_t(m + 1) << 40) | (round + 1));
      fn(m);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  return Seconds(t0, Clk::now());
}

// Rounds of: every machine writes a fresh file in 64 KB units and Fsyncs it;
// every machine drops its cache; every machine reads its file back and
// compares it with the seeded pattern; the files are unlinked. A round is
// the stream workload's cycle. Rounds repeat until the next one would end
// past `seconds`; there is always at least one.
void MeasureStream(Installation& inst, const std::vector<ClientInput>& inputs, uint64_t seed,
                   double seconds, Window* w) {
  std::vector<Tally> tallies(kMachines);
  std::vector<float> round_ms;
  uint64_t full_rounds = 0;
  Snapshot(inst, &w->before, &w->fs_before);
  double cpu0 = CpuSeconds();
  w->host_before = ReadHostTicks();
  Clk::time_point t0 = Clk::now();
  RssSampler rss;
  Tracer::Get().SetActive(inst.traced());
  for (uint64_t round = 0;; ++round) {
    Clk::time_point r0 = Clk::now();
    std::vector<uint64_t> ino(kMachines, 0);
    std::vector<int> written(kMachines, 0), verified(kMachines, 0), unlinked(kMachines, 0);
    std::vector<std::string> path(kMachines);
    w->write_s += Phase(round, [&](int m) {
      const ClientInput& in = inputs[m];
      Tally& t = tallies[m];
      if (round == 0) {
        std::this_thread::sleep_for(in.stagger);
      }
      path[m] = in.dir + "/" + in.names[round % in.names.size()];
      if (!Call(t, "Create", Kind::kCreate, [&] {
            StatusOr<uint64_t> r = inst.fs(m)->Create(path[m]);
            if (r.ok()) {
              ino[m] = *r;
            }
            return r.status();
          })) {
        return;
      }
      uint64_t key = StreamKey(seed, m, round);
      Bytes unit;
      for (uint64_t off = 0; off < kStreamFileBytes; off += kUnit) {
        FillPattern(key, off, &unit);
        if (!Call(t, "Write", Kind::kWrite, [&] { return inst.fs(m)->Write(ino[m], off, unit); })) {
          return;
        }
      }
      if (Call(t, "Fsync", Kind::kFsync, [&] { return inst.fs(m)->Fsync(ino[m]); })) {
        t.bytes_written += kStreamFileBytes;
        written[m] = 1;
      }
    });
    Phase(round, [&](int m) {
      Call(tallies[m], "DropCaches", Kind::kDropCaches, [&] { return inst.fs(m)->DropCaches(); });
    });
    w->read_s += Phase(round, [&](int m) {
      if (!written[m]) {
        return;
      }
      Tally& t = tallies[m];
      uint64_t key = StreamKey(seed, m, round);
      Bytes expect, got;
      for (uint64_t off = 0; off < kStreamFileBytes; off += kUnit) {
        if (!Call(t, "Read", Kind::kRead, [&] {
              StatusOr<size_t> n = inst.fs(m)->Read(ino[m], off, kUnit, &got);
              if (!n.ok()) {
                return n.status();
              }
              FillPattern(key, off, &expect);
              if (*n != kUnit || got.size() < kUnit ||
                  std::memcmp(got.data(), expect.data(), kUnit) != 0) {
                ++t.wrong_output;
                return DataLoss("read-back bytes differ from the seeded pattern at offset " +
                                std::to_string(off));
              }
              return OkStatus();
            })) {
          return;
        }
        t.bytes_read += kUnit;
      }
      verified[m] = 1;
    });
    Phase(round, [&](int m) {
      if (ino[m] != 0 &&
          Call(tallies[m], "Unlink", Kind::kUnlink, [&] { return inst.fs(m)->Unlink(path[m]); })) {
        unlinked[m] = 1;
      }
    });
    if (std::count(verified.begin(), verified.end(), 1) == kMachines &&
        std::count(unlinked.begin(), unlinked.end(), 1) == kMachines) {
      ++full_rounds;
      round_ms.push_back(static_cast<float>(
          std::chrono::duration<double, std::milli>(Clk::now() - r0).count()));
    }
    double elapsed = Seconds(t0, Clk::now());
    if (elapsed + elapsed / static_cast<double>(round + 1) / 2 >= seconds) {
      break;
    }
  }
  Tracer::Get().SetActive(false);
  w->rss_mb = rss.Stop();
  w->seconds = Seconds(t0, Clk::now());
  w->cpu_s = CpuSeconds() - cpu0;
  w->host_after = ReadHostTicks();
  Snapshot(inst, &w->after, &w->fs_after);
  for (const Tally& t : tallies) {
    w->tally.Merge(t);
  }
  w->tally.cycles = full_rounds;
  w->tally.cycle_ms = std::move(round_ms);
}

// ---- output checks after the window ----

struct Checks {
  bool ok = true;
  std::vector<std::string> notes;
  void Fail(const std::string& what) {
    ok = false;
    notes.push_back(what);
  }
};

// Every workload directory is empty, every machine unmounts cleanly, and
// fsck over the vdisk finds no problem.
Checks Finish(Installation& inst, const std::vector<ClientInput>& inputs) {
  Checks c;
  std::set<std::string> dirs;
  for (const ClientInput& in : inputs) {
    if (!dirs.insert(in.dir).second) {
      continue;
    }
    StatusOr<std::vector<DirEntry>> entries = inst.fs(in.machine)->Readdir(in.dir);
    if (!entries.ok()) {
      c.Fail("readdir " + in.dir + ": " + entries.status().ToString());
    } else if (!entries->empty()) {
      c.Fail(in.dir + " holds " + std::to_string(entries->size()) + " entries");
    }
  }
  for (int m = 0; m < kMachines; ++m) {
    Status st = inst.Unmount(m);
    if (!st.ok()) {
      c.Fail("unmount machine " + std::to_string(m) + ": " + st.ToString());
    }
  }
  // fsck reads every bitmap segment, one RPC each: read from a fresh client
  // with the link model off so the walk takes seconds, not minutes.
  Cluster& cluster = inst.cluster();
  Network* net = cluster.net();
  for (NodeId n : cluster.petal_nodes()) {
    net->SetLinkParams(n, LinkParams{});
  }
  NodeId checker = net->AddNode("fsck");
  net->SetLinkParams(checker, LinkParams{});
  PetalClient client(net, checker, cluster.petal_nodes());
  Status st = client.RefreshMap();
  if (!st.ok()) {
    c.Fail("fsck map refresh: " + st.ToString());
    return c;
  }
  PetalDevice device(&client, cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  if (!report.ok) {
    c.Fail("fsck: " + report.Summary());
  }
  return c;
}

// ---- one trial ----

struct Trial {
  Window window;
  Checks checks;
  double setup_s = 0;
};

// Sets up an installation, measures it for `seconds`, checks the outputs
// and tears it down. Returns false when set-up failed.
bool RunTrial(const Spec& spec, const std::vector<ClientInput>& inputs, uint64_t seed,
              double seconds, bool traced, Trial* trial) {
  StatusOr<Prepared> prepared = Prepare(spec, inputs, traced);
  if (!prepared.ok()) {
    std::printf("set-up failed: %s\n", prepared.status().ToString().c_str());
    return false;
  }
  trial->setup_s = prepared->setup_s;
  if (prepared->warmup.failed > 0) {
    trial->checks.Fail("warm-up: " + prepared->warmup.first_error);
  }
  Installation& inst = *prepared->inst;
  if (spec.workload == Workload::kStream) {
    MeasureStream(inst, inputs, seed, seconds, &trial->window);
  } else {
    MeasureCycles(inst, inputs, seconds, spec.slice_s, &trial->window);
  }
  for (const std::string& n : Finish(inst, inputs).notes) {
    trial->checks.Fail(n);
  }
  if (trial->window.tally.wrong_output > 0) {
    trial->checks.Fail(std::to_string(trial->window.tally.wrong_output) + " wrong outputs");
  }
  prepared->inst.reset();  // joins every thread that records spans
  return true;
}

// ---- metrics ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double SumMatching(const std::map<std::string, double>& snap, const std::string& prefix,
                   const std::string& suffix) {
  double total = 0;
  for (const auto& [name, value] : snap) {
    if (name.size() > prefix.size() + suffix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

double Delta(const Window& w, const std::string& name) {
  auto a = w.after.find(name);
  auto b = w.before.find(name);
  return (a == w.after.end() ? 0 : a->second) - (b == w.before.end() ? 0 : b->second);
}

double NetDelta(const Window& w, const std::string& suffix) {
  return SumMatching(w.after, "net.n", suffix) - SumMatching(w.before, "net.n", suffix);
}

FsStats FsDelta(const Window& w) {
  FsStats d;
  for (int m = 0; m < kMachines; ++m) {
    const FsStats& a = w.fs_after[m];
    const FsStats& b = w.fs_before[m];
    d.retries += a.retries - b.retries;
    d.cache_hits += a.cache_hits - b.cache_hits;
    d.cache_misses += a.cache_misses - b.cache_misses;
    d.log_records += a.log_records - b.log_records;
    d.prefetches += a.prefetches - b.prefetches;
    d.prefetch_wasted += a.prefetch_wasted - b.prefetch_wasted;
  }
  return d;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

double OpsPerSecond(const Window& w) { return Ratio(w.tally.ok, w.seconds); }

// Cycle latency tail: the highest percentile of the ladder that leaves at
// least 10 samples beyond it, or the slowest cycle when none does.
struct Tail {
  double p = 1;
  double ms = 0;
  size_t beyond = 0;
};

Tail TailOf(std::vector<float> samples) {
  Tail tail;
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  tail.ms = samples.back();
  for (double p : kTailLadder) {
    size_t idx = static_cast<size_t>(p * static_cast<double>(n - 1));
    size_t beyond = n - 1 - idx;
    if (beyond < 10) {
      break;
    }
    tail = {p, samples[idx], beyond};
  }
  return tail;
}

double P50Ms(const std::vector<float>& samples) {
  std::vector<double> v(samples.begin(), samples.end());
  return Median(std::move(v));
}

std::vector<Metric> EndToEnd(const Trial& trial) {
  const Window& w = trial.window;
  // A sliced window reports the median over its slices; otherwise the whole
  // window is the one slice.
  std::vector<Slice> slices = w.slices;
  if (slices.empty()) {
    slices.push_back({w.seconds, w.cpu_s, w.tally.ok, w.tally.bytes_written, w.tally.bytes_read,
                      w.tally.cycle_ms});
  }
  bool whole = w.slices.empty();
  std::vector<double> ops, p50, tail, write, read, cpu;
  for (const Slice& sl : slices) {
    ops.push_back(Ratio(sl.ok, sl.seconds));
    p50.push_back(P50Ms(sl.cycle_ms));
    tail.push_back(TailOf(sl.cycle_ms).ms);
    write.push_back(Ratio(sl.bytes_written / kMiB, whole ? w.write_s : sl.seconds));
    read.push_back(Ratio(sl.bytes_read / kMiB, whole ? w.read_s : sl.seconds));
    cpu.push_back(Ratio(sl.cpu_s * 1e6, static_cast<double>(sl.ok)));
  }
  std::vector<float> all = w.tally.cycle_ms;
  std::sort(all.begin(), all.end());
  double p99 = all.empty() ? 0 : all[static_cast<size_t>(0.99 * static_cast<double>(all.size() - 1))];
  Tail first_tail = TailOf(slices[0].cycle_ms);
  char note[160];
  std::snprintf(note, sizeof(note), "p%g of %zu cycles, %zu beyond%s; window p99 %.4g ms",
                first_tail.p * 100, slices[0].cycle_ms.size(), first_tail.beyond,
                whole ? "" : " (first slice)", p99);
  std::string of = whole ? "" : " (median of " + std::to_string(slices.size()) + " slices)";
  return {
      {"setup_s", trial.setup_s, "s", "cluster start to first timed call"},
      {"ops_per_s", Median(ops), "1/s", "successful FS calls" + of},
      {"cycle_p50_ms", Median(p50), "ms", "median completed cycle" + of},
      {"cycle_tail_ms", Median(tail), "ms", note + of},
      {"write_MBps", Median(write), "MB/s", "user bytes written" + of},
      {"read_MBps", Median(read), "MB/s", "user bytes read" + of},
      {"cpu_us_per_op", Median(cpu), "us", "process CPU per successful call" + of},
      {"rss_MB", Median(w.rss_mb), "MB",
       "median resident set over the window; process peak " +
           std::to_string(static_cast<int>(PeakRssMB())) + " MB"},
  };
}

std::vector<Metric> PerLayer(const Window& w, const TraceTotals& tr) {
  const Tally& t = w.tally;
  double ops = std::max<double>(1, static_cast<double>(t.ok));
  FsStats fs = FsDelta(w);
  auto p50 = [&](Kind k) { return tr[k].hist.PercentileUs(0.5); };
  auto per_op = [&](double v) { return v / ops; };

  double fs_self_ns = 0, fs_total_ns = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    if (IsFsOp(static_cast<Kind>(k))) {
      fs_self_ns += tr.kinds[k].self_ns;
      fs_total_ns += tr.kinds[k].total_ns;
    }
  }
  const KindStats& acq = tr[Kind::kAcquire];
  const KindStats& walw = tr[Kind::kWalWrite];
  LatencyHistogram reads, writes;
  uint64_t write_bytes = 0;
  for (Kind k : {Kind::kWalRead, Kind::kMetaRead, Kind::kDataRead}) {
    reads.Merge(tr[k].hist);
  }
  for (Kind k : {Kind::kWalWrite, Kind::kMetaWrite, Kind::kDataWrite}) {
    writes.Merge(tr[k].hist);
    write_bytes += tr[k].bytes;
  }
  double user_bytes = std::max<double>(1, static_cast<double>(t.bytes_written));

  std::vector<Metric> out = {
      {"fs.create.p50_us", p50(Kind::kCreate), "us", ""},
      {"fs.write.p50_us", p50(Kind::kWrite), "us", ""},
      {"fs.stat.p50_us", p50(Kind::kStat), "us", ""},
      {"fs.unlink.p50_us", p50(Kind::kUnlink), "us", ""},
      {"fs.read.p50_us", p50(Kind::kRead), "us", ""},
      {"fs.fsync.p50_us", p50(Kind::kFsync), "us", ""},
      {"fs.self_us_per_op", per_op(fs_self_ns / 1e3), "us", ""},
      {"fs.retries_per_op", per_op(fs.retries), "count/op", ""},
      {"fs.cache_hit_ratio", Ratio(fs.cache_hits, fs.cache_hits + fs.cache_misses), "ratio", ""},
      {"fs.prefetch_wasted_ratio", Ratio(fs.prefetch_wasted, fs.prefetches), "ratio", ""},
      {"fs.revokes_per_op", per_op(tr[Kind::kRevoke].count), "count/op", ""},
      {"fs.revoke_p50_us", p50(Kind::kRevoke), "us", ""},
      {"wal.writes_per_op", per_op(walw.count), "count/op", ""},
      {"wal.bytes_per_op", per_op(walw.bytes), "B/op", ""},
      {"wal.write_p50_us", walw.hist.PercentileUs(0.5), "us", ""},
      {"wal.records_per_write", Ratio(fs.log_records, walw.count), "count", ""},
      {"wal.group_commits_per_op", per_op(Delta(w, "wal.group_commits")), "count/op", ""},
      {"lock.acquires_per_op", per_op(acq.count), "count/op", ""},
      {"lock.acquire_p50_us", acq.hist.PercentileUs(0.5), "us", ""},
      {"lock.acquire_p99_us", acq.hist.PercentileUs(0.99), "us", ""},
      {"lock.remote_ratio", Ratio(Delta(w, "lock.acquire.remote"), acq.count), "ratio", ""},
      {"lock.wait_share", Ratio(acq.in_fs_op_ns, fs_total_ns), "ratio", ""},
  };
  for (int c = 0; c < kNumLockClasses - 1; ++c) {
    out.push_back({std::string("lock.") + LockClassName(c) + ".acquire_us_per_op",
                   per_op(acq.class_ns[c] / 1e3), "us", ""});
  }
  std::vector<Metric> rest = {
      {"lock.revokes_per_op", per_op(Delta(w, "lock.revoke.count")), "count/op", ""},
      {"petal.meta.reads_per_op", per_op(tr[Kind::kMetaRead].count), "count/op", ""},
      {"petal.meta.writes_per_op", per_op(tr[Kind::kMetaWrite].count), "count/op", ""},
      {"petal.data.reads_per_op", per_op(tr[Kind::kDataRead].count), "count/op", ""},
      {"petal.data.writes_per_op", per_op(tr[Kind::kDataWrite].count), "count/op", ""},
      {"petal.read_p50_us", reads.PercentileUs(0.5), "us", ""},
      {"petal.write_p50_us", writes.PercentileUs(0.5), "us", ""},
      {"petal.write_bytes_per_user_byte", write_bytes / user_bytes, "B/B", ""},
      {"petal.repl_bytes_per_user_byte", Delta(w, "petal.server.repl_bytes") / user_bytes, "B/B",
       ""},
      {"net.msgs_per_op", per_op(NetDelta(w, ".msgs")), "count/op", ""},
      {"net.bytes_per_op", per_op(NetDelta(w, ".bytes")), "B/op", ""},
      {"net.vector_calls_per_op", per_op(Delta(w, "net.vector_calls")), "count/op", ""},
      {"server.sync_calls", static_cast<double>(tr[Kind::kSync].count), "count", ""},
      {"server.sync_us_per_s", Ratio(tr[Kind::kSync].total_ns / 1e3, w.seconds), "us/s", ""},
      {"server.logflush_us_per_s", Ratio(tr[Kind::kLogFlush].total_ns / 1e3, w.seconds), "us/s",
       ""},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void PrintTally(const std::string& label, const Window& w) {
  const Tally& t = w.tally;
  std::printf("%s: %.3f s window, %llu calls attempted, %llu failed (failed_op_ratio %.6g), "
              "%llu cycles done, %llu wrong outputs\n",
              label.c_str(), w.seconds, (unsigned long long)t.attempted, (unsigned long long)t.failed,
              Ratio(t.failed, t.attempted), (unsigned long long)t.cycles,
              (unsigned long long)t.wrong_output);
  if (!t.first_error.empty()) {
    std::printf("%s: first error: %s\n", label.c_str(), t.first_error.c_str());
  }
  std::printf("%s: %.4f msgs/cycle, %.4f msgs/call (cluster-wide, incl. demons)\n", label.c_str(),
              Ratio(NetDelta(w, ".msgs"), t.cycles), Ratio(NetDelta(w, ".msgs"), t.ok));
  std::printf("%s: host steal %.1f%% of CPU time in the window\n", label.c_str(),
              100 * Ratio(w.host_after.steal - w.host_before.steal,
                          w.host_after.total - w.host_before.total));
}

// The trial's result; perfbench/run.py combines trials into the run's
// result. `ops_per_s` rides along for obs.trace_overhead.
std::string JsonResult(bool correct, const Window& w, const std::vector<Metric>& metrics) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"ops_per_s\": %.17g",
                correct ? "true" : "false", (unsigned long long)w.tally.attempted,
                (unsigned long long)w.tally.failed, OpsPerSecond(w));
  std::string out = buf;
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

// ---- known-defect probe ----

// Two client threads on ONE machine, each in its own directory, on the
// small-op cycle. Reported, never gated: it keeps the same-machine
// concurrency defect visible.
int RunLocalConcurrencyProbe(uint64_t seed, double seconds) {
  Spec spec;
  SpecFor("smallops", &spec);
  ClusterOptions options = bench::PaperClusterOptions(/*nvram=*/false);
  options.enable_timing = false;
  options.node.fs.sync_log = true;
  Cluster cluster(options);
  if (!cluster.Start().ok() || !cluster.AddFrangipani().ok()) {
    std::printf("local_concurrency: set-up failed\n");
    return 1;
  }
  std::vector<ClientInput> inputs = MakeInputs(spec, seed);
  FrangipaniFs* fs = cluster.fs(0);
  for (int k = 0; k < 2; ++k) {
    inputs[k].dir = "/p" + std::to_string(k);
    if (!fs->Mkdir(inputs[k].dir).ok()) {
      std::printf("local_concurrency: mkdir failed\n");
      return 1;
    }
  }
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(2);
  std::vector<uint64_t> started(2, 0);
  std::vector<std::thread> threads;
  for (int k = 0; k < 2; ++k) {
    threads.emplace_back([&, k] {
      for (uint64_t i = 0; !stop.load(); ++i) {
        ++started[k];
        if (RunCycle(fs, inputs[k], i, tallies[k])) {
          ++tallies[k].cycles;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : threads) {
    t.join();
  }
  Tally all;
  for (const Tally& t : tallies) {
    all.Merge(t);
  }
  uint64_t cycles = started[0] + started[1];
  std::printf("local_concurrency: failed_call_share=%.4f (%llu of %llu calls; %llu of %llu "
              "cycles failed) first_error=\"%s\"\n",
              Ratio(all.failed, all.attempted), (unsigned long long)all.failed,
              (unsigned long long)all.attempted, (unsigned long long)(cycles - all.cycles),
              (unsigned long long)cycles,
              all.first_error.empty() ? "none" : all.first_error.c_str());
  std::fflush(stdout);
  return 0;
}

struct Args {
  std::string workload;
  std::string probe;
  std::string spans_out;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--probe") {
      a->probe = val;
    } else if (key == "--seed") {
      a->seed = std::stoull(val);
    } else if (key == "--seconds") {
      a->seconds = std::stod(val);
    } else if (key == "--trace") {
      a->trace = std::stoi(val);
    } else if (key == "--spans-out") {
      a->spans_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->seconds > 0 && (a->trace == 0 || a->trace == 1);
} catch (const std::exception&) {  // a number that does not parse
  return false;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
                         "       perfbench --probe local_concurrency --seed N --seconds S\n");
    return 2;
  }
  if (!args.probe.empty()) {
    if (args.probe != "local_concurrency") {
      std::fprintf(stderr, "unknown probe %s\n", args.probe.c_str());
      return 2;
    }
    return RunLocalConcurrencyProbe(args.seed, args.seconds);
  }
  Spec spec;
  if (!SpecFor(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::vector<ClientInput> inputs = MakeInputs(spec, args.seed);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d machines=%d\n", spec.name.c_str(),
              (unsigned long long)args.seed, args.seconds, args.trace, kMachines);

  Trial trial;
  bool traced = args.trace == 1;
  if (!RunTrial(spec, inputs, args.seed, args.seconds, traced, &trial)) {
    return 1;
  }
  PrintTally(traced ? "traced trial" : "trial", trial.window);
  std::vector<Metric> metrics;
  if (!traced) {
    metrics = EndToEnd(trial);
    std::printf("end-to-end metrics of this trial:\n");
  } else {
    metrics = PerLayer(trial.window, Tracer::Get().Totals());
    if (!args.spans_out.empty()) {
      size_t n = Tracer::Get().WriteSpans(args.spans_out);
      std::printf("spans: %zu written to %s\n", n, args.spans_out.c_str());
    }
    std::printf("per-layer metrics of this traced trial:\n");
  }
  PrintMetrics(metrics);
  bool correct = trial.checks.ok;
  std::printf("checks: %s\n", correct ? "all passed (stat sizes, read-back bytes, empty "
                                        "directories, clean unmounts, fsck)"
                                      : "FAILED");
  for (const std::string& n : trial.checks.notes) {
    std::printf("  check failed: %s\n", n.c_str());
  }
  std::printf("%s\n", JsonResult(correct, trial.window, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
