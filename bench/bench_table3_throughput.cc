// Table 3: single-machine large-file throughput and CPU utilization.
// Paper: Frangipani write 15.3 MB/s @ 42% CPU, read 10.3 MB/s @ 25%;
//        AdvFS write 13.3 MB/s @ 80%, read 13.2 MB/s @ 50%.
// Shape to reproduce: Frangipani writes saturate its ~17 MB/s link (within a
// few percent); reads are lower than the link limit (read-ahead depth);
// AdvFS is disk/controller bound. Also reproduces the §9.2 small-file
// experiment: 30 processes reading separate 8 KB files after invalidating
// the cache reach ~80% of raw Petal small-read throughput.
#include <cstdio>
#include <thread>

#include "bench/harness.h"

using namespace frangipani;
using namespace frangipani::bench;

namespace {
constexpr uint64_t kFileBytes = 8ull << 20;  // 8 MB stream
}

int main() {
  std::printf("Table 3: large-file throughput and CPU utilization (one machine)\n\n");
  std::vector<std::string> rows;

  // ---- Frangipani (NVRAM, as in the paper's Table 3 column) ----
  double fr_write = 0, fr_read = 0, fr_wcpu = 0, fr_rcpu = 0;
  {
    ClusterOptions options = PaperClusterOptions(/*nvram=*/true);
    // The paper's Table 3 read is read-ahead-depth limited; keep its
    // 8-unit (512 KB) window so this row reproduces that limit rather than
    // the deeper window PaperClusterOptions uses elsewhere.
    options.node.fs.readahead_units = 8;
    Cluster cluster(options);
    if (!cluster.Start().ok()) {
      return 1;
    }
    auto node = cluster.AddFrangipani();
    if (!node.ok()) {
      return 1;
    }
    FrangipaniFs* fs = (*node)->fs();
    auto ino = fs->Create("/big");
    CpuMeter cpu;
    cpu.Start();
    auto w = StreamWrite(fs, *ino, kFileBytes);
    auto [wwall, wcpu] = cpu.Stop();
    if (!w.ok()) {
      return 1;
    }
    (void)fs->DropCaches();
    cpu.Start();
    auto r = StreamRead(fs, *ino, kFileBytes);
    auto [rwall, rcpu] = cpu.Stop();
    if (!r.ok()) {
      return 1;
    }
    fr_write = *w;
    fr_read = *r;
    fr_wcpu = wcpu;
    fr_rcpu = rcpu;
  }

  // ---- AdvFS baseline ----
  double adv_write = 0, adv_read = 0, adv_wcpu = 0, adv_rcpu = 0;
  {
    AdvFsLike advfs(PaperAdvFsOptions(/*nvram=*/true));
    if (!advfs.FormatAndMount().ok()) {
      return 1;
    }
    FrangipaniFs* fs = advfs.fs();
    auto ino = fs->Create("/big");
    CpuMeter cpu;
    cpu.Start();
    auto w = StreamWrite(fs, *ino, kFileBytes);
    auto [wwall, wcpu] = cpu.Stop();
    (void)fs->DropCaches();
    cpu.Start();
    auto r = StreamRead(fs, *ino, kFileBytes);
    auto [rwall, rcpu] = cpu.Stop();
    if (!w.ok() || !r.ok()) {
      return 1;
    }
    adv_write = *w;
    adv_read = *r;
    adv_wcpu = wcpu;
    adv_rcpu = rcpu;
    (void)advfs.Unmount();
  }

  std::printf("            Throughput (MB/s)      CPU utilization*\n");
  std::printf("            Frangipani  AdvFS      Frangipani  AdvFS\n");
  std::printf("Write       %8.1f  %8.1f      %8.0f%%  %6.0f%%\n", fr_write, adv_write,
              fr_wcpu * 100, adv_wcpu * 100);
  std::printf("Read        %8.1f  %8.1f      %8.0f%%  %6.0f%%\n", fr_read, adv_read,
              fr_rcpu * 100, adv_rcpu * 100);
  std::printf("(*process-wide: includes the in-process Petal/lock servers)\n");
  std::printf("paper:      write 15.3 vs 13.3   read 10.3 vs 13.2\n\n");
  rows.push_back("write," + std::to_string(fr_write) + "," + std::to_string(adv_write) + "," +
                 std::to_string(fr_wcpu) + "," + std::to_string(adv_wcpu));
  rows.push_back("read," + std::to_string(fr_read) + "," + std::to_string(adv_read) + "," +
                 std::to_string(fr_rcpu) + "," + std::to_string(adv_rcpu));

  // ---- §9.2 small-read experiment ----
  {
    Cluster cluster(PaperClusterOptions(/*nvram=*/true));
    if (!cluster.Start().ok()) {
      return 1;
    }
    auto node = cluster.AddFrangipani();
    FrangipaniFs* fs = (*node)->fs();
    constexpr int kProcs = 30;
    for (int i = 0; i < kProcs; ++i) {
      auto ino = fs->Create("/small" + std::to_string(i));
      (void)fs->Write(*ino, 0, Bytes(8192, static_cast<uint8_t>(i)));
    }
    (void)fs->DropCaches();
    double t0 = NowSeconds();
    std::vector<std::thread> procs;
    for (int i = 0; i < kProcs; ++i) {
      procs.emplace_back([fs, i] {
        auto ino = fs->Lookup("/small" + std::to_string(i));
        Bytes buf;
        (void)fs->Read(*ino, 0, 8192, &buf);
      });
    }
    for (auto& t : procs) {
      t.join();
    }
    double secs = NowSeconds() - t0;
    double mbs = kProcs * 8192.0 / secs / (1 << 20);
    std::printf("Small reads: 30 processes x 8 KB uncached files: %.1f MB/s\n", mbs);
    std::printf("paper: 6.3 MB/s (~80%% of raw Petal small-read throughput)\n");
    rows.push_back("small_read," + std::to_string(mbs) + ",,,");
  }

  WriteCsv("table3_throughput", "op,frangipani_mbs,advfs_mbs,frangipani_cpu,advfs_cpu", rows);
  return 0;
}
