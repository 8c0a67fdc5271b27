// Worker pool that starts its threads on demand, plus a PeriodicTask helper
// for demons (sync demon, lease renewal, heartbeats). Both join cleanly on
// destruction.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/clock.h"

namespace frangipani {

// Runs submitted tasks in FIFO order on at most `max_threads` workers. The
// constructor starts none: a Submit that finds no idle worker for its task
// starts one, up to the cap, so a pool only ever holds as many threads as
// its peak concurrent demand (each worker also carries a flight-recorder
// ring and a malloc arena). Workers live until the pool is destroyed.
class ThreadPool {
 public:
  explicit ThreadPool(int max_threads);
  // Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> fn);

  // Blocks until all submitted work has finished (the queue is empty and no
  // worker is executing).
  void Drain();

  // Workers started so far.
  int num_threads() const;

 private:
  void WorkerLoop();

  const int max_threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drain_cv_;
  std::deque<std::function<void()>> queue_;
  int active_ = 0;  // workers running a task
  int idle_ = 0;    // workers waiting on cv_
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs `fn` every `period` on a dedicated thread until destroyed or Stop()ed.
// The first run happens after one period. Stop() joins and is idempotent.
class PeriodicTask {
 public:
  PeriodicTask(Duration period, std::function<void()> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Stop();
  // Runs the task body immediately on the caller's thread (used by tests).
  void RunNow() { fn_(); }

 private:
  Duration period_;
  std::function<void()> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace frangipani

#endif  // SRC_BASE_THREAD_POOL_H_
