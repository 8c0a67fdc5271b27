#include "src/base/thread_pool.h"

#include "src/base/logging.h"

namespace frangipani {

ThreadPool::ThreadPool(int max_threads) : max_threads_(max_threads) {
  FGP_CHECK(max_threads > 0);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // No Submit can start a worker once stop_ is set, so workers_ is final.
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> guard(mu_);
    FGP_CHECK(!stop_) << "Submit after shutdown";
    queue_.push_back(std::move(fn));
    // Every queued task is owed its own idle worker. A task beyond the idle
    // workers starts a new one while the pool is under its cap; at the cap
    // a busy worker takes it when it finishes its current task.
    if (queue_.size() > static_cast<size_t>(idle_) &&
        workers_.size() < static_cast<size_t>(max_threads_)) {
      workers_.emplace_back([this] { WorkerLoop(); });
    } else {
      wake = idle_ > 0;
    }
  }
  if (wake) {
    cv_.notify_one();
  }
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drain_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

int ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> guard(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (queue_.empty()) {
      if (stop_) {
        return;
      }
      // Counted idle from the moment the last task is done, with mu_ held
      // throughout: a Submit after Drain returns finds this worker idle.
      ++idle_;
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      continue;
    }
    std::function<void()> fn = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lk.unlock();
    fn();
    fn = nullptr;  // destroy captures before the task counts as finished
    lk.lock();
    --active_;
    if (queue_.empty() && active_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

PeriodicTask::PeriodicTask(Duration period, std::function<void()> fn)
    : period_(period), fn_(std::move(fn)) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (cv_.wait_for(lk, period_, [this] { return stop_; })) {
        return;
      }
      lk.unlock();
      fn_();
      lk.lock();
    }
  });
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

}  // namespace frangipani
