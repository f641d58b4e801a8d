#include "fadewich/exec/thread_pool.hpp"

#include "fadewich/common/env.hpp"
#include "fadewich/common/error.hpp"

namespace fadewich::exec {

namespace {

// Which pool (if any) the current thread is a worker of.  Lets submit()
// push to the local deque and keeps nested parallel_for cheap.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity t_worker;

}  // namespace

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  // A malformed FADEWICH_THREADS throws instead of silently running at
  // hardware concurrency: a fleet-sized run on the wrong pool size is an
  // expensive mistake to discover from a wall clock.  4096 caps obvious
  // typos (an extra digit) while leaving any plausible machine headroom.
  return common::env_count("FADEWICH_THREADS", hw > 0 ? hw : 1,
                           /*max_value=*/4096);
}

std::uint64_t task_seed(std::uint64_t root_seed, std::uint64_t task_index) {
  // SplitMix64 finaliser over root + golden-ratio stride, matching the
  // mixing Rng::split uses, but stateless: seed(i) never depends on how
  // many sibling tasks were seeded before it.
  std::uint64_t z = root_seed + 0x9E3779B97F4A7C15ull * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Shared state of one parallel_for call.  Participants (workers running
// helper tasks plus the calling thread) claim [next, next + grain) chunks
// until the range is exhausted; `active` counts claims still executing so
// the caller knows when the last straggler finished.
struct ThreadPool::ForLoop {
  std::size_t end = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  bool finished() const {
    return next.load() >= end && active.load() == 0;
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_.store(true);
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  FADEWICH_EXPECTS(task != nullptr);
  std::size_t q;
  if (t_worker.pool == this) {
    q = t_worker.index;  // local deque: LIFO hot path, cache-warm
  } else {
    q = next_queue_.fetch_add(1) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    queues_[q]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1);
  // Passing through wake_mutex_ before notifying closes the lost-wakeup
  // window: a worker that evaluated its sleep predicate before our
  // pending_ increment has, by the time we acquire the mutex, atomically
  // released it and blocked — so the notify below reaches it.
  { std::lock_guard<std::mutex> lock(wake_mutex_); }
  wake_cv_.notify_one();
}

bool ThreadPool::pop_task(std::size_t self, std::function<void()>& task) {
  // Own deque from the back (most recently pushed: LIFO keeps the working
  // set hot), then steal from siblings' fronts (FIFO: oldest, largest
  // remaining work first).
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

bool ThreadPool::try_run_pending_task() {
  const std::size_t self =
      t_worker.pool == this ? t_worker.index : next_queue_.load() %
                                                   queues_.size();
  std::function<void()> task;
  if (!pop_task(self, task)) return false;
  pending_.fetch_sub(1);
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker = WorkerIdentity{this, self};
  for (;;) {
    std::function<void()> task;
    if (pop_task(self, task)) {
      pending_.fetch_sub(1);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stopping_.load() || pending_.load() > 0;
    });
    if (stopping_.load() && pending_.load() == 0) return;
  }
}

// Drop one participant; whoever decrements `active` to zero on an
// exhausted range notifies the waiting caller.  Every decrement must go
// through here — a silent decrement can consume the "last one out" state
// another participant observed, and then nobody notifies.
void ThreadPool::leave_loop(ForLoop& loop) {
  if (loop.active.fetch_sub(1) == 1 && loop.next.load() >= loop.end) {
    std::lock_guard<std::mutex> lock(loop.done_mutex);
    loop.done_cv.notify_all();
  }
}

void ThreadPool::run_loop_chunks(ForLoop& loop) {
  for (;;) {
    if (loop.next.load() >= loop.end || loop.failed.load()) return;
    loop.active.fetch_add(1);  // before claiming: no premature "finished"
    std::size_t i = loop.next.fetch_add(loop.grain);
    if (i >= loop.end) {
      leave_loop(loop);
      return;
    }
    const std::size_t hi = std::min(i + loop.grain, loop.end);
    try {
      for (; i < hi && !loop.failed.load(); ++i) (*loop.fn)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(loop.error_mutex);
        if (!loop.error) loop.error = std::current_exception();
      }
      loop.failed.store(true);
      loop.next.store(loop.end);  // abandon unclaimed chunks
    }
    leave_loop(loop);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (begin >= end) return;
  FADEWICH_EXPECTS(fn != nullptr);
  if (grain == 0) grain = 1;

  auto loop = std::make_shared<ForLoop>();
  loop->end = end;
  loop->grain = grain;
  loop->fn = &fn;
  loop->next.store(begin);

  // One helper per worker, capped by the number of chunks beyond the one
  // the caller will take itself.  Helpers hold the shared_ptr: a helper
  // that only runs after the loop completed sees an exhausted range and
  // returns immediately.  A 1-thread pool submits no helpers at all —
  // the caller runs every chunk itself, honouring the documented
  // degenerates-to-a-serial-loop contract (and making a 1-thread pool a
  // true single-threaded baseline, not caller + one worker).
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  const std::size_t helpers =
      thread_count() <= 1
          ? 0
          : std::min(thread_count(), chunks > 0 ? chunks - 1 : 0);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([loop] { run_loop_chunks(*loop); });
  }

  run_loop_chunks(*loop);  // the caller is a full participant

  if (!loop->finished()) {
    // Stragglers remain.  Help drain unrelated queued work while waiting
    // (keeps nested parallel loops flowing), then block for the tail.
    while (!loop->finished() && try_run_pending_task()) {
    }
    std::unique_lock<std::mutex> lock(loop->done_mutex);
    loop->done_cv.wait(lock, [&] { return loop->finished(); });
  }

  if (loop->error) std::rethrow_exception(loop->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fadewich::exec
