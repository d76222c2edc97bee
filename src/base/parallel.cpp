#include "base/parallel.hpp"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "base/check.hpp"
#include "base/sync.hpp"
#include "base/thread_annotations.hpp"

namespace sfs::base {

namespace {

/// True while the current thread is executing a pool task; nested
/// parallel_for calls detect this and run inline.
thread_local bool t_inside_pool_task = false;

}  // namespace

std::size_t default_worker_count() {
  if (const char* env = std::getenv("SFS_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    // Out-of-range values (strtol clamps to LONG_MAX/LONG_MIN with ERANGE)
    // and counts above kMaxWorkers fall back to hardware concurrency like
    // any other garbage.
    if (end != env && *end == '\0' && errno == 0 && v > 0 &&
        static_cast<unsigned long>(v) <= kMaxWorkers) {
      return static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct ThreadPool::Impl {
  using Fn = std::function<void(std::size_t, std::size_t)>;

  std::size_t workers = 1;          // total, including the calling thread
  std::vector<std::thread> threads;  // workers - 1 background threads

  /// Serializes concurrent external parallel_for calls. Always taken
  /// before mu (declared ordering, so the analysis rejects an inverted
  /// acquisition if one is ever written).
  Mutex call_mu SFS_ACQUIRED_BEFORE(mu);

  Mutex mu;
  std::condition_variable_any job_cv;   // background workers wait for a job
  std::condition_variable_any done_cv;  // the caller waits for quiescence
  std::uint64_t generation SFS_GUARDED_BY(mu) = 0;
  bool stop SFS_GUARDED_BY(mu) = false;

  // Current job. Written by the caller under mu before bumping generation;
  // workers snapshot (fn, count) under mu when they wake for a generation,
  // then run off their local copies — every access to these members is
  // under mu, which is exactly what the annotations prove. (Before the
  // annotation pass, workers re-read fn/count lock-free mid-job, relying
  // on a subtler happens-before argument via the generation handshake —
  // correct, but invisible to any analysis. See docs/ANALYSIS.md,
  // "Capability annotations".)
  const Fn* fn SFS_GUARDED_BY(mu) = nullptr;
  std::size_t count SFS_GUARDED_BY(mu) = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::size_t active SFS_GUARDED_BY(mu) = 0;  // workers still inside the job
  std::exception_ptr error SFS_GUARDED_BY(mu);

  /// Claims tasks off the shared counter until the job is drained. Runs
  /// unlocked; `job_fn`/`job_count` are the caller's under-mu snapshot.
  void run_tasks(std::size_t worker, const Fn& job_fn, std::size_t job_count)
      SFS_EXCLUDES(mu) {
    const bool was_inside = t_inside_pool_task;
    t_inside_pool_task = true;
    for (;;) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= job_count) break;
      if (cancelled.load(std::memory_order_relaxed)) continue;  // drain
      try {
        job_fn(task, worker);
      } catch (...) {
        const MutexLock lk(mu);
        if (!error) error = std::current_exception();
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
    t_inside_pool_task = was_inside;
  }

  void worker_loop(std::size_t worker) SFS_EXCLUDES(mu) {
    std::uint64_t seen = 0;
    for (;;) {
      const Fn* job_fn = nullptr;
      std::size_t job_count = 0;
      {
        const MutexLock lk(mu);
        while (!stop && generation == seen) mu.wait(job_cv);
        if (stop) return;
        seen = generation;
        job_fn = fn;
        job_count = count;
      }
      run_tasks(worker, *job_fn, job_count);
      {
        const MutexLock lk(mu);
        if (--active == 0) done_cv.notify_all();
      }
    }
  }

  /// Stops and joins the background threads. Safe with any subset of the
  /// requested threads actually spawned (partial construction).
  void shutdown() SFS_EXCLUDES(mu) {
    {
      const MutexLock lk(mu);
      stop = true;
    }
    job_cv.notify_all();
    for (auto& t : threads) t.join();
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(nullptr) {
  SFS_REQUIRE(workers <= kMaxWorkers,
              "thread pool of " + std::to_string(workers) +
                  " workers exceeds the limit of " +
                  std::to_string(kMaxWorkers));
  impl_ = new Impl;
  impl_->workers = workers == 0 ? default_worker_count() : workers;
  try {
    impl_->threads.reserve(impl_->workers - 1);
    for (std::size_t w = 1; w < impl_->workers; ++w) {
      impl_->threads.emplace_back([this, w] { impl_->worker_loop(w); });
    }
  } catch (...) {
    // A std::thread failed to spawn (resource limit): the destructor will
    // not run for a half-constructed object, so stop and join the workers
    // that did start before letting the exception propagate.
    impl_->shutdown();
    delete impl_;
    // SFS_LINT_ALLOW(check-discipline): bare rethrow after cleanup must re-propagate the original exception, which no SFS_* macro can do
    throw;
  }
}

ThreadPool::~ThreadPool() {
  impl_->shutdown();
  delete impl_;
}

std::size_t ThreadPool::worker_count() const noexcept {
  return impl_->workers;
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  // Nested fan-out (a pool task that itself replicates) runs inline on the
  // current thread: its sub-tasks all see worker index 0 of the nested
  // call, which is safe because the nested call's scratch state is local
  // to this thread's call frame.
  if (t_inside_pool_task || impl_->workers == 1) {
    for (std::size_t task = 0; task < count; ++task) fn(task, 0);
    return;
  }

  const MutexLock call_lock(impl_->call_mu);
  {
    const MutexLock lk(impl_->mu);
    impl_->fn = &fn;
    impl_->count = count;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->cancelled.store(false, std::memory_order_relaxed);
    impl_->active = impl_->threads.size();
    impl_->error = nullptr;
    ++impl_->generation;
  }
  impl_->job_cv.notify_all();

  impl_->run_tasks(0, fn, count);  // the caller is worker 0

  std::exception_ptr err;
  {
    const MutexLock lk(impl_->mu);
    while (impl_->active != 0) impl_->mu.wait(impl_->done_cv);
    err = impl_->error;
    impl_->error = nullptr;
    impl_->fn = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  // Nested calls run inline anyway — don't spawn a pool whose threads
  // would never execute a task.
  if (threads == 1 || t_inside_pool_task) {
    for (std::size_t task = 0; task < count; ++task) fn(task, 0);
    return;
  }
  if (threads == 0) {
    shared_pool().parallel_for(count, fn);
    return;
  }
  ThreadPool pool(threads);
  pool.parallel_for(count, fn);
}

std::size_t resolve_worker_count(std::size_t threads) {
  SFS_REQUIRE(threads <= kMaxWorkers,
              "worker count " + std::to_string(threads) +
                  " exceeds the limit of " + std::to_string(kMaxWorkers));
  return threads == 0 ? shared_pool().worker_count() : threads;
}

}  // namespace sfs::base
