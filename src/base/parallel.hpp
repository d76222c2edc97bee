// Deterministic parallel replication executor.
//
// The Monte-Carlo harnesses (sim/sweep, sim/scaling) run hundreds of
// independent replications whose seeds are derived per replication index
// (rng::audited_stream_seed(seed, stream, rep)), so the computation of
// replication r never depends on any other replication. That makes the
// fan-out embarrassingly parallel AND bit-reproducible: each task writes
// its results into a slot indexed by its replication number, and the
// caller folds the slots in index order afterwards — identical
// floating-point accumulation order to the sequential loop, hence
// bit-identical summaries regardless of thread count or OS scheduling.
//
// The pool hands every task a stable worker index in [0, worker_count()),
// which callers use to give each worker its own reusable scratch state
// (e.g. one search::SearchWorkspace per worker).
//
// Lives in base/ (not sim/) because it is domain-free infrastructure that
// lower layers — search::QueryEngine's batch fan-out in particular — are
// allowed to depend on under the include-layering DAG
// base→rng→graph→gen→stats→search→sim→core enforced by sfs_lint R8
// (docs/ANALYSIS.md). The pool's internal state carries
// clang thread-safety annotations (base/thread_annotations.hpp), checked
// by the analyze CI job.
#pragma once

#include <cstddef>
#include <functional>

namespace sfs::base {

/// Largest worker count a caller may ask for. Counts come from outside
/// input (--threads, SFS_THREADS), and a pool starts one thread per worker
/// less one, so a typo must fail before anything is allocated or started.
inline constexpr std::size_t kMaxWorkers = 1024;

/// Worker count used when a caller passes `threads == 0`: the value of the
/// SFS_THREADS environment variable if set, positive and at most
/// kMaxWorkers, otherwise std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] std::size_t default_worker_count();

/// A small fixed-size thread pool. The calling thread participates as
/// worker 0, so a pool of `workers` uses `workers - 1` background threads;
/// `ThreadPool(1)` degenerates to a plain sequential loop with no threads
/// and no synchronization.
///
/// parallel_for issues tasks through a shared atomic counter (dynamic
/// scheduling — replication costs are heavy-tailed, so static blocking
/// would leave workers idle). Nested parallel_for calls from inside a task
/// execute inline on the calling worker, so harnesses can compose (a
/// scaling sweep whose measure function itself runs a portfolio) without
/// deadlock or thread explosion.
class ThreadPool {
 public:
  /// `workers == 0` selects default_worker_count(). Throws
  /// std::invalid_argument when `workers` exceeds kMaxWorkers.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept;

  /// Runs fn(task, worker) for every task in [0, count), then returns.
  /// `worker` is stable within one task and < worker_count(). Exceptions
  /// thrown by tasks are captured; the first one (in completion order) is
  /// rethrown on the calling thread after all workers quiesce. Once a task
  /// throws, remaining unclaimed tasks are cancelled (never run), so on
  /// exceptional exit per-task result slots may be only partially written
  /// — cleanup code must not assume every task executed.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t task,
                                             std::size_t worker)>& fn);

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide shared pool (lazily constructed with the default
/// worker count). The replication harnesses use this unless handed an
/// explicit thread count.
[[nodiscard]] ThreadPool& shared_pool();

/// Convenience: run `fn` over [0, count) on `threads` workers (0 = the
/// shared pool at its default size; 1 = inline sequential loop).
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t task,
                                           std::size_t worker)>& fn);

/// Number of workers parallel_for(count, threads, fn) will hand out worker
/// indices for — what harnesses must size per-worker scratch vectors to
/// (threads == 0 maps to the shared pool's worker count). Throws
/// std::invalid_argument when `threads` exceeds kMaxWorkers.
[[nodiscard]] std::size_t resolve_worker_count(std::size_t threads);

}  // namespace sfs::base
