/**
 * @file
 * Fixed-size worker pool with a shared task queue, used to fan
 * independent simulations (batch requests, calibration searches,
 * design-space sweeps) across cores. Tasks are opaque closures; all
 * ordering guarantees live with the caller, which keeps the pool
 * trivially exception-safe: a task that throws is caught at the
 * worker boundary, so one failing request can never wedge the pool.
 *
 * Locking goes through the annotated pade::Mutex/CondVar wrappers
 * (runtime/mutex.h) and every shared member carries PADE_GUARDED_BY,
 * so clang's -Wthread-safety proves the locking discipline at compile
 * time — the clang CI legs build with -Werror=thread-safety.
 */

#ifndef PADE_RUNTIME_THREAD_POOL_H
#define PADE_RUNTIME_THREAD_POOL_H

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/mutex.h"

namespace pade {

/** Fixed pool of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 picks hardwareThreads(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers_.size()); }

    /**
     * Enqueue a task. Exceptions escaping the task are swallowed at
     * the worker boundary; use parallelFor() when propagation is
     * needed.
     */
    void submit(std::function<void()> task) PADE_EXCLUDES(mu_);

    /** Block until the queue is empty and every worker is idle. */
    void waitIdle() PADE_EXCLUDES(mu_);

    /**
     * Pop and run one queued task on the calling thread; false when
     * the queue is empty. Lets a thread that is blocked on a subset
     * of tasks (parallelFor) keep the pool productive, which makes
     * nested parallelFor calls on one pool deadlock-free.
     */
    bool tryRunOne() PADE_EXCLUDES(mu_);

    /** Detected core count (at least 1). */
    static int hardwareThreads();

  private:
    void workerLoop() PADE_EXCLUDES(mu_);

    /** Wakeup condition of workerLoop's wait (task or shutdown). */
    bool
    hasWorkOrStopped() const PADE_REQUIRES(mu_)
    {
        return stop_ || !queue_.empty();
    }
    /** waitIdle()'s condition: nothing queued, nothing running. */
    bool
    isIdle() const PADE_REQUIRES(mu_)
    {
        return queue_.empty() && active_ == 0;
    }

    Mutex mu_;
    CondVar cv_task_;
    CondVar cv_idle_;
    std::deque<std::function<void()>> queue_ PADE_GUARDED_BY(mu_);
    /** Worker handles; written only by the ctor, joined by the dtor. */
    std::vector<std::thread> workers_;
    int active_ PADE_GUARDED_BY(mu_) = 0;
    bool stop_ PADE_GUARDED_BY(mu_) = false;
};

/**
 * Run fn(0..n-1) on the pool and block until all complete. The first
 * exception thrown by any index is rethrown in the caller once every
 * task has finished (no task is cancelled, no worker is lost).
 *
 * While waiting, the caller helps drain the pool's queue
 * (ThreadPool::tryRunOne), so parallelFor may be called from inside
 * a pool task — nested fan-outs on one pool cannot deadlock.
 */
void parallelFor(ThreadPool &pool, int n,
                 const std::function<void(int)> &fn);

/**
 * parallelFor with a deterministic reduction: fn(i) runs on the pool
 * for i = 0..n-1 (any interleaving), then reduce(acc, result_i) folds
 * the results on the calling thread in ascending index order — so the
 * reduced value is bit-identical for every thread count even when the
 * reduction is not associative/commutative in floating point. This is
 * the aggregation discipline the model-granularity serving layer uses
 * to fan KV heads across the pool.
 */
template <typename T, typename Fn, typename Reduce>
T
parallelReduceOrdered(ThreadPool &pool, int n, T init, Fn &&fn,
                      Reduce &&reduce)
{
    std::vector<decltype(fn(0))> parts(static_cast<std::size_t>(n));
    parallelFor(pool, n,
                [&](int i) { parts[static_cast<std::size_t>(i)] = fn(i); });
    for (int i = 0; i < n; i++)
        reduce(init, parts[static_cast<std::size_t>(i)]);
    return init;
}

} // namespace pade

#endif // PADE_RUNTIME_THREAD_POOL_H
