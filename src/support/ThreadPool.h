//===- support/ThreadPool.h - Work-stealing task pool ---------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool with per-lane work-stealing deques and a
/// deterministic join, used by the parallel analysis engine.
///
/// The pool executes index-space batches (parallelFor): the caller's
/// thread participates as lane 0, each of the Jobs-1 worker threads is
/// another lane, every lane starts with a contiguous chunk of the index
/// space in its own deque, drains it LIFO from the back, and steals FIFO
/// from the front of other lanes' deques when its own runs dry.
/// parallelFor returns only after every index has executed (the
/// deterministic join): all writes made by tasks happen-before the
/// return, so callers may freely read task output without extra
/// synchronization.
///
/// A pool built with Jobs == 1 spawns no threads at all: parallelFor
/// degenerates to an inline loop on the calling thread, so the
/// single-job configuration is bit-for-bit the serial engine while still
/// accounting tasks.  tasksRun() is deterministic for every job count
/// (it counts indices executed); steals() is inherently
/// schedule-dependent and is exposed for telemetry only.
///
/// Tasks must not touch the caller's telemetry session (sessions are
/// single-threaded, and lane 0 runs on the caller's thread, where that
/// session is active); callers account pool counters after the join.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_THREADPOOL_H
#define SPIKE_SUPPORT_THREADPOOL_H

#include "support/FaultInjection.h"
#include "telemetry/Histogram.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace spike {

/// Fixed worker pool executing index-space batches with work stealing.
class ThreadPool {
public:
  /// A task body: invoked once per index with the executing lane's id in
  /// [0, jobs()), so callers can keep per-lane scratch state.
  using Body = std::function<void(size_t Index, unsigned Lane)>;

  /// Creates a pool with \p Jobs lanes (clamped to at least 1).  Jobs - 1
  /// worker threads are spawned; Jobs == 1 spawns none.
  explicit ThreadPool(unsigned Jobs = 1);

  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of lanes (calling thread included).
  unsigned jobs() const { return unsigned(Lanes.size()); }

  /// Runs \p Fn for every index in [0, Count) and blocks until all have
  /// completed — a throwing task never wedges its siblings or leaks
  /// queued indices.  If tasks threw, the exception of the *lowest index*
  /// (task-submission order, not schedule order) is rethrown here after
  /// the join, so which exception escapes is deterministic at every job
  /// count.  Must not be called from inside a task.
  void parallelFor(size_t Count, const Body &Fn);

  /// Total indices executed across all batches — deterministic: identical
  /// for every job count.
  uint64_t tasksRun() const { return Tasks; }

  /// Total cross-lane steals — schedule-dependent (always 0 when
  /// jobs() == 1); telemetry only, never compared across runs.
  uint64_t steals() const { return Steals.load(std::memory_order_relaxed); }

  /// Indices executed by lane \p LaneId across all batches.  Written only
  /// by the lane's own thread during a batch; the deterministic join
  /// orders those writes before any read here.  The per-lane split is
  /// schedule-dependent (stealing moves work between lanes) even though
  /// the sum equals tasksRun().
  uint64_t laneExecuted(unsigned LaneId) const {
    return Lanes[LaneId]->Executed;
  }

  /// Steals performed by lane \p LaneId (i.e. indices it executed that
  /// started on another lane's deque).  Schedule-dependent.
  uint64_t laneStolen(unsigned LaneId) const { return Lanes[LaneId]->Stolen; }

  /// Batch sizes (indices per parallelFor call).  Each SCC schedule
  /// level is one batch, so this is the per-level width distribution.
  /// Deterministic: identical at every job count.
  const telemetry::Histogram &batchTasks() const { return BatchTasks; }

  /// Steals per batch — the per-schedule-level imbalance signal.
  /// Schedule-dependent.
  const telemetry::Histogram &batchSteals() const { return BatchSteals; }

  /// The default job count for tools: the hardware concurrency, clamped
  /// to at least 1.
  static unsigned defaultJobs();

private:
  /// One lane's deque.  Owner pops from the back, thieves pop from the
  /// front; a plain mutex keeps the implementation obviously correct
  /// under ThreadSanitizer (batches are coarse enough that the lock is
  /// not contended).
  struct Lane {
    std::mutex M;
    std::deque<size_t> Q;

    /// Indices this lane executed / stole.  Single-writer (the lane's
    /// executing thread); readers rely on the join's synchronization.
    uint64_t Executed = 0;
    uint64_t Stolen = 0;
  };

  void workerMain(unsigned LaneId);
  void runLane(unsigned LaneId);

  std::vector<std::unique_ptr<Lane>> Lanes;
  std::vector<std::thread> Workers;

  std::mutex M;
  std::condition_variable WorkCV;  ///< Signals a new batch (or shutdown).
  std::condition_variable DoneCV;  ///< Signals batch completion.
  const Body *Batch = nullptr;     ///< Current batch body (null = idle).
  uint64_t Generation = 0;         ///< Bumped per batch.
  unsigned ActiveWorkers = 0;      ///< Workers currently inside a batch.
  bool Shutdown = false;
  std::atomic<size_t> Remaining{0};

  /// Exception of the lowest-index throwing task this batch, rethrown
  /// after the join (submission-order determinism).
  std::exception_ptr FirstError;
  size_t FirstErrorIndex = std::numeric_limits<size_t>::max();

  uint64_t Tasks = 0; ///< Written only by the calling thread.
  std::atomic<uint64_t> Steals{0};

  /// Per-batch accounting, updated by the calling thread after each
  /// join (BatchTasks deterministic, BatchSteals schedule-dependent).
  telemetry::Histogram BatchTasks;
  telemetry::Histogram BatchSteals;
};

/// Runs \p Fn over [0, Count) on \p Pool, or as a plain inline loop when
/// no pool is supplied.  Either way every index has completed on return.
inline void forEachTask(ThreadPool *Pool, size_t Count,
                        const ThreadPool::Body &Fn) {
  if (Pool) {
    Pool->parallelFor(Count, Fn);
    return;
  }
  for (size_t Index = 0; Index < Count; ++Index) {
    faultinject::taskPoint();
    Fn(Index, 0);
  }
}

} // namespace spike

#endif // SPIKE_SUPPORT_THREADPOOL_H
