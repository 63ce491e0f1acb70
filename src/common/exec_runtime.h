// The execution runtime: one cluster-owned set of long-lived worker threads
// that every per-statement fan-out runs on — motion producer slices, 2PC phase
// participants, multi-segment DML workers and morsel decode workers. It plays
// the part of Greenplum's reused QE gangs: a statement leases workers instead
// of creating and joining an OS thread per slice.
//
// Hand-off rule: a task goes to an idle worker, or to a newly started one when
// no worker is idle. It is never queued behind a busy worker, because the
// tasks block on each other — a producer parks on a full motion queue until
// the consumer drains it, a morsel worker parks until the in-order merge
// catches up — and a queued task could be the one its runner is waiting for.
// Workers that finish go idle; a worker that would make the idle set larger
// than `idle_cap` exits instead, so a burst of wide statements does not leave
// a standing crowd of threads (and their stacks and malloc arenas) behind.
// The first runtime in a process also caps glibc at two malloc arenas per
// core, so workers that outlive statements do not spread free memory over
// one arena each (see exec_runtime.cc).
//
// Every task runs under its own WaitContext, installed before the task and
// removed after it, so a worker carries no owner, trace, span or statement
// accumulator from one statement into the next.
#ifndef GPHTAP_COMMON_EXEC_RUNTIME_H_
#define GPHTAP_COMMON_EXEC_RUNTIME_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/wait_event.h"

namespace gphtap {

class ExecRuntime {
 public:
  /// `spawns` (optional) counts every worker thread started.
  ExecRuntime(size_t idle_cap, Counter* spawns);
  /// Joins every worker (see Shutdown).
  ~ExecRuntime();

  ExecRuntime(const ExecRuntime&) = delete;
  ExecRuntime& operator=(const ExecRuntime&) = delete;

  /// Tasks started together and waited for together. Wait() (also run by the
  /// destructor) returns once every spawned task has finished and its
  /// captures are destroyed, so tasks may capture the caller's locals.
  class TaskGroup {
   public:
    explicit TaskGroup(ExecRuntime* runtime) : runtime_(runtime) {}
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Runs `fn` on a worker under `ctx`.
    void Spawn(const WaitContext& ctx, std::function<void()> fn);
    void Wait();

   private:
    friend class ExecRuntime;
    void Done();

    ExecRuntime* runtime_;
    std::mutex mu_;
    std::condition_variable cv_;
    size_t pending_ = 0;
  };

  /// Runs fn(i) for every i in [0, n) in parallel, each under ctx_for(i), and
  /// returns when all have finished. Task 0 runs on the calling thread.
  void ParallelFor(size_t n, const std::function<WaitContext(size_t)>& ctx_for,
                   const std::function<void(size_t)>& fn);

  /// Stops and joins every worker. Idempotent; no task may be spawned after.
  void Shutdown();

  /// Workers started and not yet exited (idle + busy).
  size_t live_workers() const;
  size_t idle_workers() const;

 private:
  struct Task {
    WaitContext ctx;
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };
  struct Worker {
    std::thread thread;
    std::condition_variable cv;
    std::optional<Task> next;  // handed over by Dispatch; guarded by mu_
    bool started = false;      // `thread` is assigned; guarded by mu_
    std::list<std::unique_ptr<Worker>>::iterator self;
  };

  void Dispatch(Task task);
  void WorkerLoop(Worker* w, Task task);

  const size_t idle_cap_;
  Counter* const spawns_;
  mutable std::mutex mu_;
  std::list<std::unique_ptr<Worker>> live_;     // started, not yet exited
  std::list<std::unique_ptr<Worker>> retired_;  // exited, not yet joined
  std::vector<Worker*> idle_;                   // parked; the newest is reused first
  bool shutdown_ = false;
};

}  // namespace gphtap

#endif  // GPHTAP_COMMON_EXEC_RUNTIME_H_
