#include "common/exec_runtime.h"

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <utility>

namespace gphtap {

namespace {

// glibc binds each allocating thread to a malloc arena, creating new ones up
// to 8 per core, and a freed chunk goes back to the arena it came from.
// Long-lived workers keep their arenas attached, so a process that runs
// cluster after cluster spreads its free memory over ever more arenas. In
// htapbench tpcb runs on a 4-core box, peak RSS read 30 MB with per-slice
// threads, 33 MB with workers over 15 s and 43-44 MB over 25 s, and 27 MB
// with workers and two arenas per core (DESIGN.md §13 has the pairs). Applied
// once per process; MALLOC_ARENA_MAX, if set, wins.
void CapMallocArenas() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (std::getenv("MALLOC_ARENA_MAX") != nullptr) return;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    mallopt(M_ARENA_MAX, static_cast<int>(2 * cores));
  });
}

}  // namespace

ExecRuntime::ExecRuntime(size_t idle_cap, Counter* spawns)
    : idle_cap_(idle_cap > 0 ? idle_cap : 1), spawns_(spawns) {
  CapMallocArenas();
}

ExecRuntime::~ExecRuntime() { Shutdown(); }

void ExecRuntime::TaskGroup::Spawn(const WaitContext& ctx, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> g(mu_);
    ++pending_;
  }
  runtime_->Dispatch(Task{ctx, std::move(fn), this});
}

void ExecRuntime::TaskGroup::Wait() {
  std::unique_lock<std::mutex> g(mu_);
  cv_.wait(g, [this] { return pending_ == 0; });
}

void ExecRuntime::TaskGroup::Done() {
  // Notify under the lock: once it is released the waiter may return and
  // destroy the group, so nothing here may touch it afterwards.
  std::lock_guard<std::mutex> g(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void ExecRuntime::ParallelFor(size_t n, const std::function<WaitContext(size_t)>& ctx_for,
                              const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  TaskGroup group(this);
  for (size_t i = 1; i < n; ++i) group.Spawn(ctx_for(i), [&fn, i] { fn(i); });
  {
    WaitContextGuard guard(ctx_for(0));
    fn(0);
  }
  group.Wait();
}

void ExecRuntime::Dispatch(Task task) {
  std::list<std::unique_ptr<Worker>> exited;
  Worker* fresh = nullptr;
  {
    std::lock_guard<std::mutex> g(mu_);
    exited.swap(retired_);
    if (!idle_.empty()) {
      Worker* w = idle_.back();
      idle_.pop_back();
      w->next.emplace(std::move(task));
      // Under mu_: woken spuriously, the worker could otherwise run the task,
      // retire and be joined and freed before this notify touched it.
      w->cv.notify_one();
    } else {
      std::unique_ptr<Worker>& w = live_.emplace_back(std::make_unique<Worker>());
      w->self = std::prev(live_.end());
      fresh = w.get();
    }
  }
  if (fresh != nullptr) {
    // Created outside mu_, so other fan-outs do not wait behind thread
    // creation. The worker waits for `started` before it may retire, so no
    // dispatcher can join it before its handle is assigned.
    std::thread t(&ExecRuntime::WorkerLoop, this, fresh, std::move(task));
    if (spawns_ != nullptr) spawns_->Add(1);
    std::lock_guard<std::mutex> g(mu_);
    fresh->thread = std::move(t);
    fresh->started = true;
    fresh->cv.notify_one();
  }
  for (auto& w : exited) w->thread.join();
}

void ExecRuntime::WorkerLoop(Worker* w, Task task) {
  for (;;) {
    {
      WaitContextGuard guard(task.ctx);
      task.fn();
    }
    TaskGroup* group = task.group;
    task = Task{};  // the captures die before the group learns the task is done

    // Idle (or retired) before the group learns the task is done, so a caller
    // that fans out again right after Wait() finds this worker idle instead
    // of starting another thread.
    std::unique_lock<std::mutex> lk(mu_);
    w->cv.wait(lk, [w] { return w->started; });
    const bool exit = shutdown_ || idle_.size() >= idle_cap_;
    if (!exit) {
      idle_.push_back(w);
    } else if (!shutdown_) {
      retired_.splice(retired_.end(), live_, w->self);  // joined by the next Dispatch
    }
    lk.unlock();
    group->Done();
    if (exit) return;  // touches nothing of `w`: it may be freed once joined

    lk.lock();
    w->cv.wait(lk, [this, w] { return w->next.has_value() || shutdown_; });
    if (!w->next.has_value()) return;  // Shutdown
    task = std::move(*w->next);
    w->next.reset();
  }
}

void ExecRuntime::Shutdown() {
  std::list<std::unique_ptr<Worker>> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    shutdown_ = true;
    for (Worker* w : idle_) w->cv.notify_one();
    idle_.clear();
    all.splice(all.end(), live_);
    all.splice(all.end(), retired_);
  }
  for (auto& w : all) w->thread.join();
}

size_t ExecRuntime::live_workers() const {
  std::lock_guard<std::mutex> g(mu_);
  return live_.size();
}

size_t ExecRuntime::idle_workers() const {
  std::lock_guard<std::mutex> g(mu_);
  return idle_.size();
}

}  // namespace gphtap
