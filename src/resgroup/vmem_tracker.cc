#include "resgroup/vmem_tracker.h"

#include <algorithm>

namespace gphtap {

QueryMemoryAccount::QueryMemoryAccount(VmemTracker* tracker,
                                       std::shared_ptr<GroupMemory> group)
    : tracker_(tracker), group_(std::move(group)) {}

QueryMemoryAccount::~QueryMemoryAccount() { ReleaseAll(); }

Status QueryMemoryAccount::Reserve(int64_t bytes) {
  if (TryReserve(bytes)) return Status::OK();
  if (tracker_->m_vmem_cancels_ != nullptr) tracker_->m_vmem_cancels_->Add(1);
  return Status::ResourceExhausted(
      "vmem: slot, group-shared and global-shared pools exhausted (query in group " +
      (group_ ? group_->name() : std::string("<none>")) + ")");
}

bool QueryMemoryAccount::TryReserve(int64_t bytes) {
  if (bytes <= 0) return true;
  int64_t remaining = bytes;

  // Layer 1: the slot quota. The account is per-query but a query's parallel
  // slices share it, so take from the quota with a CAS loop.
  int64_t slot_take = 0;
  if (group_ != nullptr) {
    int64_t quota = group_->slot_quota_bytes();
    int64_t cur = slot_used_.load(std::memory_order_relaxed);
    do {
      slot_take = std::clamp<int64_t>(remaining, 0, std::max<int64_t>(quota - cur, 0));
    } while (slot_take > 0 && !slot_used_.compare_exchange_weak(cur, cur + slot_take,
                                                                std::memory_order_relaxed));
    remaining -= slot_take;
    if (remaining == 0) return true;
  }

  std::lock_guard<std::mutex> g(tracker_->mu_);
  // Layer 2: group shared pool.
  int64_t shared_take = 0;
  if (group_ != nullptr) {
    int64_t room = group_->shared_bytes_ - group_->shared_used_;
    shared_take = std::clamp<int64_t>(remaining, 0, std::max<int64_t>(room, 0));
    remaining -= shared_take;
  }
  // Layer 3: global shared pool — the last defender.
  int64_t global_room = tracker_->global_shared_bytes_ - tracker_->global_used_;
  if (remaining > global_room) {
    // Give the slot bytes back; the shared pools were never touched.
    slot_used_.fetch_sub(slot_take, std::memory_order_relaxed);
    return false;
  }
  if (shared_take > 0) {
    group_->shared_used_ += shared_take;
    group_shared_used_.fetch_add(shared_take, std::memory_order_relaxed);
  }
  if (remaining > 0) {
    tracker_->global_used_ += remaining;
    global_used_.fetch_add(remaining, std::memory_order_relaxed);
  }
  return true;
}

void QueryMemoryAccount::ReleaseAll() {
  slot_used_.store(0, std::memory_order_relaxed);
  int64_t group_shared = group_shared_used_.exchange(0, std::memory_order_relaxed);
  int64_t global = global_used_.exchange(0, std::memory_order_relaxed);
  if (group_shared > 0 || global > 0) {
    std::lock_guard<std::mutex> g(tracker_->mu_);
    if (group_ != nullptr) group_->shared_used_ -= group_shared;
    tracker_->global_used_ -= global;
  }
}

}  // namespace gphtap
