#include "meld/state_table.h"

namespace hyder {

StateTable::StateTable(uint64_t capacity, DatabaseState initial)
    : capacity_(capacity < 2 ? 2 : capacity) {
  states_.push_back(std::move(initial));
}

void StateTable::Publish(DatabaseState state) {
  // Destroy the state that leaves the window outside the lock, as
  // RetireBelow does: dropping its root can free many nodes.
  DatabaseState retired;
  {
    MutexLock lock(mu_);
    states_.push_back(std::move(state));
    if (states_.size() > capacity_) {
      retired = std::move(states_.front());
      states_.pop_front();
    }
    published_.SignalAll();
  }
}

Result<DatabaseState> StateTable::WaitFor(uint64_t seq) {
  MutexLock lock(mu_);
  while (!shutdown_ && (states_.empty() || states_.back().seq < seq)) {
    published_.Wait(mu_);
  }
  if (states_.empty() || states_.back().seq < seq) {
    return Status::TimedOut("state table shut down while waiting for state " +
                            std::to_string(seq));
  }
  const uint64_t oldest = states_.front().seq;
  if (seq < oldest) {
    return Status::SnapshotTooOld("state " + std::to_string(seq) +
                                  " retired; oldest retained is " +
                                  std::to_string(oldest));
  }
  return states_[seq - oldest];
}

Result<DatabaseState> StateTable::Get(uint64_t seq) const {
  MutexLock lock(mu_);
  if (states_.empty() || states_.back().seq < seq) {
    return Status::NotFound("state " + std::to_string(seq) +
                            " not yet published");
  }
  const uint64_t oldest = states_.front().seq;
  if (seq < oldest) {
    return Status::SnapshotTooOld("state " + std::to_string(seq) +
                                  " retired; oldest retained is " +
                                  std::to_string(oldest));
  }
  return states_[seq - oldest];
}

DatabaseState StateTable::Latest() const {
  MutexLock lock(mu_);
  return states_.back();
}

uint64_t StateTable::OldestRetained() const {
  MutexLock lock(mu_);
  return states_.front().seq;
}

Status StateTable::ReplaceInitial(DatabaseState state) {
  MutexLock lock(mu_);
  if (states_.size() != 1) {
    return Status::InvalidArgument(
        "ReplaceInitial is only legal before any state is published");
  }
  if (states_.front().seq != state.seq) {
    return Status::InvalidArgument("initial state sequence mismatch");
  }
  states_.front() = std::move(state);
  return Status::OK();
}

size_t StateTable::RetireBelow(uint64_t seq) {
  // Collect the retired states under the lock but destroy them outside it:
  // dropping a root Ref can cascade-free a large subtree.
  std::deque<DatabaseState> retired;
  {
    MutexLock lock(mu_);
    while (states_.size() > 1 && states_.front().seq < seq) {
      retired.push_back(std::move(states_.front()));
      states_.pop_front();
    }
  }
  return retired.size();
}

void StateTable::Shutdown() {
  MutexLock lock(mu_);
  shutdown_ = true;
  published_.SignalAll();
}

}  // namespace hyder
