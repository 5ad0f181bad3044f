#include "server/cluster.h"

#include "tree/validate.h"

namespace hyder {

Cluster::Cluster(int num_servers, StripedLogOptions log_options,
                 ServerOptions base_options)
    : owned_log_(std::make_unique<StripedLog>(log_options)),
      log_(owned_log_.get()) {
  for (int i = 0; i < num_servers; ++i) {
    ServerOptions options = base_options;
    options.server_id = i;
    servers_.push_back(std::make_unique<HyderServer>(log_, options));
  }
}

Cluster::Cluster(int num_servers, SharedLog* log, ServerOptions base_options)
    : log_(log) {
  for (int i = 0; i < num_servers; ++i) {
    ServerOptions options = base_options;
    options.server_id = i;
    servers_.push_back(std::make_unique<HyderServer>(log_, options));
  }
}

Cluster::Cluster(SharedLog* log,
                 std::vector<std::unique_ptr<HyderServer>> servers)
    : log_(log), servers_(std::move(servers)) {}

Status Cluster::PollAll() {
  // A log with transient faults sits behind a RetryingLog; what escapes
  // here (DataLoss, Corruption, an outage outlasting the retries) must
  // stop the rollforward rather than leave servers silently diverged.
  for (auto& server : servers_) {
    HYDER_ASSIGN_OR_RETURN(auto decisions, server->Poll());
    (void)decisions;
  }
  return Status::OK();
}

Status Cluster::Seed(const std::map<Key, std::string>& content) {
  Transaction txn = servers_[0]->Begin(IsolationLevel::kSnapshot);
  for (const auto& [k, v] : content) {
    HYDER_RETURN_IF_ERROR(txn.Put(k, v));
  }
  HYDER_ASSIGN_OR_RETURN(auto submitted, servers_[0]->Submit(std::move(txn)));
  (void)submitted;
  return PollAll();
}

Result<bool> Cluster::StatesConverged(std::string* diff) {
  HYDER_RETURN_IF_ERROR(PollAll());
  for (size_t i = 1; i < servers_.size(); ++i) {
    DatabaseState a = servers_[0]->LatestState();
    DatabaseState b = servers_[i]->LatestState();
    if (a.seq != b.seq) {
      *diff = "state sequences differ: " + std::to_string(a.seq) + " vs " +
              std::to_string(b.seq);
      return false;
    }
    HYDER_ASSIGN_OR_RETURN(
        bool same, PhysicallyEqual(&servers_[0]->resolver(), a.root,
                                   &servers_[i]->resolver(), b.root, diff));
    if (!same) {
      *diff = "server 0 vs " + std::to_string(i) + ": " + *diff;
      return false;
    }
  }
  return true;
}

}  // namespace hyder
