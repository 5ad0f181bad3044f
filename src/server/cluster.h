#ifndef HYDER2_SERVER_CLUSTER_H_
#define HYDER2_SERVER_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "log/striped_log.h"
#include "server/server.h"

namespace hyder {

/// An in-process Hyder II deployment: one shared striped log plus N
/// transaction servers (Fig. 1). Transactions may run on any server; every
/// server independently rolls the shared log forward and — because meld is
/// deterministic — reaches physically identical states (§2, §3.4).
class Cluster {
 public:
  /// All servers receive `base_options` (with per-server ids); they must,
  /// per the paper, share one pipeline configuration.
  Cluster(int num_servers, StripedLogOptions log_options,
          ServerOptions base_options);

  /// Non-owning variant: runs the cluster over an externally provided log —
  /// a FileLog for durability tests, or a FaultInjectingLog wrapper. `log`
  /// must outlive the cluster.
  Cluster(int num_servers, SharedLog* log, ServerOptions base_options);

  /// Adopts pre-built servers (e.g. bootstrapped from a checkpoint at
  /// different start positions) sharing `log`, which must outlive the
  /// cluster.
  Cluster(SharedLog* log, std::vector<std::unique_ptr<HyderServer>> servers);

  HyderServer& server(int i) { return *servers_[i]; }
  int size() const { return static_cast<int>(servers_.size()); }
  SharedLog& log() { return *log_; }

  /// Rolls every server forward to the current log tail.
  Status PollAll();

  /// Seeds initial database content through server 0 and rolls everyone
  /// forward. Call once, before any other transactions.
  Status Seed(const std::map<Key, std::string>& content);

  /// Verifies all servers' latest states are *physically identical*
  /// (same node identities, §3.4; see PhysicallyEqual in tree/validate.h).
  /// Polls first.
  Result<bool> StatesConverged(std::string* diff);

 private:
  std::unique_ptr<StripedLog> owned_log_;  ///< Null for external-log clusters.
  SharedLog* log_;
  std::vector<std::unique_ptr<HyderServer>> servers_;
};

}  // namespace hyder

#endif  // HYDER2_SERVER_CLUSTER_H_
