// One SeeMoRe replica as a real process: the composition root seemore_node
// wraps. Mirrors harness/cluster.cc's wiring exactly — same keystore seed
// derivation, same replica construction per protocol, same
// recover -> reopen -> restore restart sequence — but over the rt backend
// (EventLoop + TcpTransport + PosixMedium) instead of the simulator.
//
// Protocol code is identical in both worlds; only this file and the
// launcher know which backend is underneath. A node runs until SIGTERM (the
// launcher's orderly stop), then writes a per-node report JSON whose
// digest samples let the launcher check cross-process agreement the same
// way Cluster::CheckAgreement does in-process.

#ifndef SEEMORE_RT_NODE_H_
#define SEEMORE_RT_NODE_H_

#include <memory>
#include <string>

#include "consensus/replica_base.h"
#include "harness/cluster.h"
#include "rt/event_loop.h"
#include "rt/posix_medium.h"
#include "rt/tcp_transport.h"
#include "scenario/spec.h"
#include "storage/file_store.h"

namespace seemore {
namespace rt {

struct NodeOptions {
  int replica_id = 0;
  uint16_t base_port = 18500;
  /// Durable data directory. Empty disables durability even when the spec
  /// asks for it (the launcher only passes one for --durable runs). A
  /// directory holding WAL/snapshot files triggers the restart-recovery
  /// path instead of a fresh open.
  std::string data_dir;
  /// Where the end-of-run report JSON goes ("" = stdout).
  std::string report_path;
  /// Hard runtime cap (orphan protection when the launcher dies); <= 0
  /// means none.
  SimTime max_run = 0;
};

/// What recovery reconstructed, mirrored into the node report
/// (RestartOutcome's fields, for a restarted process instead of a
/// restarted in-sim incarnation).
struct NodeRecovery {
  bool recovered = false;
  uint64_t snapshot_seq = 0;
  uint64_t replayed_commits = 0;
  uint64_t truncated_bytes = 0;
};

class Node {
 public:
  Node(scenario::ScenarioSpec spec, NodeOptions options);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Build everything (loop, transport, durable store + recovery, replica).
  /// Fails on invalid spec / port bind / corrupt durable state.
  Status Init();

  /// Serve until SIGTERM/SIGINT (or max_run), then write the report.
  Status Serve();

  /// The per-node report (valid any time after Init).
  Json Report() const;

  ReplicaBase* replica() { return replica_.get(); }
  TcpTransport* transport() { return transport_.get(); }
  EventLoop* loop() { return loop_.get(); }

 private:
  Status InitDurability();
  std::unique_ptr<ReplicaBase> MakeReplica();
  /// Node-level fault commands forwarded by the transport's control
  /// channel: Byzantine flags (the same SetByzantine path the sim engine
  /// uses), mode-switch requests, primary queries.
  void OnControl(const FaultCommand& command);
  /// This node's current belief about the primary id (per-protocol view
  /// resolution, mirroring the engine's ResolvePrimary).
  int CurrentPrimary() const;

  const scenario::ScenarioSpec spec_;
  const NodeOptions options_;
  ClusterOptions cluster_options_;

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<KeyStore> keystore_;
  std::unique_ptr<PosixMedium> medium_;
  std::unique_ptr<storage::FileDurableStore> store_;
  std::unique_ptr<ReplicaBase> replica_;
  NodeRecovery recovery_;
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_NODE_H_
