// The three workloads of the repository benchmark (README.md explains why
// each exists and which layers it loads):
//
//   lion-lone-tcp        Lion, c=m=1, six seemore_node processes, one
//                        closed-loop client in this process (0/0 echo)
//   peacock-echo4k-sim   Peacock, c=m=1, simulator, 32 clients, 4 KB/0 KB
//   dog-kv-failover-sim  Dog, c=m=1, simulator, 32 KV clients on their own
//                        keys, durable WAL, primary crash + WAL restart
//
// Every workload is driven from outside the program: the sim workloads
// through scenario::RunScenario and its hooks, the tcp one through
// rt::RunTcpScenario. Results are checked here, apart from the program's
// own verdicts, and every metric is a median over repeated runs.

#include <malloc.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "rt/launcher.h"
#include "scenario/builder.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "smr/kv_store.h"
#include "util/logging.h"
#include "util/rng.h"

namespace seemore {
namespace perfbench {
namespace {

using scenario::ScenarioBuilder;
using scenario::ScenarioSpec;

constexpr int kSimClients = 32;
/// Little's law for a closed loop: clients = throughput x mean latency,
/// within this relative tolerance.
constexpr double kLittleTolerance = 0.15;

/// Seed of repetition `rep` of a run seeded `seed`: a pure function of the
/// two, so a seed always reproduces the same inputs.
uint64_t RepSeed(uint64_t seed, int rep) {
  return seed * 1000003ULL + static_cast<uint64_t>(rep);
}

ScenarioSpec PaperSpec(const std::string& system, uint64_t seed) {
  Result<ScenarioSpec> spec = scenario::PaperSystemSpec(system, 1, 1, seed);
  SEEMORE_CHECK(spec.ok()) << spec.status().ToString();
  return *std::move(spec);
}

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

void CheckLittle(Checks& checks, int clients, double kreqs,
                 double mean_latency_ms) {
  const double expected = checks.Wrong("little-law") ? 2.0 * clients : clients;
  const double in_flight = kreqs * mean_latency_ms;  // kreq/s x ms = requests
  checks.Require("little-law",
                 std::abs(in_flight / expected - 1.0) <= kLittleTolerance,
                 Fmt("throughput x mean latency = %.3f requests, expected "
                     "%.0f",
                     in_flight, expected));
}

void CheckVerdicts(Checks& checks, const Status& agreement,
                   bool convergence_checked, const Status& convergence) {
  checks.Expect("agreement-verdict", agreement.ok(),
                "agreement: " + agreement.ToString());
  checks.Expect("convergence-verdict", convergence_checked && convergence.ok(),
                "convergence: " + convergence.ToString());
}

void Put(Metrics& metrics, const std::string& name, double value,
         const std::string& unit) {
  metrics[name] = Metric{value, unit};
}

void PutLayer(Metrics& metrics, const std::string& name, double value) {
  Put(metrics, name, value, LayerUnit(name));
}

// ---------------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------------

/// Operations and their expected results for the hook-driven clients.
class OpSource {
 public:
  virtual ~OpSource() = default;
  /// The next operation of client `client`.
  virtual Bytes Next(int client) = 0;
  /// Check the reply to `client`'s last operation; false on a mismatch.
  virtual bool Accept(int client, const Bytes& result) = 0;
  /// Name of the check Accept implements.
  virtual const char* check_name() const = 0;
};

/// The paper's x/y echo: x-byte requests, y-byte replies.
class EchoSource : public OpSource {
 public:
  EchoSource(uint32_t request_bytes, uint32_t reply_bytes, bool wrong)
      : request_bytes_(request_bytes),
        reply_bytes_(reply_bytes),
        expected_reply_(wrong ? reply_bytes + 1 : reply_bytes) {}

  Bytes Next(int) override { return MakeEcho(reply_bytes_, request_bytes_); }
  bool Accept(int, const Bytes& result) override {
    const KvReply reply = ParseKvReply(result);
    return reply.status == KvResult::kOk &&
           reply.value.size() == expected_reply_;
  }
  const char* check_name() const override { return "echo-replies"; }

 private:
  uint32_t request_bytes_;
  uint32_t reply_bytes_;
  size_t expected_reply_;
};

/// PUT/GET on keys each client owns. Because a client is closed-loop and
/// alone on its keys, every GET must return that client's last
/// acknowledged PUT to the key, or NOT_FOUND before the first one.
class KvSource : public OpSource {
 public:
  static constexpr int kKeysPerClient = 8;
  static constexpr size_t kValueBytes = 32;

  KvSource(uint64_t seed, int clients, bool wrong_reads, bool wrong_final)
      : wrong_reads_(wrong_reads), wrong_final_(wrong_final) {
    for (int c = 0; c < clients; ++c) {
      state_.emplace_back(seed ^ (0x9e37'79b9'7f4a'7c15ULL *
                                  static_cast<uint64_t>(c + 1)));
    }
  }

  static std::string Key(int client, int index) {
    return "c" + std::to_string(client) + "/k" + std::to_string(index);
  }

  Bytes Next(int client) override {
    ClientState& s = state_[static_cast<size_t>(client)];
    s.key = Key(client, static_cast<int>(s.rng.NextBounded(kKeysPerClient)));
    s.is_put = s.rng.NextBool(0.5);
    if (!s.is_put) return MakeGet(s.key);
    std::string value = "v" + std::to_string(client) + "." +
                        std::to_string(s.issued++) + ".";
    while (value.size() < kValueBytes) {
      value.push_back(static_cast<char>('a' + s.rng.NextBounded(26)));
    }
    s.value = value;
    s.in_flight[s.key] = value;
    return MakePut(s.key, value);
  }

  bool Accept(int client, const Bytes& result) override {
    ClientState& s = state_[static_cast<size_t>(client)];
    const KvReply reply = ParseKvReply(result);
    if (s.is_put) {
      s.in_flight.erase(s.key);
      if (reply.status != KvResult::kOk) return false;
      s.acked[s.key] = s.value;
      return true;
    }
    ++gets_;
    auto it = s.acked.find(s.key);
    if (it == s.acked.end()) {
      return reply.status == (wrong_reads_ ? KvResult::kOk
                                           : KvResult::kNotFound);
    }
    return reply.status == KvResult::kOk &&
           reply.value == (wrong_reads_ ? it->second + "x" : it->second);
  }

  /// After the drain: a fresh reader must see, for each key, the last
  /// acknowledged value or the one still in flight (NOT_FOUND only when
  /// neither exists).
  bool AcceptFinal(int client, const std::string& key,
                   const Bytes& result) const {
    const ClientState& s = state_[static_cast<size_t>(client)];
    const KvReply reply = ParseKvReply(result);
    auto acked = s.acked.find(key);
    auto pending = s.in_flight.find(key);
    if (acked == s.acked.end() && pending == s.in_flight.end()) {
      return reply.status == KvResult::kNotFound && !wrong_final_;
    }
    if (reply.status != KvResult::kOk) return false;
    const std::string suffix = wrong_final_ ? "x" : "";
    return (acked != s.acked.end() && reply.value == acked->second + suffix) ||
           (pending != s.in_flight.end() &&
            reply.value == pending->second + suffix);
  }

  const char* check_name() const override { return "kv-read-your-writes"; }
  uint64_t gets() const { return gets_; }

 private:
  struct ClientState {
    explicit ClientState(uint64_t seed) : rng(seed) {}
    Rng rng;
    uint64_t issued = 0;
    std::string key;
    std::string value;
    bool is_put = false;
    std::map<std::string, std::string> acked;
    std::map<std::string, std::string> in_flight;
  };

  bool wrong_reads_;
  bool wrong_final_;
  std::vector<ClientState> state_;
  uint64_t gets_ = 0;
};

/// Counters read at the two measure-window boundaries.
struct Snapshot {
  int64_t host_ns = 0;
  uint64_t events = 0;
  /// Per replica, including the CPU of incarnations a restart retired.
  std::vector<double> busy_ns;
  std::vector<uint64_t> executed;
  std::vector<uint64_t> batches;
  std::vector<uint64_t> view_changes;
  uint64_t media_bytes = 0;
  uint64_t media_syncs = 0;
  uint64_t retransmits = 0;
  NetCounters net;
  int primary = -1;
};

/// What one simulator repetition measured.
struct SimRep {
  double setup_s = 0.0;
  double cpu_us_per_req = 0.0;
  /// Latencies of the window's completions (ns), and the time from the
  /// window's first completion to its last.
  std::vector<int64_t> latencies;
  double completion_span_s = 0.0;
  double outage_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics layers;
};

/// A crash-primary in a spec's schedule is followed, this much later, by a
/// restart of the victim from its WAL.
constexpr SimTime kRestartAfter = Millis(500);

/// One RunScenario of a sim workload, driven by kSimClients closed-loop
/// clients added from the hooks.
class SimRepRunner {
 public:
  SimRepRunner(const ScenarioSpec& spec, OpSource& ops, KvSource* kv,
               Tracer& tracer, Checks& checks)
      : spec_(spec), ops_(ops), kv_(kv), tracer_(tracer), checks_(checks) {}

  SimRep Run() {
    const ScenarioSpec& spec = spec_;
    window_start_ = spec.plan.warmup;
    window_end_ = spec.plan.warmup + spec.plan.measure;

    scenario::ScenarioHooks hooks;
    hooks.on_start = [this](Cluster& cluster) { OnStart(cluster); };
    hooks.on_event = [this](Cluster& cluster,
                            const scenario::ScenarioEvent& event,
                            const Status&) { OnEvent(cluster, event); };
    hooks.on_finish = [this](Cluster& cluster) { OnFinish(cluster); };

    ScopedSpan rep_span(tracer_, "rep");
    tracer_.Begin("build");
    const CpuTimes cpu0 = CpuNow(RUSAGE_SELF);
    start_ns_ = HostNowNs();
    Result<scenario::ScenarioReport> report = RunScenario(spec, hooks);
    const CpuTimes cpu1 = CpuNow(RUSAGE_SELF);
    tracer_.End();  // drain
    SEEMORE_CHECK(report.ok()) << report.status().ToString();

    SimRep rep;
    rep.setup_s = static_cast<double>(build_end_ns_ - start_ns_) / 1e9;
    const double all_completed = static_cast<double>(
        std::max<uint64_t>(1, completed_ok_ + mismatches_ + reads_));
    rep.cpu_us_per_req = (cpu1.total() - cpu0.total()) * 1e6 / all_completed;

    // The measure window: completions in (warmup, warmup + measure], the
    // same window the engine's RunResult covers.
    std::vector<int64_t>& latencies = rep.latencies;
    std::vector<SimTime> times;
    double latency_sum = 0.0;
    for (const auto& [at, latency] : completions_) {
      if (at <= window_start_ || at > window_end_) continue;
      latencies.push_back(latency);
      times.push_back(at);
      latency_sum += static_cast<double>(latency);
    }
    // Kept for the pooled percentiles until the run ends: trimmed, so the
    // process peak RSS holds less of the benchmark's own samples.
    latencies.shrink_to_fit();
    const uint64_t window = latencies.size();
    const uint64_t expected_window =
        report->result.completed +
        (checks_.Wrong("engine-window-count") ? 1 : 0);
    checks_.Require("engine-window-count", window == expected_window,
                    Fmt("benchmark counted %.0f completions, engine %.0f",
                        static_cast<double>(window),
                        static_cast<double>(report->result.completed)));
    checks_.Expect("measure-window-nonempty", window >= 40,
                   "fewer than 40 completions in the measure window");
    if (window == 0) return rep;
    rep.completion_span_s =
        static_cast<double>(times.back() - times.front()) / 1e9;
    SimTime longest = times.front() - window_start_;
    for (size_t i = 1; i < times.size(); ++i) {
      longest = std::max(longest, times[i] - times[i - 1]);
    }
    longest = std::max(longest, window_end_ - times.back());
    rep.outage_ms = static_cast<double>(longest) / 1e6;
    CheckLittle(checks_, kSimClients,
                static_cast<double>(window) * 1e6 /
                    static_cast<double>(spec.plan.measure),
                latency_sum / static_cast<double>(window) / 1e6);
    CheckVerdicts(checks_, report->agreement, report->convergence_checked,
                  report->convergence);
    checks_.Require(ops_.check_name(), mismatches_ == 0,
                    Fmt("%.0f of %.0f replies did not match the expected "
                        "result",
                        static_cast<double>(mismatches_),
                        static_cast<double>(issued_)));
    checks_.Expect("ops-complete", issued_ == completed_ok_ + mismatches_,
                    Fmt("%.0f of %.0f operations never completed",
                        static_cast<double>(issued_ - completed_ok_ -
                                            mismatches_),
                        static_cast<double>(issued_)));

    rep.attempted = issued_ + reads_issued_;
    rep.failed = (issued_ - completed_ok_) + (reads_issued_ - reads_) +
                 bad_reads_;
    rep.layers = Layers(window);
    return rep;
  }

  /// Replica-to-replica payload bytes per request in the window.
  double R2rBytesPerReq() const { return r2r_bytes_per_req_; }

 private:
  void OnStart(Cluster& cluster) {
    build_end_ns_ = HostNowNs();
    tracer_.End();  // build
    tracer_.Begin("warmup");
    cluster_ = &cluster;
    retired_busy_.assign(static_cast<size_t>(cluster.n()), 0.0);
    for (int k = 0; k < kSimClients; ++k) {
      SimClient* client = cluster.AddClient();
      client->on_complete = [this](SimTime at, SimTime latency) {
        completions_.emplace_back(at, latency);
      };
      clients_.push_back(client);
    }
    for (int k = 0; k < kSimClients; ++k) Issue(k);
    cluster.sim().ScheduleAt(window_start_, [this] {
      tracer_.End();  // warmup
      tracer_.Begin("measure");
      at_start_ = Take();
    });
    cluster.sim().ScheduleAt(window_end_, [this] {
      at_end_ = Take();
      tracer_.End();  // measure
      tracer_.Begin("drain");
    });
  }

  void Issue(int k) {
    ++issued_;
    ++in_flight_;
    clients_[static_cast<size_t>(k)]->SubmitOne(
        ops_.Next(k), [this, k](const Bytes& result) {
          --in_flight_;
          if (ops_.Accept(k, result)) {
            ++completed_ok_;
          } else {
            ++mismatches_;
          }
          if (cluster_->sim().now() < window_end_) Issue(k);
        });
  }

  void OnEvent(Cluster& cluster, const scenario::ScenarioEvent& event) {
    if (event.kind != scenario::EventKind::kCrashPrimary) return;
    int victim = -1;
    for (int i = 0; i < cluster.n(); ++i) {
      if (cluster.replica(i)->crashed()) victim = i;
    }
    checks_.Expect("primary-crashed", victim >= 0,
                   "crash-primary crashed no replica");
    if (victim < 0) return;
    cluster.sim().Schedule(kRestartAfter, [this, &cluster, victim] {
      ScopedSpan span(tracer_, "restart");
      retired_busy_[static_cast<size_t>(victim)] += static_cast<double>(
          cluster.replica(victim)->cpu()->total_busy());
      const int64_t t0 = HostNowNs();
      Result<RestartOutcome> outcome = cluster.Restart(victim);
      restart_us_ = static_cast<double>(HostNowNs() - t0) / 1e3;
      checks_.Expect("restart-ok", outcome.ok(),
                     outcome.ok() ? "" : outcome.status().ToString());
      if (!outcome.ok()) return;
      replayed_commits_ = outcome->replayed_commits;
      checks_.Expect("restart-replays-wal", replayed_commits_ > 0,
                     Fmt("restart replayed %.0f WAL commits",
                         static_cast<double>(replayed_commits_)));
    });
  }

  void OnFinish(Cluster& cluster) {
    Simulator& sim = cluster.sim();
    const SimTime deadline = sim.now() + Seconds(5);
    while (in_flight_ > 0 && sim.now() < deadline) {
      sim.RunUntil(sim.now() + Millis(1));
    }
    if (kv_ != nullptr) VerifyReads(cluster);
  }

  /// Four fresh clients read every key once between them.
  void VerifyReads(Cluster& cluster) {
    ScopedSpan span(tracer_, "verify-reads");
    constexpr int kReaders = 4;
    std::vector<SimClient*> readers;
    for (int r = 0; r < kReaders; ++r) readers.push_back(cluster.AddClient());
    int slot = 0;
    for (int c = 0; c < kSimClients; ++c) {
      for (int j = 0; j < KvSource::kKeysPerClient; ++j) {
        const std::string key = KvSource::Key(c, j);
        ++reads_issued_;
        readers[static_cast<size_t>(slot++ % kReaders)]->SubmitOne(
            MakeGet(key), [this, c, key](const Bytes& result) {
              ++reads_;
              if (!kv_->AcceptFinal(c, key, result)) ++bad_reads_;
            });
      }
    }
    Simulator& sim = cluster.sim();
    const SimTime deadline = sim.now() + Seconds(5);
    while (reads_ < reads_issued_ && sim.now() < deadline) {
      sim.RunUntil(sim.now() + Millis(1));
    }
    checks_.Require("kv-final-reads",
                    reads_ == reads_issued_ && bad_reads_ == 0,
                    Fmt("%.0f final reads mismatched, %.0f unanswered",
                        static_cast<double>(bad_reads_),
                        static_cast<double>(reads_issued_ - reads_)));
  }

  Snapshot Take() const {
    Cluster& cluster = *cluster_;
    Snapshot s;
    s.host_ns = HostNowNs();
    s.events = cluster.sim().executed_events();
    for (int i = 0; i < cluster.n(); ++i) {
      const ReplicaBase* replica = cluster.replica(i);
      s.busy_ns.push_back(retired_busy_[static_cast<size_t>(i)] +
                          static_cast<double>(
                              cluster.replica(i)->cpu()->total_busy()));
      s.executed.push_back(replica->stats().requests_executed);
      s.batches.push_back(replica->stats().batches_committed);
      s.view_changes.push_back(replica->stats().view_changes_completed);
      if (storage::MemMedium* medium = cluster.medium(i)) {
        s.media_bytes += medium->bytes_appended();
        s.media_syncs += medium->sync_calls();
      }
      if (s.primary < 0 && !replica->crashed()) {
        s.primary = cluster.seemore(i)->current_primary();
      }
    }
    for (const SimClient* client : clients_) {
      s.retransmits += client->retransmissions();
    }
    s.net = cluster.net().counters();
    return s;
  }

  /// Largest per-replica increase of a counter over the window (a restarted
  /// replica's counters restart from zero, a survivor's span the window).
  static double MaxDelta(const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b) {
    int64_t best = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      best = std::max(best, static_cast<int64_t>(b[i]) -
                                static_cast<int64_t>(a[i]));
    }
    return static_cast<double>(best);
  }

  Metrics Layers(uint64_t window) {
    const Snapshot& a = at_start_;
    const Snapshot& b = at_end_;
    const double reqs = static_cast<double>(window);
    // The engine zeroes the network counters right after the window-start
    // snapshot, so the end snapshot alone covers the window.
    const NetCounters& net = b.net;
    const double instances = MaxDelta(a.batches, b.batches);
    r2r_bytes_per_req_ =
        static_cast<double>(net.replica_to_replica_bytes) / reqs;
    double busy = 0.0;
    for (size_t i = 0; i < a.busy_ns.size(); ++i) {
      busy += b.busy_ns[i] - a.busy_ns[i];
    }
    const size_t primary = static_cast<size_t>(std::max(a.primary, 0));
    Metrics m;
    PutLayer(m, "consensus.r2r_msgs_per_instance",
             static_cast<double>(net.replica_to_replica_messages) / instances);
    PutLayer(m, "consensus.reqs_per_batch",
             MaxDelta(a.executed, b.executed) / instances);
    PutLayer(m, "consensus.view_changes",
             MaxDelta(a.view_changes, b.view_changes));
    PutLayer(m, "consensus.client_retransmits",
             static_cast<double>(b.retransmits));
    PutLayer(m, "net.wire_bytes_per_req",
             static_cast<double>(net.wire_bytes) / reqs);
    PutLayer(m, "net.sim_busy_us_per_req", busy / 1e3 / reqs);
    PutLayer(m, "net.primary_busy_share",
             (b.busy_ns[primary] - a.busy_ns[primary]) / busy);
    const double events = static_cast<double>(b.events - a.events);
    PutLayer(m, "sim.events_per_req", events / reqs);
    PutLayer(m, "sim.host_ns_per_event",
             static_cast<double>(b.host_ns - a.host_ns) / events);
    PutLayer(m, "storage.bytes_per_req",
             static_cast<double>(b.media_bytes - a.media_bytes) / reqs);
    PutLayer(m, "storage.syncs_per_req",
             static_cast<double>(b.media_syncs - a.media_syncs) / reqs);
    PutLayer(m, "storage.restart_us", restart_us_);
    PutLayer(m, "storage.replayed_commits",
             static_cast<double>(replayed_commits_));
    return m;
  }

  const ScenarioSpec& spec_;
  OpSource& ops_;
  KvSource* kv_;
  Tracer& tracer_;
  Checks& checks_;

  Cluster* cluster_ = nullptr;
  std::vector<SimClient*> clients_;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  int64_t start_ns_ = 0;
  int64_t build_end_ns_ = 0;
  std::vector<std::pair<SimTime, SimTime>> completions_;
  uint64_t issued_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t completed_ok_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t reads_issued_ = 0;
  uint64_t reads_ = 0;
  uint64_t bad_reads_ = 0;
  std::vector<double> retired_busy_;
  Snapshot at_start_;
  Snapshot at_end_;
  double restart_us_ = 0.0;
  uint64_t replayed_commits_ = 0;
  double r2r_bytes_per_req_ = 0.0;
};

/// The first repetition only warms the process up (heap growth, cold
/// caches): its operations and checks count, its figures do not.
/// Throughput and latency percentiles pool the other repetitions' measure
/// windows; the other metrics are medians over them. Throughput
/// counts completions between each window's first and last one: the
/// window's completion count alone moves in whole batches.
WorkloadResult Summarize(const std::vector<SimRep>& all) {
  WorkloadResult result;
  for (const SimRep& rep : all) {
    result.attempted += rep.attempted;
    result.failed += rep.failed;
  }
  const std::vector<SimRep> reps(all.begin() + 1, all.end());
  const auto median_of = [&](double SimRep::*field) {
    std::vector<double> values;
    for (const SimRep& rep : reps) values.push_back(rep.*field);
    return Median(values);
  };
  std::vector<int64_t> latencies;
  double intervals = 0.0;
  double span_s = 0.0;
  for (const SimRep& rep : reps) {
    latencies.insert(latencies.end(), rep.latencies.begin(),
                     rep.latencies.end());
    intervals += static_cast<double>(rep.latencies.size()) - 1.0;
    span_s += rep.completion_span_s;
  }
  std::sort(latencies.begin(), latencies.end());
  Metrics& e = result.end_to_end;
  Put(e, "throughput_kreqs", intervals / span_s / 1e3, "kreq/s");
  Put(e, "p50_ms", SortedPercentile(latencies, 50.0) / 1e6, "ms");
  Put(e, "p99_ms", SortedPercentile(latencies, 99.0) / 1e6, "ms");
  Put(e, "outage_ms", median_of(&SimRep::outage_ms), "ms");
  Put(e, "cpu_us_per_req", median_of(&SimRep::cpu_us_per_req), "us/req");
  Put(e, "setup_s", median_of(&SimRep::setup_s), "s");
  Put(e, "peak_rss_mb", PeakRssMb(RUSAGE_SELF), "MB");

  for (const auto& [name, metric] : reps.front().layers) {
    std::vector<double> values;
    for (const SimRep& rep : reps) values.push_back(rep.layers.at(name).value);
    PutLayer(result.per_layer, name, Median(values));
  }
  return result;
}

/// Repetitions per run, the warm-up one included: fixed by --seconds alone
/// (never by host speed), so the simulated-time metrics of a seed are
/// identical on every run.
int SimReps(int seconds) { return 1 + std::max(3, 2 * seconds); }

ProbeShape EchoShape(int batch, uint32_t request_bytes) {
  ProbeShape shape;
  for (int i = 0; i < batch; ++i) {
    shape.ops.push_back(MakeEcho(0, request_bytes));
  }
  return shape;
}

}  // namespace

WorkloadResult RunPeacockEchoSim(const Options& options, Tracer& tracer,
                                 Checks& checks) {
  constexpr uint32_t kRequestBytes = 4 * 1024;
  std::vector<SimRep> reps;
  double min_r2r_bytes = -1.0;
  const int count = SimReps(options.seconds);
  for (int rep = 0; rep < count; ++rep) {
    const ScenarioSpec spec =
        ScenarioBuilder(PaperSpec("Peacock", RepSeed(options.seed, rep)))
            .Name("peacock-echo4k-sim")
            .Clients(0)
            .Warmup(Millis(100))
            .Measure(Millis(500))
            .Drain(Millis(50))
            .CheckConvergence()
            .spec();
    EchoSource ops(kRequestBytes, 0, checks.Wrong("echo-replies"));
    SimRepRunner runner(spec, ops, nullptr, tracer, checks);
    reps.push_back(runner.Run());
    min_r2r_bytes = min_r2r_bytes < 0
                        ? runner.R2rBytesPerReq()
                        : std::min(min_r2r_bytes, runner.R2rBytesPerReq());
  }
  // Peacock's proposal carries every request to the 3m other proxies.
  const double floor = 3.0 * kRequestBytes *
                       (checks.Wrong("r2r-bytes-floor") ? 2.0 : 1.0);
  checks.Require("r2r-bytes-floor", min_r2r_bytes >= floor,
                 Fmt("%.0f replica-to-replica bytes per request, expected "
                     ">= %.0f",
                     min_r2r_bytes, floor));
  WorkloadResult result = Summarize(reps);
  if (options.trace) {
    RunProbes(EchoShape(8, kRequestBytes), tracer, result.per_layer);
  }
  return result;
}

WorkloadResult RunDogKvFailoverSim(const Options& options, Tracer& tracer,
                                   Checks& checks) {
  std::vector<SimRep> reps;
  ProbeShape shape;
  const int count = SimReps(options.seconds);
  for (int rep = 0; rep < count; ++rep) {
    const uint64_t seed = RepSeed(options.seed, rep);
    // Period 128, not the paper's 1024: at 1024 the crash falls before the
    // first stable checkpoint and the restart replays the whole log.
    const ScenarioSpec spec = ScenarioBuilder(PaperSpec("Dog", seed))
                                  .Name("dog-kv-failover-sim")
                                  .Clients(0)
                                  .Durability(/*fsync_interval=*/8)
                                  .CheckpointPeriod(128)
                                  .Warmup(Millis(150))
                                  .Measure(Millis(1000))
                                  .CrashPrimaryAt(Millis(450))
                                  .Drain(Millis(200))
                                  .CheckConvergence()
                                  .spec();
    KvSource ops(seed, kSimClients, checks.Wrong("kv-read-your-writes"),
                 checks.Wrong("kv-final-reads"));
    if (shape.ops.empty()) {
      KvSource sample(seed, kSimClients, false, false);
      for (int k = 0; k < 8; ++k) shape.ops.push_back(sample.Next(k));
    }
    // A trimmed heap per repetition: the restart leaves fragmentation that
    // differs by seed, and untrimmed the process peak RSS follows it (12%
    // spread over seeds against 6% trimmed). Peacock is not trimmed: its
    // 150 MB per repetition would be faulted in again each time, which
    // made its CPU and set-up figures noisier.
    malloc_trim(0);
    SimRepRunner runner(spec, ops, &ops, tracer, checks);
    reps.push_back(runner.Run());
    checks.Expect("kv-gets-issued", ops.gets() > 0, "the run issued no GET");
    checks.Expect("failover-view-change",
                  reps.back().layers.at("consensus.view_changes").value >= 1,
                  "no view change followed the primary crash");
  }
  WorkloadResult result = Summarize(reps);
  if (options.trace) RunProbes(shape, tracer, result.per_layer);
  return result;
}

// ---------------------------------------------------------------------------
// Real processes
// ---------------------------------------------------------------------------

namespace {

int64_t NetField(const Json& net, const char* key) {
  const Json* field = net.Find(key);
  return field != nullptr && field->is_int() ? field->AsInt() : 0;
}

int64_t NodeStat(const Json& node, const char* key) {
  const Json* stats = node.Find("stats");
  if (stats == nullptr) return 0;
  const Json* field = stats->Find(key);
  return field != nullptr && field->is_int() ? field->AsInt() : 0;
}

double NodeNumber(const Json& node, const char* key) {
  const Json* field = node.Find(key);
  if (field == nullptr) return 0.0;
  return field->is_int() ? static_cast<double>(field->AsInt())
                         : field->AsDouble();
}

}  // namespace

WorkloadResult RunLionLoneTcp(const Options& options, Tracer& tracer,
                              Checks& checks) {
  // Launches per run and the measure window of each, both fixed by
  // --seconds; every launch pays spawn, HELLO mesh and readiness again,
  // which is what setup_s takes the median of.
  const int launches = std::clamp(options.seconds * 2 / 3, 3, 16);
  const SimTime measure = std::max<SimTime>(
      Millis(500), Millis(options.seconds * 1000 / launches - 650));

  std::vector<double> p50, p99, kreqs, cpu, setup;
  std::map<std::string, std::vector<double>> layers;
  WorkloadResult result;
  for (int k = 0; k < launches; ++k) {
    ScenarioSpec spec =
        ScenarioBuilder(PaperSpec("Lion", RepSeed(options.seed, k)))
            .Name("lion-lone-tcp")
            .Backend(scenario::BackendKind::kTcp)
            .Echo(0, 0)
            .Clients(1)
            .Batching(1, 1)
            .Warmup(Millis(300))
            .Measure(measure)
            .Drain(Millis(100))
            .CheckConvergence()
            .spec();
    rt::LauncherOptions launch;
    launch.work_dir = options.work_root + "/tcp-" +
                      std::to_string(static_cast<long>(getpid())) + "-" +
                      std::to_string(k);
    launch.base_port = static_cast<uint16_t>(18500 + 10 * (k % 8));

    const CpuTimes self0 = CpuNow(RUSAGE_SELF);
    const CpuTimes nodes0 = CpuNow(RUSAGE_CHILDREN);
    tracer.Begin("launch");
    const int64_t t0 = HostNowNs();
    Result<rt::TcpRunReport> report = rt::RunTcpScenario(spec, launch);
    const int64_t t1 = HostNowNs();
    tracer.End();
    if (!report.ok()) {
      std::fprintf(stderr, "lion-lone-tcp: launch %d failed: %s\n", k,
                   report.status().ToString().c_str());
      return WorkloadResult{};
    }
    const CpuTimes self1 = CpuNow(RUSAGE_SELF);
    const CpuTimes nodes1 = CpuNow(RUSAGE_CHILDREN);

    // Whole-run ledgers: every node report covers the process lifetime, so
    // per-request figures divide by every request the run executed, as
    // counted by the node that committed the most instances (a backup that
    // caught up by state transfer did not commit the instances it skipped).
    int64_t executed = 0, batches = 0, view_changes = 0;
    int64_t node_sent = 0, node_received = 0;
    double busy_ms = 0.0, primary_busy_ms = 0.0;
    for (const Json& node : report->nodes) {
      const int64_t node_batches = NodeStat(node, "batches_committed");
      if (node_batches > batches) {
        batches = node_batches;
        executed = NodeStat(node, "requests_executed");
      }
      view_changes += NodeStat(node, "view_changes_completed");
      if (const Json* net = node.Find("net")) {
        node_sent += NetField(*net, "messages_sent");
        node_received += NetField(*net, "messages_received");
      }
      busy_ms += NodeNumber(node, "cpu_busy_ms");
      if (NodeNumber(node, "id") == 0.0) {
        primary_busy_ms = NodeNumber(node, "cpu_busy_ms");
      }
    }
    const RunResult& run = report->result;
    checks.Expect("requests-executed", executed > 0 && run.completed > 0,
                  "the cluster executed nothing");
    if (executed == 0 || run.completed == 0) return WorkloadResult{};
    const double reqs = static_cast<double>(executed);
    const Json& net = report->net;
    // The merged ledger is the launcher's transport plus every node; what
    // the launcher sent is the client's request copies (and HELLOs the
    // nodes also count as received), so removing it leaves the replicas'
    // own traffic.
    const int64_t launcher_sent = NetField(net, "messages_sent") - node_sent;
    const double r2r = static_cast<double>(node_received - launcher_sent) /
                       static_cast<double>(batches);

    const int n = spec.ResolvedConfig().n();
    const double expected_r2r =
        3.0 * (n - 1) + (checks.Wrong("lion-r2r-per-instance") ? 1.0 : 0.0);
    checks.Require("lion-r2r-per-instance", std::abs(r2r - expected_r2r) <= 0.5,
                   Fmt("%.3f replica-to-replica messages per instance, "
                       "expected %.0f",
                       r2r, expected_r2r));
    checks.Expect("one-request-per-instance", executed == batches,
                   Fmt("%.0f requests over %.0f committed instances", reqs,
                       static_cast<double>(batches)));
    CheckLittle(checks, 1, run.throughput_kreqs, run.mean_latency_ms);
    CheckVerdicts(checks, report->agreement, report->convergence_checked,
                  report->convergence);

    // A tcp operation is one transmission of a request: the requests that
    // completed in the window, plus every retransmission, i.e. a
    // transmission the client gave up on after the spec's 100 ms timeout.
    result.attempted += run.completed + run.retransmissions;
    result.failed += run.retransmissions;
    p50.push_back(run.p50_latency_ms);
    p99.push_back(run.p99_latency_ms);
    kreqs.push_back(run.throughput_kreqs);
    const double cpu_s = (self1.total() - self0.total()) +
                         (nodes1.total() - nodes0.total());
    cpu.push_back(cpu_s * 1e6 / reqs);
    setup.push_back(static_cast<double>(t1 - t0) / 1e9 -
                    run.wall_time_ms / 1e3);

    const auto per_req = [&](const char* key) {
      return static_cast<double>(NetField(net, key)) / reqs;
    };
    const double writevs =
        static_cast<double>(NetField(net, "writev_syscalls"));
    layers["rt.frames_per_req"].push_back(per_req("frames_sent"));
    layers["rt.bytes_per_req"].push_back(per_req("bytes_sent"));
    layers["rt.read_calls_per_req"].push_back(per_req("read_syscalls"));
    layers["rt.writev_calls_per_req"].push_back(per_req("writev_syscalls"));
    layers["rt.frames_per_writev"].push_back(
        static_cast<double>(NetField(net, "frames_sent")) / writevs);
    layers["rt.rx_copied_bytes_per_req"].push_back(per_req("rx_bytes_copied"));
    layers["rt.sys_cpu_us_per_req"].push_back(
        (nodes1.sys_s - nodes0.sys_s) * 1e6 / reqs);
    layers["rt.user_cpu_us_per_req"].push_back(
        (nodes1.user_s - nodes0.user_s) * 1e6 / reqs);
    layers["rt.dial_failures"].push_back(
        static_cast<double>(NetField(net, "connection_failures")));
    layers["consensus.r2r_msgs_per_instance"].push_back(r2r);
    layers["consensus.reqs_per_batch"].push_back(
        reqs / static_cast<double>(batches));
    layers["consensus.view_changes"].push_back(
        static_cast<double>(view_changes));
    layers["consensus.client_retransmits"].push_back(
        static_cast<double>(run.retransmissions));
    layers["net.sim_busy_us_per_req"].push_back(busy_ms * 1e3 / reqs);
    layers["net.primary_busy_share"].push_back(primary_busy_ms / busy_ms);
  }

  Metrics& e = result.end_to_end;
  Put(e, "throughput_kreqs", Median(kreqs), "kreq/s");
  Put(e, "p50_ms", Median(p50), "ms");
  Put(e, "p99_ms", Median(p99), "ms");
  // No fault is injected and the launcher keeps no completion times; for
  // one closed-loop client the gap between completions is the next
  // request's latency, so the launcher's highest percentile stands in.
  Put(e, "outage_ms", Median(p99), "ms");
  Put(e, "cpu_us_per_req", Median(cpu), "us/req");
  Put(e, "setup_s", Median(setup), "s");
  Put(e, "peak_rss_mb",
      std::max(PeakRssMb(RUSAGE_SELF), PeakRssMb(RUSAGE_CHILDREN)), "MB");

  for (const auto& [name, values] : layers) {
    PutLayer(result.per_layer, name, Median(values));
  }
  if (options.trace) RunProbes(EchoShape(1, 0), tracer, result.per_layer);
  return result;
}

}  // namespace perfbench
}  // namespace seemore
