#include "rt/launcher.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "harness/policies.h"
#include "rt/event_loop.h"
#include "rt/posix_medium.h"
#include "rt/tcp_transport.h"
#include "smr/client.h"

namespace seemore {
namespace rt {
namespace {

std::string SelfDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Internal("cannot write " + path);
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return Status::Ok();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return Status::NotFound("cannot read " + path);
  std::string text;
  char buf[64 * 1024];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) text.append(buf, n);
  std::fclose(in);
  return text;
}

void RemoveTree(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir != nullptr) {
    while (dirent* entry = readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st{};
      if (lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        unlink(child.c_str());
      }
    }
    closedir(dir);
  }
  rmdir(path.c_str());
}

void SleepMillis(int ms) {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1000000L};
  nanosleep(&ts, nullptr);
}

/// One node process slot (indexed by replica id across incarnations).
struct Child {
  int id = 0;
  pid_t pid = -1;
  bool alive = false;
  std::string data_dir;     // empty when durability is off
  std::string report_path;
};

class Launcher {
 public:
  Launcher(const scenario::ScenarioSpec& spec, const LauncherOptions& options)
      : spec_(spec), options_(options), config_(spec.ResolvedConfig()) {}

  ~Launcher() {
    clients_.clear();  // clients reference transport/loop
    transport_.reset();
    loop_.reset();
    KillAll(SIGKILL);
    if (!work_dir_.empty() && !options_.keep_work_dir) RemoveTree(work_dir_);
  }

  Result<TcpRunReport> Run();

 private:
  /// Receives CONTROL replies (kPrimaryReply) addressed to the launcher's
  /// fault-controller principal.
  struct ControlSink : MessageHandler {
    explicit ControlSink(Launcher* launcher) : launcher(launcher) {}
    void OnMessage(PrincipalId from, Payload payload) override {
      launcher->OnControlReply(from, std::move(payload));
    }
    Launcher* launcher;
  };

  Status Setup();
  Status SpawnChild(Child& child);
  void KillChild(Child& child);
  void KillAll(int sig);
  Status AwaitCluster();
  void ScheduleRun();
  void ApplyScheduledEvent(const scenario::ScenarioEvent& event);
  /// Close the primary query in flight: kill the plurality answer (skipped
  /// when nobody answered), or with a non-empty `skip_reason` record the
  /// event as skipped for that reason.
  void FinishCrashPrimary(const std::string& skip_reason);
  Status TamperWal(const scenario::ScenarioEvent& event);
  /// Send one fault command over the control channel to a single node /
  /// every live node.
  void SendControl(int replica, const FaultCommand& command);
  void BroadcastControl(const FaultCommand& command);
  void OnControlReply(PrincipalId from, Payload payload);
  void ReapAll();
  void CollectReports(TcpRunReport& report);
  void CheckInvariants(TcpRunReport& report);
  void Note(const std::string& line) {
    if (options_.verbose) std::fprintf(stderr, "[launcher] %s\n", line.c_str());
  }

  const scenario::ScenarioSpec& spec_;
  const LauncherOptions options_;
  const ClusterConfig config_;

  std::string node_binary_;
  std::string work_dir_;
  std::string spec_path_;
  std::vector<Child> children_;

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<KeyStore> keystore_;
  std::vector<std::unique_ptr<SimClient>> clients_;

  std::vector<scenario::AppliedEvent> applied_;
  /// Replicas the schedule has turned Byzantine: their reports are excluded
  /// from the agreement and convergence checks (a faulty node's digests are
  /// allowed to lie), mirroring the sim engine's ScheduleState.byzantine.
  std::set<int> byzantine_;
  /// Per-replica tallies of kPrimaryReply answers for an in-flight
  /// crash-primary event (empty when none is pending).
  std::vector<int> primary_votes_;
  /// Answers (including "no primary known") still awaited for that query,
  /// and its number: a deadline timer only closes the query it was armed
  /// for.
  int primary_replies_pending_ = 0;
  uint64_t primary_query_ = 0;
  ControlSink control_sink_{this};
  SimTime t0_ = 0;
  SimTime measure_start_ = 0;
  SimTime measure_end_ = 0;
};

Status Launcher::Setup() {
  node_binary_ = options_.node_binary.empty() ? SelfDir() + "/seemore_node"
                                              : options_.node_binary;
  if (access(node_binary_.c_str(), X_OK) != 0) {
    return Status::NotFound("node binary not executable: " + node_binary_);
  }
  if (options_.work_dir.empty()) {
    char tmpl[] = "/tmp/seemore-rt-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      return Status::Internal("mkdtemp failed");
    }
    work_dir_ = tmpl;
  } else {
    work_dir_ = options_.work_dir;
    if (mkdir(work_dir_.c_str(), 0755) < 0 && errno != EEXIST) {
      return Status::Internal("cannot create work dir " + work_dir_);
    }
  }
  spec_path_ = work_dir_ + "/spec.json";
  return WriteTextFile(spec_path_, spec_.ToJsonText());
}

Status Launcher::SpawnChild(Child& child) {
  std::vector<std::string> args;
  args.push_back(node_binary_);
  args.push_back("--spec=" + spec_path_);
  args.push_back("--id=" + std::to_string(child.id));
  args.push_back("--base-port=" + std::to_string(options_.base_port));
  args.push_back("--report=" + child.report_path);
  if (!child.data_dir.empty()) args.push_back("--data-dir=" + child.data_dir);
  // Orphan protection: the whole run plus a generous margin.
  const SimTime total = spec_.plan.warmup + spec_.plan.measure +
                        spec_.plan.drain + Seconds(120);
  args.push_back("--max-run-ms=" + std::to_string(total / kNanosPerMilli));

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    execv(node_binary_.c_str(), argv.data());
    _exit(127);  // exec failed; nothing sane to do in the child
  }
  child.pid = pid;
  child.alive = true;
  Note("spawned node " + std::to_string(child.id) + " pid " +
       std::to_string(pid));
  return Status::Ok();
}

void Launcher::KillChild(Child& child) {
  if (!child.alive) return;
  kill(child.pid, SIGKILL);
  waitpid(child.pid, nullptr, 0);
  child.alive = false;
}

void Launcher::KillAll(int sig) {
  for (Child& child : children_) {
    if (!child.alive) continue;
    kill(child.pid, sig);
    if (sig == SIGKILL) {
      waitpid(child.pid, nullptr, 0);
      child.alive = false;
    }
  }
}

Status Launcher::AwaitCluster() {
  const SimTime deadline = loop_->Now() + options_.connect_timeout;
  while (true) {
    bool all = true;
    for (int r = 0; r < config_.n(); ++r) {
      if (!transport_->ConnectedTo(r)) {
        all = false;
        break;
      }
    }
    if (all) return Status::Ok();
    if (loop_->Now() >= deadline) {
      return Status::Unavailable("cluster did not come up within timeout");
    }
    loop_->Run(Millis(25));
  }
}

void Launcher::ScheduleRun() {
  t0_ = loop_->Now();
  measure_start_ = t0_ + spec_.plan.warmup;

  loop_->ScheduleAfter(spec_.plan.warmup, [this] {
    for (auto& client : clients_) client->ResetStats();
    measure_start_ = loop_->Now();  // honest real-time window start
  });

  for (const scenario::ScenarioEvent& event : spec_.schedule) {
    const SimTime at = event.at < 0 ? 0 : event.at;
    loop_->ScheduleAfter(at, [this, event] { ApplyScheduledEvent(event); });
  }

  loop_->ScheduleAfter(spec_.plan.warmup + spec_.plan.measure, [this] {
    measure_end_ = loop_->Now();
    for (auto& client : clients_) client->Stop();
  });

  loop_->ScheduleAfter(spec_.plan.warmup + spec_.plan.measure +
                           spec_.plan.drain,
                       [this] { loop_->Stop(); });
}

void Launcher::SendControl(int replica, const FaultCommand& command) {
  transport_->Send(kFaultControllerId, replica,
                   Payload(EncodeFaultCommandBody(command)));
}

void Launcher::BroadcastControl(const FaultCommand& command) {
  for (const Child& child : children_) {
    if (child.alive) SendControl(child.id, command);
  }
}

void Launcher::OnControlReply(PrincipalId from, Payload payload) {
  Result<FaultCommand> command =
      DecodeFaultCommand(payload.data(), payload.size());
  if (!command.ok()) {
    Note("bad control reply from " + std::to_string(from) + ": " +
         command.status().ToString());
    return;
  }
  if (command->kind != ControlKind::kPrimaryReply || primary_votes_.empty()) {
    return;
  }
  const int primary = static_cast<int>(command->value) - 1;
  if (primary >= 0 && primary < config_.n()) {
    primary_votes_[static_cast<size_t>(primary)] += 1;
  }
  // Decide as soon as every node asked has answered; the deadline timer
  // covers nodes that never do.
  if (--primary_replies_pending_ <= 0) FinishCrashPrimary("");
}

Status Launcher::TamperWal(const scenario::ScenarioEvent& event) {
  Child& child = children_[static_cast<size_t>(event.replica)];
  if (child.alive) {
    return Status::FailedPrecondition("wal tampering target is not crashed");
  }
  if (child.data_dir.empty()) {
    return Status::FailedPrecondition("wal tampering requires durability");
  }
  // Same semantics as Cluster::TruncateWalTail / CorruptWalTail, applied to
  // the dead process's on-disk WAL through the same medium type the node
  // itself writes with.
  PosixMedium medium(child.data_dir);
  SEEMORE_RETURN_IF_ERROR(medium.status());
  const std::vector<std::string> segments = medium.List("wal-");
  if (segments.empty()) {
    return Status::FailedPrecondition("no wal segments to tamper");
  }
  const std::string& last = segments.back();
  SEEMORE_ASSIGN_OR_RETURN(uint64_t size, medium.SizeOf(last));
  if (event.kind == scenario::EventKind::kTruncateLog) {
    const uint64_t bytes_from_end = static_cast<uint64_t>(event.arg);
    const uint64_t cut = bytes_from_end >= size ? 0 : size - bytes_from_end;
    return medium.TruncateTo(last, cut);
  }
  if (size == 0) return Status::FailedPrecondition("empty wal segment");
  const uint64_t offset_from_end = static_cast<uint64_t>(event.arg);
  const uint64_t offset =
      offset_from_end >= size ? 0 : size - 1 - offset_from_end;
  // PosixMedium has no FlipBit (real disks don't corrupt on request);
  // flip the bit directly in the segment file.
  const std::string path = child.data_dir + "/" + last;
  const int fd = open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return Status::Internal("cannot open " + path);
  uint8_t byte = 0;
  if (pread(fd, &byte, 1, static_cast<off_t>(offset)) != 1) {
    close(fd);
    return Status::Internal("cannot read " + path);
  }
  byte ^= 1u;
  const bool wrote = pwrite(fd, &byte, 1, static_cast<off_t>(offset)) == 1;
  close(fd);
  if (!wrote) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

void Launcher::ApplyScheduledEvent(const scenario::ScenarioEvent& event) {
  using scenario::EventKind;
  scenario::AppliedEvent applied;
  applied.at = loop_->Now() - t0_;
  switch (event.kind) {
    case EventKind::kCrash:
    case EventKind::kPowerLoss: {
      // A SIGKILL is both: the process loses its memory, the data dir keeps
      // whatever reached the filesystem.
      Child& child = children_[static_cast<size_t>(event.replica)];
      KillChild(child);
      applied.description =
          (event.kind == EventKind::kCrash
               ? "crash replica " + std::to_string(child.id)
               : "power loss at replica " + std::to_string(child.id)) +
          " (SIGKILL)";
      break;
    }
    case EventKind::kRecover:
    case EventKind::kRestart: {
      Child& child = children_[static_cast<size_t>(event.replica)];
      if (child.alive) {
        applied.description = "restart skipped: replica " +
                              std::to_string(child.id) + " is alive";
        break;
      }
      const Status spawned = SpawnChild(child);
      applied.description =
          spawned.ok()
              ? "respawn replica " + std::to_string(child.id) +
                    (child.data_dir.empty() ? " (fresh)"
                                            : " (durable data dir)")
              : "respawn failed: " + spawned.ToString();
      break;
    }
    case EventKind::kTruncateLog:
    case EventKind::kCorruptLog: {
      const Status status = TamperWal(event);
      applied.description =
          (event.kind == EventKind::kTruncateLog
               ? "truncate replica " + std::to_string(event.replica) +
                     "'s wal tail by " + std::to_string(event.arg) + " bytes"
               : "flip a bit " + std::to_string(event.arg) +
                     " bytes before the end of replica " +
                     std::to_string(event.replica) + "'s wal") +
          (status.ok() ? "" : " (" + status.ToString() + ")");
      break;
    }
    case EventKind::kByzantine: {
      FaultCommand command;
      command.kind = ControlKind::kSetByzantine;
      command.replica = event.replica;
      command.byz_flags = event.byz_flags;
      SendControl(event.replica, command);
      if (event.byz_flags != kByzNone) {
        byzantine_.insert(event.replica);
      } else {
        byzantine_.erase(event.replica);
      }
      applied.description = "replica " + std::to_string(event.replica) +
                            " turns Byzantine (" +
                            scenario::ByzFlagsToken(event.byz_flags) + ")";
      break;
    }
    case EventKind::kSwitch: {
      FaultCommand command;
      command.kind = ControlKind::kSwitchMode;
      command.mode = static_cast<uint8_t>(event.target_mode);
      // Broadcast: each node checks whether it is the switch authority.
      BroadcastControl(command);
      applied.description = std::string("switch mode to ") +
                            scenario::SeeMoReModeToken(event.target_mode);
      break;
    }
    case EventKind::kPartitionClouds: {
      FaultCommand command;
      command.kind = ControlKind::kPartition;
      BroadcastControl(command);
      applied.description =
          "partition the private cloud from the public cloud";
      break;
    }
    case EventKind::kHealClouds: {
      FaultCommand command;
      command.kind = ControlKind::kHeal;
      BroadcastControl(command);
      applied.description = "heal the cross-cloud partition";
      break;
    }
    case EventKind::kCutLink:
    case EventKind::kRestoreLink: {
      const bool cut = event.kind == EventKind::kCutLink;
      FaultCommand command;
      command.kind = cut ? ControlKind::kCutLink : ControlKind::kRestoreLink;
      command.from = event.replica;
      command.to = event.peer;
      // Both endpoints (and everyone else, harmlessly) learn of the cut, so
      // the direction is enforced at the sender and the receiver.
      BroadcastControl(command);
      applied.description = std::string(cut ? "cut" : "restore") +
                            " the directed link " +
                            std::to_string(event.replica) + " -> " +
                            std::to_string(event.peer);
      break;
    }
    case EventKind::kShapeLink: {
      FaultCommand command;
      command.kind = ControlKind::kShapeLink;
      command.from = event.replica;
      command.to = event.peer;
      command.delay_us = static_cast<uint64_t>(event.delay / kNanosPerMicro);
      command.jitter_us =
          static_cast<uint64_t>(event.jitter / kNanosPerMicro);
      command.drop_ppm = static_cast<uint32_t>(event.arg);
      BroadcastControl(command);
      applied.description =
          "shape the directed link " + std::to_string(event.replica) +
          " -> " + std::to_string(event.peer) + " (+" +
          std::to_string(event.delay / kNanosPerMicro) + "us delay, " +
          std::to_string(event.jitter / kNanosPerMicro) + "us jitter, " +
          std::to_string(event.arg) + "ppm drop)";
      break;
    }
    case EventKind::kCrashPrimary: {
      // Nobody here knows the view; ask every live node over the control
      // channel and kill the plurality answer once all of them replied, or
      // at the deadline with whatever answers arrived.
      if (!primary_votes_.empty()) {
        FinishCrashPrimary("a newer crash-primary event superseded it");
      }
      primary_votes_.assign(static_cast<size_t>(config_.n()), 0);
      primary_replies_pending_ = 0;
      for (const Child& child : children_) {
        if (child.alive) ++primary_replies_pending_;
      }
      const uint64_t query_id = ++primary_query_;
      FaultCommand query;
      query.kind = ControlKind::kQueryPrimary;
      BroadcastControl(query);
      loop_->ScheduleAfter(Millis(300), [this, query_id] {
        if (query_id == primary_query_ && !primary_votes_.empty()) {
          FinishCrashPrimary("");
        }
      });
      return;  // the decision records the applied event
    }
  }
  Note(applied.description);
  applied_.push_back(std::move(applied));
}

void Launcher::FinishCrashPrimary(const std::string& skip_reason) {
  scenario::AppliedEvent applied;
  applied.at = loop_->Now() - t0_;
  if (!skip_reason.empty()) {
    primary_votes_.clear();
    applied.description =
        "crash the current primary (skipped: " + skip_reason + ")";
    Note(applied.description);
    applied_.push_back(std::move(applied));
    return;
  }
  int best = -1;
  for (int r = 0; r < config_.n(); ++r) {
    if (primary_votes_[static_cast<size_t>(r)] == 0) continue;
    if (best < 0 || primary_votes_[static_cast<size_t>(r)] >
                        primary_votes_[static_cast<size_t>(best)]) {
      best = r;
    }
  }
  primary_votes_.clear();
  if (best < 0) {
    applied.description =
        "crash the current primary (skipped: no replica answered the "
        "primary query)";
  } else {
    KillChild(children_[static_cast<size_t>(best)]);
    applied.description = "crash the current primary (replica " +
                          std::to_string(best) + ", SIGKILL)";
  }
  Note(applied.description);
  applied_.push_back(std::move(applied));
}

void Launcher::ReapAll() {
  KillAll(SIGTERM);
  const int grace_ms =
      static_cast<int>(options_.shutdown_grace / kNanosPerMilli);
  for (int waited = 0; waited < grace_ms; waited += 20) {
    bool any = false;
    for (Child& child : children_) {
      if (!child.alive) continue;
      int wstatus = 0;
      const pid_t done = waitpid(child.pid, &wstatus, WNOHANG);
      if (done == child.pid) {
        child.alive = false;
        if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) != SIGTERM) {
          Note("node " + std::to_string(child.id) + " died on signal " +
               std::to_string(WTERMSIG(wstatus)));
        } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
          Note("node " + std::to_string(child.id) + " exited with status " +
               std::to_string(WEXITSTATUS(wstatus)));
        }
      } else {
        any = true;
      }
    }
    if (!any) return;
    SleepMillis(20);
  }
  KillAll(SIGKILL);  // report missing; CollectReports stubs them
}

void Launcher::CollectReports(TcpRunReport& report) {
  for (const Child& child : children_) {
    Result<std::string> text = ReadTextFile(child.report_path);
    if (text.ok()) {
      Result<Json> parsed = Json::Parse(*text);
      if (parsed.ok()) {
        report.nodes.push_back(std::move(*parsed));
        continue;
      }
    }
    Json stub = Json::Object();
    stub.Set("id", child.id);
    stub.Set("crashed", true);
    report.nodes.push_back(std::move(stub));
  }
}

void Launcher::CheckInvariants(TcpRunReport& report) {
  // Agreement across the sampled executed-digest logs: any two nodes that
  // both report a digest for a sequence number must report the same one.
  std::map<uint64_t, std::pair<int, std::string>> seen;
  for (const Json& node : report.nodes) {
    const Json* samples = node.Find("digest_samples");
    const Json* id = node.Find("id");
    if (samples == nullptr || !samples->is_array() || id == nullptr) continue;
    // A Byzantine replica's report is allowed to lie; only honest nodes
    // participate in the agreement check (same rule as the sim engine).
    if (byzantine_.count(static_cast<int>(id->AsInt())) > 0) continue;
    for (const Json& sample : samples->items()) {
      // A partially written report can parse as JSON yet miss fields; skip
      // malformed samples rather than crash the launcher on them.
      const Json* seq_field = sample.Find("seq");
      const Json* digest_field = sample.Find("digest");
      if (seq_field == nullptr || digest_field == nullptr) continue;
      const uint64_t seq = static_cast<uint64_t>(seq_field->AsInt());
      const std::string& digest = digest_field->AsString();
      auto [it, inserted] = seen.emplace(
          seq, std::make_pair(static_cast<int>(id->AsInt()), digest));
      if (!inserted && it->second.second != digest) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "replicas %d and %d disagree at seq %llu",
                      it->second.first, static_cast<int>(id->AsInt()),
                      static_cast<unsigned long long>(seq));
        report.agreement = Status::Internal(buf);
        return;
      }
    }
  }
  report.agreement = Status::Ok();

  if (!spec_.plan.check_convergence) return;
  report.convergence_checked = true;
  report.convergence = Status::Ok();
  uint64_t expected_seq = 0;
  std::string expected_digest;
  bool first = true;
  for (const Json& node : report.nodes) {
    const Json* crashed = node.Find("crashed");
    if (crashed != nullptr && crashed->AsBool()) continue;
    const Json* node_id = node.Find("id");
    if (node_id != nullptr &&
        byzantine_.count(static_cast<int>(node_id->AsInt())) > 0) {
      continue;
    }
    const Json* last = node.Find("last_executed");
    const Json* digest = node.Find("state_digest");
    if (last == nullptr || digest == nullptr) continue;
    if (first) {
      expected_seq = static_cast<uint64_t>(last->AsInt());
      expected_digest = digest->AsString();
      first = false;
      continue;
    }
    if (static_cast<uint64_t>(last->AsInt()) != expected_seq ||
        digest->AsString() != expected_digest) {
      const Json* id = node.Find("id");
      char buf[160];
      std::snprintf(
          buf, sizeof(buf),
          "replica %d diverged: executed %llu, expected %llu",
          id != nullptr ? static_cast<int>(id->AsInt()) : -1,
          static_cast<unsigned long long>(last->AsInt()),
          static_cast<unsigned long long>(expected_seq));
      report.convergence = Status::Internal(buf);
      return;
    }
  }
}

Result<TcpRunReport> Launcher::Run() {
  SEEMORE_RETURN_IF_ERROR(Setup());

  // Node processes first: their listeners must exist for the gate below.
  children_.resize(static_cast<size_t>(config_.n()));
  for (int i = 0; i < config_.n(); ++i) {
    Child& child = children_[static_cast<size_t>(i)];
    child.id = i;
    child.report_path = work_dir_ + "/node-" + std::to_string(i) + ".json";
    if (spec_.durability.enabled) {
      child.data_dir = work_dir_ + "/node-" + std::to_string(i) + "-data";
    }
    SEEMORE_RETURN_IF_ERROR(SpawnChild(child));
  }

  loop_ = std::make_unique<EventLoop>();
  SEEMORE_RETURN_IF_ERROR(loop_->init_status());
  TcpTransportOptions transport_options;
  transport_options.num_replicas = config_.n();
  transport_options.base_port = options_.base_port;
  transport_options.fingerprint = spec_.seed;
  transport_ = std::make_unique<TcpTransport>(loop_.get(), transport_options);
  keystore_ =
      std::make_unique<KeyStore>(spec_.seed ^ 0x5eed'c0de'5eed'c0deULL);

  // The fault controller dials every node like a client; those HELLO'd
  // connections are the control channel the schedule speaks over (and the
  // path kPrimaryReply answers come back on).
  transport_->Register(kFaultControllerId, Zone::kClient, &control_sink_,
                       /*metered=*/false);

  for (int i = 0; i < spec_.clients; ++i) {
    ClientOptions client_options;
    client_options.id = kClientIdBase + i;
    client_options.retransmit_timeout = spec_.client_retransmit_timeout;
    clients_.push_back(std::make_unique<SimClient>(
        transport_.get(), loop_.get(), keystore_.get(), client_options,
        MakeReplyPolicy(config_)));
  }

  SEEMORE_RETURN_IF_ERROR(AwaitCluster());
  Note("cluster up, starting clients");

  OpFactory workload = scenario::MakeWorkload(spec_);
  for (auto& client : clients_) client->Start(workload);
  ScheduleRun();

  // Hard cap well past the schedule: a hung cluster must not hang the tool.
  loop_->Run(spec_.plan.warmup + spec_.plan.measure + spec_.plan.drain +
             Seconds(30));
  const SimTime run_end = loop_->Now();
  if (measure_end_ == 0) measure_end_ = run_end;  // loop died early
  if (!primary_votes_.empty()) {
    FinishCrashPrimary("the run ended before the primary query was decided");
  }

  ReapAll();

  TcpRunReport report;
  report.scenario = spec_.name;
  report.seed = spec_.seed;
  report.cluster = config_.ToString();
  report.events = applied_;

  report.result.clients = spec_.clients;
  Histogram merged;
  for (auto& client : clients_) {
    report.result.completed += client->completed();
    report.result.retransmissions += client->retransmissions();
    merged.Merge(client->latencies());
  }
  const double measure_ms =
      static_cast<double>(measure_end_ - measure_start_) / kNanosPerMilli;
  report.result.throughput_kreqs =
      measure_ms > 0 ? static_cast<double>(report.result.completed) / measure_ms
                     : 0.0;
  report.result.mean_latency_ms = merged.Mean() / kNanosPerMilli;
  report.result.p50_latency_ms = merged.P50() / kNanosPerMilli;
  report.result.p90_latency_ms = merged.P90() / kNanosPerMilli;
  report.result.p99_latency_ms = merged.P99() / kNanosPerMilli;
  report.result.wall_time_ms =
      static_cast<double>(run_end - t0_) / kNanosPerMilli;

  CollectReports(report);
  CheckInvariants(report);

  // Whole-run transport ledger: our own counters (the client side) plus
  // every node's reported "net" object, summed field by field. Unknown
  // fields from newer/older nodes merge fine — the sum is by key.
  report.net = transport_->counters().ToJson();
  for (const Json& node : report.nodes) {
    const Json* node_net = node.Find("net");
    if (node_net == nullptr || !node_net->is_object()) continue;
    for (const auto& [key, value] : node_net->members()) {
      if (!value.is_int()) continue;
      Json* merged_field = report.net.Find(key);
      if (merged_field == nullptr) {
        report.net.Set(key, value);
      } else {
        report.net.Set(key, merged_field->AsInt() + value.AsInt());
      }
    }
  }
  return report;
}

}  // namespace

Status ValidateForTcp(const scenario::ScenarioSpec& spec) {
  SEEMORE_RETURN_IF_ERROR(spec.Validate());
  if (!spec.plan.sweep_clients.empty()) {
    return Status::InvalidArgument(
        "tcp backend runs one cluster per call (no sweep plan)");
  }
  // The fault plane + control channel cover every schedule kind the sim
  // engine does; the supported set IS the full table, and the error text is
  // derived from it so the message can never drift from scenario::names.
  const std::vector<scenario::EventKind>& supported =
      scenario::AllEventKinds();
  for (const scenario::ScenarioEvent& event : spec.schedule) {
    if (std::find(supported.begin(), supported.end(), event.kind) ==
        supported.end()) {
      return Status::InvalidArgument(
          "tcp backend supports only " +
          scenario::EventKindTokenList(supported) + " events (got " +
          event.ToString() + ")");
    }
  }
  return Status::Ok();
}

Result<TcpRunReport> RunTcpScenario(const scenario::ScenarioSpec& spec,
                                    const LauncherOptions& options) {
  SEEMORE_RETURN_IF_ERROR(ValidateForTcp(spec));
  Launcher launcher(spec, options);
  return launcher.Run();
}

Json TcpRunReport::ToJson() const {
  Json j = Json::Object();
  j.Set("backend", "tcp");
  j.Set("scenario", scenario);
  j.Set("seed", seed);
  j.Set("cluster", cluster);
  j.Set("result", result.ToJson());
  Json applied = Json::Array();
  for (const scenario::AppliedEvent& event : events) {
    Json e = Json::Object();
    e.Set("at_ms", ToMillis(event.at));
    e.Set("description", event.description);
    applied.Append(std::move(e));
  }
  j.Set("events", std::move(applied));
  Json reps = Json::Array();
  for (const Json& node : nodes) reps.Append(node);
  j.Set("replicas", std::move(reps));
  j.Set("net", net);
  j.Set("agreement", agreement.ToString());
  j.Set("convergence_checked", convergence_checked);
  j.Set("convergence", convergence.ToString());
  j.Set("ok", ok());
  return j;
}

}  // namespace rt
}  // namespace seemore
