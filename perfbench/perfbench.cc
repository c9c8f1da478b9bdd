// perfbench: the repository benchmark's binary. One invocation runs one
// workload for about --seconds and prints, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics when --trace=0, the per-layer metrics when --trace=1
// (which also writes the span file). run.py builds this binary, pins it to
// its cores and forwards the standard command line; README.md explains
// the workloads, metrics and checks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "util/flags.h"
#include "util/logging.h"

namespace seemore {
namespace perfbench {

CpuTimes CpuNow(int who) {
  rusage usage{};
  getrusage(who, &usage);
  CpuTimes t;
  t.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  t.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  return t;
}

double PeakRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SortedPercentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return static_cast<double>(sorted[std::min(index, sorted.size() - 1)]);
}

void Tracer::Begin(const std::string& name) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = HostNowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void Tracer::End() {
  if (!enabled_ || open_.empty()) return;
  spans_[static_cast<size_t>(open_.back())].end_ns = HostNowNs();
  open_.pop_back();
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one parent never overlap (spans nest by Begin/End order),
  // so the covered part is the sum of the children's durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool Tracer::WriteChrome(const std::string& path) const {
  const std::vector<int64_t> self = SelfTimes();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  Json events = Json::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Json event = Json::Object();
    event.Set("name", span.name);
    event.Set("cat", "perfbench");
    event.Set("ph", "X");
    event.Set("ts", static_cast<double>(span.start_ns - origin) / 1e3);
    event.Set("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    event.Set("pid", 1);
    event.Set("tid", 1);
    Json args = Json::Object();
    args.Set("self_us", static_cast<double>(self[i]) / 1e3);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  Json root = Json::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", "ms");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::string text = root.Dump(1) + "\n";
  const bool wrote = std::fwrite(text.data(), 1, text.size(), out) ==
                     text.size();
  return std::fclose(out) == 0 && wrote;
}

Json Tracer::SelfTimeSummary() const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<std::string, std::pair<int64_t, int>> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& entry = by_name[spans_[i].name];
    entry.first += self[i];
    entry.second += 1;
  }
  Json summary = Json::Object();
  for (const auto& [name, entry] : by_name) {
    Json row = Json::Object();
    row.Set("count", entry.second);
    row.Set("self_ms", static_cast<double>(entry.first) / 1e6);
    summary.Set(name, std::move(row));
  }
  return summary;
}

namespace {

/// Every per-layer metric and its unit, as BENCHMARK.json lists them.
const std::map<std::string, std::string>& LayerUnits() {
  static const std::map<std::string, std::string> kUnits = {
      {"rt.frames_per_req", "frames/req"},
      {"rt.bytes_per_req", "B/req"},
      {"rt.read_calls_per_req", "calls/req"},
      {"rt.writev_calls_per_req", "calls/req"},
      {"rt.frames_per_writev", "frames/call"},
      {"rt.rx_copied_bytes_per_req", "B/req"},
      {"rt.sys_cpu_us_per_req", "us/req"},
      {"rt.user_cpu_us_per_req", "us/req"},
      {"rt.dial_failures", "count"},
      {"rt.frame_parse_ns_per_byte", "ns/B"},
      {"consensus.r2r_msgs_per_instance", "msgs/instance"},
      {"consensus.reqs_per_batch", "reqs/batch"},
      {"consensus.view_changes", "count"},
      {"consensus.client_retransmits", "count"},
      {"net.wire_bytes_per_req", "B/req"},
      {"net.sim_busy_us_per_req", "us/req"},
      {"net.primary_busy_share", "ratio"},
      {"sim.events_per_req", "events/req"},
      {"sim.host_ns_per_event", "ns/event"},
      {"storage.bytes_per_req", "B/req"},
      {"storage.syncs_per_req", "syncs/req"},
      {"storage.restart_us", "us"},
      {"storage.replayed_commits", "count"},
      {"storage.wal_append_us", "us"},
      {"smr.kv_execute_us", "us"},
      {"crypto.sha256_ns_per_byte", "ns/B"},
      {"crypto.sign_us", "us"},
      {"crypto.verify_us", "us"},
      {"wire.encode_us", "us"},
      {"wire.decode_us", "us"},
  };
  return kUnits;
}

}  // namespace

const std::string& LayerUnit(const std::string& name) {
  auto it = LayerUnits().find(name);
  SEEMORE_CHECK(it != LayerUnits().end()) << "undefined layer metric " << name;
  return it->second;
}

void AddIdleLayers(Metrics& metrics) {
  for (const auto& [name, unit] : LayerUnits()) {
    if (metrics.count(name) == 0) metrics[name] = Metric{0.0, unit};
  }
}

void Checks::Require(const std::string& name, bool ok,
                     const std::string& detail) {
  consulted_.insert(name);
  if (ok || failed_names_.count(name) > 0) return;
  failed_names_.insert(name);
  failures_.push_back(name + ": " + detail);
}

namespace {

Json MetricsJson(const Metrics& metrics) {
  Json out = Json::Object();
  for (const auto& [name, metric] : metrics) {
    Json m = Json::Object();
    m.Set("value", metric.value);
    m.Set("unit", metric.unit);
    out.Set(name, std::move(m));
  }
  return out;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), out) ==
                     text.size();
  return std::fclose(out) == 0 && wrote;
}

int Main(int argc, char** argv) {
  FlagSet flags("perfbench: one workload of the repository benchmark");
  flags.AddString("workload", "", "lion-lone-tcp | peacock-echo4k-sim | "
                  "dog-kv-failover-sim");
  flags.AddInt("seed", 1, "input seed");
  flags.AddInt("seconds", 24, "measured run length (s)");
  flags.AddInt("trace", 0, "1 = traced run: per-layer metrics and spans");
  flags.AddString("work-root", ".bench_build",
                  "directory for tcp work dirs and trace output");
  flags.AddString("wrong-check", "",
                  "feed this correctness check a wrong expectation");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested()) {
    std::fprintf(stderr, "%s\n%s\n", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  Options options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = static_cast<int>(flags.GetInt("seconds"));
  options.trace = flags.GetInt("trace") != 0;
  options.work_root = flags.GetString("work-root");
  options.wrong_check = flags.GetString("wrong-check");
  if (options.seconds < 1 || options.seconds > 600) {
    std::fprintf(stderr, "perfbench: --seconds must be in [1, 600]\n");
    return 2;
  }

  Tracer tracer(options.trace);
  Checks checks(options.wrong_check);
  WorkloadResult result;
  if (options.workload == "lion-lone-tcp") {
    result = RunLionLoneTcp(options, tracer, checks);
  } else if (options.workload == "peacock-echo4k-sim") {
    result = RunPeacockEchoSim(options, tracer, checks);
  } else if (options.workload == "dog-kv-failover-sim") {
    result = RunDogKvFailoverSim(options, tracer, checks);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  AddIdleLayers(result.per_layer);
  for (const auto& [name, metric] : result.per_layer) {
    SEEMORE_CHECK(metric.unit == LayerUnit(name)) << "unit of " << name;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: the workload did not run\n");
    return 1;
  }
  if (checks.WrongNameUnknown()) {
    std::fprintf(stderr, "perfbench: no check named '%s' on %s\n",
                 options.wrong_check.c_str(), options.workload.c_str());
    return 2;
  }
  for (const std::string& failure : checks.failures()) {
    std::fprintf(stderr, "CHECK FAILED %s\n", failure.c_str());
  }
  std::string checked;
  for (const std::string& name : checks.consulted()) {
    checked += (checked.empty() ? "" : ", ") + name;
  }
  std::fprintf(stderr, "checks made: %s\n", checked.c_str());

  if (options.trace) {
    const std::string stem = options.work_root + "/trace-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed);
    Json summary = Json::Object();
    summary.Set("workload", options.workload);
    summary.Set("seed", options.seed);
    summary.Set("per_layer", MetricsJson(result.per_layer));
    // The traced run's own end-to-end figures: set against an untraced
    // run of the same seed they give the tracing overhead.
    summary.Set("end_to_end_traced", MetricsJson(result.end_to_end));
    summary.Set("span_self_time", tracer.SelfTimeSummary());
    if (!tracer.WriteChrome(stem + ".json") ||
        !WriteText(stem + ".summary.json", summary.Dump(2) + "\n")) {
      std::fprintf(stderr, "perfbench: cannot write %s.*\n", stem.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans: %s.json  per-layer summary: %s.summary.json\n",
                 stem.c_str(), stem.c_str());
  }

  Json line = Json::Object();
  line.Set("correct", checks.ok());
  line.Set("attempted", result.attempted);
  line.Set("failed", result.failed);
  line.Set("metrics", MetricsJson(options.trace ? result.per_layer
                                                : result.end_to_end));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace seemore

int main(int argc, char** argv) { return seemore::perfbench::Main(argc, argv); }
