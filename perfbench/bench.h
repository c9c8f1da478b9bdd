// Shared pieces of the repository benchmark (see README.md): the metric
// sink, the span recorder for traced runs, the correctness-check ledger and
// small statistics helpers. Everything here lives in the benchmark process;
// the program under test is only called through its public functions.

#ifndef SEEMORE_PERFBENCH_BENCH_H_
#define SEEMORE_PERFBENCH_BENCH_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/json.h"
#include "wire/wire.h"

namespace seemore {
namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// What one workload run reports: operation counts and both metric sets.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process (RUSAGE_SELF) or of every
/// reaped child (RUSAGE_CHILDREN).
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
};
CpuTimes CpuNow(int who);

/// Largest resident set, in MB, of this process or of any reaped child.
double PeakRssMb(int who);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
double SortedPercentile(const std::vector<int64_t>& sorted, double p);

/// Spans recorded around the benchmark's own calls into the program. A
/// disabled tracer records nothing; spans nest by Begin/End order.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void Begin(const std::string& name);
  void End();

  /// Chrome trace-event JSON ("X" events) with each span's self time (its
  /// duration minus the time its child spans cover) in args.self_us.
  bool WriteChrome(const std::string& path) const;
  /// Self time per span name, summed over every instance, in ms.
  Json SelfTimeSummary() const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  std::vector<int64_t> SelfTimes() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name) : tracer_(tracer) {
    tracer_.Begin(name);
  }
  ~ScopedSpan() { tracer_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

/// Ledger of the correctness checks a run makes. `--wrong-check=NAME`
/// feeds the named check a wrong expectation (Wrong(NAME) is true), which
/// must make the run fail: the proof that the check is not vacuous.
class Checks {
 public:
  explicit Checks(std::string wrong) : wrong_(std::move(wrong)) {}

  /// True when this check must use a wrong expectation.
  bool Wrong(const std::string& name) {
    consulted_.insert(name);
    return name == wrong_;
  }
  /// Record the outcome of check `name` (first failure per name is kept).
  /// The caller has already applied Wrong(name) to the expected value.
  void Require(const std::string& name, bool ok, const std::string& detail);
  /// A check whose expectation is that `holds` is true; fed a wrong
  /// expectation, it requires `holds` to be false.
  void Expect(const std::string& name, bool holds, const std::string& detail) {
    Require(name, holds != Wrong(name), detail);
  }

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  /// The --wrong-check name, when it named no check this run consulted.
  bool WrongNameUnknown() const {
    return !wrong_.empty() && consulted_.count(wrong_) == 0;
  }
  const std::set<std::string>& consulted() const { return consulted_; }

 private:
  std::string wrong_;
  std::set<std::string> consulted_;
  std::set<std::string> failed_names_;
  std::vector<std::string> failures_;
};

/// Benchmark-wide options parsed from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 24;
  bool trace = false;
  /// Directory for tcp work dirs and trace output (inside the checkout).
  std::string work_root;
  std::string wrong_check;
};

WorkloadResult RunLionLoneTcp(const Options& options, Tracer& tracer,
                              Checks& checks);
WorkloadResult RunPeacockEchoSim(const Options& options, Tracer& tracer,
                                 Checks& checks);
WorkloadResult RunDogKvFailoverSim(const Options& options, Tracer& tracer,
                                   Checks& checks);

/// Unit of per-layer metric `name`; aborts on a name the benchmark does not
/// define (the table in perfbench.cc lists them all).
const std::string& LayerUnit(const std::string& name);
/// Add, as 0, every per-layer metric `metrics` lacks: the layer did no work
/// on this workload (no sockets in the simulator, no simulator over tcp,
/// no storage without durability).
void AddIdleLayers(Metrics& metrics);

/// Operations shaped like one consensus batch of a workload: the probes
/// time each layer's public functions on these inputs.
struct ProbeShape {
  std::vector<Bytes> ops;
};

/// Timed calls into crypto, rt framing, wire codec, storage WAL and the KV
/// state machine; adds the probe metrics to `out`.
void RunProbes(const ProbeShape& shape, Tracer& tracer, Metrics& out);

}  // namespace perfbench
}  // namespace seemore

#endif  // SEEMORE_PERFBENCH_BENCH_H_
