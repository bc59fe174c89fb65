// Shared pieces of the end-to-end benchmark: seeded generators, sample
// statistics, the result report, span tracing, child processes, and the
// three workload entry points. See direbench/README.md for what each
// workload measures and why.
#ifndef DIREBENCH_HARNESS_H_
#define DIREBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace direbench {

int64_t NowNs();
double SecondsSince(int64_t start_ns);

// Seeded input generator. std::mt19937_64 is fully specified by the C++
// standard, so one seed yields the same inputs on every platform; the
// engine's own RNG is deliberately not used, so a change to it cannot
// change the benchmark's inputs.
class Gen {
 public:
  Gen(uint64_t seed, uint64_t stream) : eng_(seed * 0x9e3779b97f4a7c15ULL ^ stream) {}
  uint64_t Below(uint64_t n) { return eng_() % n; }

 private:
  std::mt19937_64 eng_;
};

// Latency or size samples; quantiles are nearest-rank over a sorted copy.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;

 private:
  std::vector<double> values_;
};

// What a run found: operation and check outcomes plus the metrics. The
// end-to-end and per-layer maps are kept apart because a run prints only
// one of them (end-to-end untraced, per-layer traced).
class Report {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
  };

  // One operation of a workload (a CLI run, a request, a toggle).
  void Op(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) ++failed_;
  }
  // One output check; a failed check is a failed operation and is logged.
  void Check(bool ok, const std::string& what);

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& e2e() const { return e2e_; }
  const std::map<std::string, Metric>& layer() const { return layer_; }

 private:
  std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
};

// Spans recorded by the benchmark around its calls into the engine: name,
// start, end, parent span, and the operation they belong to. Kept in memory
// and written once at the end. A disabled tracer records nothing, so the
// same code path serves the untraced and the traced run.
class Tracer {
 public:
  struct SpanRec {
    std::string name;
    std::string tag;  // e.g. the fact class or request verb
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t op = 0;
  };

  // RAII span; nests under the innermost open span of the same thread.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t op,
         std::string tag = std::string());
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Durations in microseconds of every span called `name` (and `tag`, when
  // given).
  Samples DurationsUs(const std::string& name,
                      const std::string& tag = std::string()) const;

  // Writes all spans plus a per-name summary with self time (a span's
  // duration minus the time its child spans cover) as JSON.
  bool WriteJson(const std::string& path, const std::string& env_json) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

// A finished child process: exit status, wall time from fork to reap, peak
// resident set (from wait4's rusage) and captured standard output.
struct ChildResult {
  int exit_code = -1;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::string out;
};
ChildResult RunChild(const std::vector<std::string>& argv);

// Filesystem helpers confined to the run's work directory.
bool WriteFile(const std::string& path, const std::string& data);
bool ReadFile(const std::string& path, std::string* data);
bool CopyDirFiles(const std::string& from, const std::string& to);
void RemoveTree(const std::string& path);
uint64_t Fnv1a(const std::string& data);

// Everything a workload needs to know about the run.
struct Ctx {
  uint64_t seed = 1;
  bool smoke = false;  // Tiny inputs, a handful of operations.
  std::string cli;     // Path of the dire_cli binary.
  std::string work;    // Scratch directory, removed at the end.
  Report* report = nullptr;
};

// One workload's state across a run: prepared once, then driven in short
// bursts interleaved with the other two workloads, then finished once.
// Every run measures all three, so that every end-to-end metric is
// measured on every run; the run's own workload gets half of the bursts
// and times its set-up. Interleaving spreads each metric's samples over
// the whole run instead of one slice of it.
class Workload {
 public:
  virtual ~Workload() = default;
  // Builds inputs and state. With `time_setup`, also measures the
  // workload's set-up several times and reports setup_s.
  virtual bool Prepare(bool time_setup) = 0;
  // Runs operations for about `seconds` (at least one); spans go to
  // `tracer`, which may be disabled.
  virtual void Burst(double seconds, Tracer* tracer) = 0;
  // Stops, runs the output checks and reports the metrics: end-to-end ones
  // when `tracer` is disabled, per-layer ones from its spans when enabled.
  virtual void Finish(Tracer* tracer) = 0;

  // The headline latency of bursts run untraced [0] and traced [1]; their
  // medians give trace.overhead_pct.
  Samples headline[2];
};

std::unique_ptr<Workload> MakeEvalBatch(const Ctx& ctx);
std::unique_ptr<Workload> MakeServeMixed(const Ctx& ctx);
std::unique_ptr<Workload> MakeIvmChurn(const Ctx& ctx);

}  // namespace direbench

#endif  // DIREBENCH_HARNESS_H_
