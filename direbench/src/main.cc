// direbench: the end-to-end benchmark of DIRE. One run measures one
// workload (eval_batch, serve_mixed or ivm_churn) for --seconds and prints,
// as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics from a
// traced run (--trace 1). Usually started through direbench/run.py, which
// builds this binary and dire_cli first.

#include <sys/stat.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace direbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run of any workload reports all of these.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"eval_s", "s"},
    {"eval_peak_rss_mb", "MB"},
    {"serve_ops_per_s", "1/s"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"write_p99_us", "us"},
    {"maintain_add_p50_us", "us"},
    {"maintain_add_p90_us", "us"},
    {"maintain_retract_p50_us", "us"},
    {"maintain_retract_p90_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"parser.parse_ms", "ms"},
    {"core.optimize_ms", "ms"},
    {"core.rewritten_preds", "count"},
    {"core.hoisted_preds", "count"},
    {"eval.evaluate_ms", "ms"},
    {"eval.stratum.t_ms", "ms"},
    {"eval.stratum.sg_ms", "ms"},
    {"eval.stratum.p3_ms", "ms"},
    {"eval.stratum.r_ms", "ms"},
    {"eval.stratum.buys_ms", "ms"},
    {"eval.stratum.h_ms", "ms"},
    {"eval.strata_share", "ratio"},
    {"eval.rule_exec_ms", "ms"},
    {"eval.outside_rules_ms", "ms"},
    {"eval.emitted", "count"},
    {"eval.derived", "count"},
    {"eval.useful_ratio", "ratio"},
    {"eval.rule_firings", "count"},
    {"eval.rounds", "count"},
    {"eval.replans", "count"},
    {"eval.plan_cache_hits", "count"},
    {"storage.arena_mb", "MB"},
    {"storage.approx_mb", "MB"},
    {"cli.overhead_ms", "ms"},
    {"maintain.tc.add_p50_us", "us"},
    {"maintain.tc.add_p90_us", "us"},
    {"maintain.tc.retract_p50_us", "us"},
    {"maintain.tc.retract_p90_us", "us"},
    {"maintain.skewed.add_p50_us", "us"},
    {"maintain.skewed.add_p90_us", "us"},
    {"maintain.skewed.retract_p50_us", "us"},
    {"maintain.skewed.retract_p90_us", "us"},
    {"maintain.buys.add_p50_us", "us"},
    {"maintain.buys.add_p90_us", "us"},
    {"maintain.buys.retract_p50_us", "us"},
    {"maintain.buys.retract_p90_us", "us"},
    {"maintain.variants_executed", "count/op"},
    {"maintain.rounds", "count/op"},
    {"maintain.overdeleted", "count/op"},
    {"maintain.rederived", "count/op"},
    {"maintain.rederive_ratio", "ratio"},
    {"maintain.count_inits", "count"},
    {"maintain.tc.reeval_ms", "ms"},
    {"maintain.skewed.reeval_ms", "ms"},
    {"maintain.buys.reeval_ms", "ms"},
    {"storage.add_row_us", "us"},
    {"storage.remove_row_us", "us"},
    {"storage.wal_commit_p50_us", "us"},
    {"storage.wal_commit_p99_us", "us"},
    {"storage.fold_ms", "ms"},
    {"storage.recover_open_ms", "ms"},
    {"server.query.queue_p50_us", "us"},
    {"server.query.queue_p99_us", "us"},
    {"server.query.exec_p50_us", "us"},
    {"server.query.exec_p99_us", "us"},
    {"server.write.queue_p50_us", "us"},
    {"server.write.queue_p99_us", "us"},
    {"server.write.exec_p50_us", "us"},
    {"server.write.exec_p99_us", "us"},
    {"server.query.wire_us", "us"},
    {"server.ivm_applied", "count"},
    {"server.ivm_fallbacks", "count"},
    {"server.folds", "count"},
    {"server.overloaded", "count"},
    {"eval.select_us", "us"},
    {"maintain.serve_apply_us", "us"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kWorkloads[] = {"eval_batch", "serve_mixed", "ivm_churn"};

// The two seeds claims are made on: develop on one, confirm on the other.
constexpr uint64_t kDevSeed = 1;
constexpr uint64_t kHeldOutSeed = 2;

int Usage() {
  std::fprintf(stderr,
               "usage: direbench --workload eval_batch|serve_mixed|ivm_churn "
               "--seed N|dev|heldout --seconds S --trace 0|1 --cli DIRE_CLI "
               "--work DIR [--trace-out FILE] [--smoke]\n");
  return 2;
}

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// What produced the numbers: hardware, build and durability settings.
std::string EnvJson(const std::string& workload, uint64_t seed, double seconds,
                    bool trace) {
  const char* commit = std::getenv("DIREBENCH_COMMIT");
#ifdef DIRE_OBS_ENABLED
  const char* obs = "ON";
#else
  const char* obs = "OFF";
#endif
  return std::string("{\"nproc\":") + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"build_type\":" + JsonStr(DIREBENCH_BUILD_TYPE) +
         ",\"dire_obs\":" + JsonStr(obs) +
         ",\"compiler\":" + JsonStr(std::string("gcc-compatible ") + __VERSION__) +
         ",\"commit\":" + JsonStr(commit != nullptr ? commit : "unknown") +
         ",\"fsync\":" +
         JsonStr("WAL fsync before every ack; fold every 32 writes; "
                 "snapshot temp+fsync+rename") +
         ",\"workload\":" + JsonStr(workload) + ",\"seed\":" +
         std::to_string(seed) + ",\"seconds\":" + Number(seconds) +
         ",\"trace\":" + (trace ? "1" : "0") + "}";
}

}  // namespace
}  // namespace direbench

int main(int argc, char** argv) {
  using namespace direbench;
  std::string workload, cli, work, trace_out;
  uint64_t seed = kDevSeed;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      const std::string v = value;
      seed = v == "dev" ? kDevSeed
             : v == "heldout" ? kHeldOutSeed
                              : std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--cli") {
      cli = value;
    } else if (flag == "--work") {
      work = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known || cli.empty() || work.empty() || !(seconds > 0)) return Usage();
  if (::access(cli.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "direbench: no dire_cli at %s\n", cli.c_str());
    return 2;
  }
  RemoveTree(work);
  if (::mkdir(work.c_str(), 0755) != 0) {
    std::fprintf(stderr, "direbench: cannot create %s\n", work.c_str());
    return 2;
  }

  Report report;
  Ctx ctx;
  ctx.seed = seed;
  ctx.smoke = smoke;
  ctx.cli = cli;
  ctx.work = work;
  ctx.report = &report;
  std::vector<std::unique_ptr<Workload>> workloads;
  workloads.push_back(MakeEvalBatch(ctx));
  workloads.push_back(MakeServeMixed(ctx));
  workloads.push_back(MakeIvmChurn(ctx));
  size_t primary = 0;
  while (workload != kWorkloads[primary]) ++primary;

  // The run's own workload first, on a quiet process, so its set-up is
  // timed before anything else runs.
  bool ready = workloads[primary]->Prepare(/*time_setup=*/!trace);
  for (size_t i = 0; i < workloads.size(); ++i) {
    if (i != primary) ready = workloads[i]->Prepare(false) && ready;
  }

  // Rounds of short bursts, the run's own workload in every other slot:
  // own, other, own, the remaining one. Traced runs trace every burst but
  // every other one of the own workload's, whose untraced bursts give the
  // tracing overhead.
  Tracer tracer(trace);
  Tracer untraced(false);
  const double slot = smoke ? 0.02 : 0.6;
  std::vector<size_t> order;
  for (size_t i = 0; i < workloads.size(); ++i) {
    if (i == primary) continue;
    order.push_back(primary);
    order.push_back(i);
  }
  const int64_t start = NowNs();
  size_t own_bursts = 0;
  while (ready) {
    for (size_t i : order) {
      Tracer* t = &untraced;
      if (trace) t = i != primary || own_bursts % 2 == 1 ? &tracer : &untraced;
      if (i == primary) ++own_bursts;
      workloads[i]->Burst(slot, t);
    }
    if (SecondsSince(start) >= seconds) break;
  }
  std::fprintf(stderr, "direbench: measured for %.1f s\n", SecondsSince(start));
  // A workload that could not be prepared reports nothing; its metrics
  // are then missing and the run is not correct.
  Tracer* finish = trace ? &tracer : &untraced;
  if (ready) {
    for (auto& w : workloads) w->Finish(finish);
  }
  if (trace) {
    // How much slower the own workload's traced bursts were than its
    // untraced ones, on its headline latency.
    const double plain = workloads[primary]->headline[0].Median();
    const double traced = workloads[primary]->headline[1].Median();
    report.Layer("trace.overhead_pct",
                 plain > 0 ? 100.0 * (traced - plain) / plain : 0, "%");
  }
  workloads.clear();
  RemoveTree(work);

  // Every metric of the run's kind must be present, finite and in its unit.
  const auto& got = trace ? report.layer() : report.e2e();
  std::string metrics;
  size_t expected = 0;
  auto emit = [&](const MetricSpec& spec) {
    ++expected;
    auto it = got.find(spec.name);
    const bool ok = it != got.end() && it->second.unit == spec.unit &&
                    std::isfinite(it->second.value);
    if (!ok) {
      report.Check(false, std::string("metric ") + spec.name + " measured");
      return;
    }
    std::fprintf(stderr, "  %-34s %14.6g %s\n", spec.name, it->second.value,
                 spec.unit);
    metrics += (metrics.empty() ? "" : ",") + JsonStr(spec.name) +
               ":{\"value\":" + Number(it->second.value) +
               ",\"unit\":" + JsonStr(spec.unit) + "}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  if (got.size() != expected) {
    report.Check(false, "no metrics beyond the declared ones");
  }

  const std::string env = EnvJson(workload, seed, seconds, trace);
  if (trace && !trace_out.empty() && !tracer.WriteJson(trace_out, env)) {
    std::fprintf(stderr, "direbench: cannot write %s\n", trace_out.c_str());
  }
  std::printf("env %s\n", env.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              report.failed() == 0 ? "true" : "false",
              static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()), metrics.c_str());
  return 0;
}
