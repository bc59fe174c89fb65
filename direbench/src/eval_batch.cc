// eval_batch: `dire_cli FILE --threads 2 --eval` on one generated program
// with six recursive workloads and their EDB as facts. Time goes to the
// parser, the evaluator and the storage arena; nothing is written, served
// or maintained.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_program.h"
#include "eval/evaluator.h"
#include "eval/provenance.h"
#include "inputs.h"
#include "parser/parser.h"
#include "storage/snapshot.h"

namespace direbench {
namespace {

constexpr char kRules[] =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- e(X, Z), t(Z, Y).\n"
    "sg(X, Y) :- flat(X, Y).\n"
    "sg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).\n"
    "p3(X, Y) :- me(X, A), me(A, B), me(B, Y).\n"
    "r(X, Y) :- p3(X, Y).\n"
    "r(X, Y) :- p3(X, Z), r(Z, Y).\n"
    "buys(X, Y) :- likes(X, Y).\n"
    "buys(X, Y) :- trendy(X), buys(Z, Y).\n"
    "h(X, Y) :- he(X, Z), b(W, Y), h(Z, Y).\n"
    "h(X, Y) :- h0(X, Y).\n";

constexpr const char* kStrata[] = {"t", "sg", "p3", "r", "buys", "h"};

std::string BatchProgram(const Ctx& ctx) {
  // Full sizes: TC 400/3200, SG 200/800 per relation, multijoin 120/960,
  // Example 1.2 with 1024 people, Example 6.1 with 1024/3072, 513 b pairs
  // and 103 seeds.
  const int k = ctx.smoke ? 8 : 1;
  Gen gen(ctx.seed, 1);
  std::string text = kRules;
  auto graph = [&](const char* rel, int n, int m) {
    for (const Edge& e : RandomGraph(&gen, n, m)) {
      text += FactLine(rel, {Node(e.first), Node(e.second)}) + "\n";
    }
  };
  graph("e", 400 / k, 3200 / k);
  for (const char* rel : {"up", "down", "flat"}) graph(rel, 200 / k, 800 / k);
  graph("me", 120 / k, 960 / k);
  ConsumerData c = MakeConsumer(&gen, 1024 / k, 205 / k, 3, 0.1);
  for (const auto& [p, item] : c.likes) {
    text += FactLine("likes", {Person(p), Item(item)}) + "\n";
  }
  for (int p : c.trendy) text += FactLine("trendy", {Person(p)}) + "\n";
  const int hn = 1024 / k;
  graph("he", hn, 3 * hn);
  for (int i = 0; i < hn / 2 + 1; ++i) {
    text += FactLine("b", {Node(static_cast<int>(gen.Below(hn))),
                           Node(static_cast<int>(gen.Below(hn)))}) + "\n";
  }
  for (int i = 0; i < hn / 10 + 1; ++i) {
    text += FactLine("h0", {Node(static_cast<int>(gen.Below(hn))),
                            Node(static_cast<int>(gen.Below(hn)))}) + "\n";
  }
  return text;
}

struct Reference {
  bool ok = false;
  size_t derived = 0;
  uint64_t snapshot_hash = 0;
};

// The answer the CLI and the replay must reproduce: a serial, untracked
// in-process evaluation.
Reference ComputeReference(const std::string& text) {
  Reference ref;
  dire::Result<dire::ast::Program> program = dire::parser::ParseProgram(text);
  if (!program.ok()) return ref;
  dire::storage::Database db;
  dire::eval::Evaluator ev(&db);
  dire::Result<dire::eval::EvalStats> stats = ev.Evaluate(*program);
  if (!stats.ok()) return ref;
  dire::Result<std::string> snap = dire::storage::SaveSnapshot(db);
  if (!snap.ok()) return ref;
  ref.ok = true;
  ref.derived = stats->tuples_derived;
  ref.snapshot_hash = Fnv1a(*snap);
  return ref;
}

// One `dire_cli FILE --threads 2 --eval`; its derived count must match
// the reference.
bool CliEval(const Ctx& ctx, const std::string& path, const Reference& ref,
             uint64_t op, Tracer* tracer, ChildResult* r) {
  {
    Tracer::Span span(tracer, "cli.eval", op);
    *r = RunChild({ctx.cli, path, "--threads", "2", "--eval"});
  }
  size_t derived = 0;
  int iterations = 0;
  size_t at = r->out.find("evaluated: ");
  bool ok = r->exit_code == 0 && at != std::string::npos &&
            std::sscanf(r->out.c_str() + at,
                        "evaluated: %d iteration(s), %zu tuple(s) derived",
                        &iterations, &derived) == 2 &&
            derived == ref.derived;
  ctx.report->Op(ok);
  if (!ok) {
    std::fprintf(stderr, "eval_batch: CLI run %llu failed (exit %d, derived "
                         "%zu, expected %zu)\n",
                 static_cast<unsigned long long>(op), r->exit_code, derived,
                 ref.derived);
  }
  return ok;
}

// Set-up as the user pays it before any action: `dire_cli FILE` reads and
// parses the program and its facts, then exits.
double SetupSeconds(const Ctx& ctx, const std::string& path, int runs) {
  Samples s;
  for (int i = 0; i < runs; ++i) {
    ChildResult r = RunChild({ctx.cli, path});
    ctx.report->Op(r.exit_code == 0);
    if (r.exit_code == 0) s.Add(r.wall_s);
  }
  return s.Median();
}

// The CLI's evaluation replayed in process with the same options (two
// threads, a provenance tracker attached), traced call by call. Its
// snapshot must hash to the reference's.
void Replay(const Ctx& ctx, const std::string& text, const Reference& ref,
            double cli_eval_s, Tracer* tracer) {
  const bool traced = tracer->enabled();
  dire::Result<dire::ast::Program> program = [&] {
    Tracer::Span span(tracer, "parser.parse", 0);
    return dire::parser::ParseProgram(text);
  }();
  if (!program.ok()) {
    ctx.report->Check(false, "eval_batch replay parses");
    return;
  }
  std::optional<dire::Result<dire::core::ProgramPlan>> plan;
  if (traced) {
    Tracer::Span span(tracer, "core.optimize", 0);
    plan = dire::core::OptimizeProgram(*program);
  }
  dire::storage::Database db;
  dire::eval::ProvenanceTracker tracker;
  dire::eval::EvalOptions options;
  options.num_threads = 2;
  options.tracker = &tracker;
  dire::eval::Evaluator ev(&db, options);
  dire::Result<dire::eval::EvalStats> stats = [&] {
    Tracer::Span span(tracer, "eval.evaluate", 0);
    return ev.Evaluate(*program);
  }();
  dire::Result<std::string> snap = [&]() -> dire::Result<std::string> {
    Tracer::Span span(tracer, "storage.snapshot", 0);
    return dire::storage::SaveSnapshot(db);
  }();
  ctx.report->Check(stats.ok() && snap.ok() && Fnv1a(*snap) == ref.snapshot_hash,
                    "eval_batch replay snapshot matches the reference");
  if (!traced || !stats.ok()) return;

  Report* rep = ctx.report;
  const double parse_ms = tracer->DurationsUs("parser.parse").Sum() * 1e-3;
  const double evaluate_ms = tracer->DurationsUs("eval.evaluate").Sum() * 1e-3;
  rep->Layer("parser.parse_ms", parse_ms, "ms");
  rep->Layer("core.optimize_ms",
             tracer->DurationsUs("core.optimize").Sum() * 1e-3, "ms");
  int rewritten = 0;
  int hoisted = 0;
  if (plan.has_value() && plan->ok()) {
    for (const dire::core::PredicateReport& r : (*plan)->reports) {
      if (r.action == dire::core::PredicateReport::Action::kRewritten) ++rewritten;
      if (r.action == dire::core::PredicateReport::Action::kHoisted) ++hoisted;
    }
  }
  rep->Layer("core.rewritten_preds", rewritten, "count");
  rep->Layer("core.hoisted_preds", hoisted, "count");
  rep->Layer("eval.evaluate_ms", evaluate_ms, "ms");
  double strata_ms = 0;
  for (const char* name : kStrata) {
    double ms = 0;
    for (const dire::eval::StratumStats& s : stats->stratum_stats) {
      if (s.predicates.size() == 1 && s.predicates[0] == name) {
        ms += static_cast<double>(s.wall_ns) * 1e-6;
      }
    }
    strata_ms += ms;
    rep->Layer(std::string("eval.stratum.") + name + "_ms", ms, "ms");
  }
  rep->Layer("eval.strata_share", evaluate_ms > 0 ? strata_ms / evaluate_ms : 0,
             "ratio");
  double rule_ms = 0;
  for (const dire::eval::RuleStats& r : stats->rule_stats) {
    rule_ms += static_cast<double>(r.exec_ns) * 1e-6;
  }
  rep->Layer("eval.rule_exec_ms", rule_ms, "ms");
  rep->Layer("eval.outside_rules_ms", evaluate_ms - rule_ms, "ms");
  const double emitted = static_cast<double>(stats->tuples_emitted);
  const double derived = static_cast<double>(stats->tuples_derived);
  rep->Layer("eval.emitted", emitted, "count");
  rep->Layer("eval.derived", derived, "count");
  rep->Layer("eval.useful_ratio", emitted > 0 ? derived / emitted : 0, "ratio");
  rep->Layer("eval.rule_firings", static_cast<double>(stats->rule_firings),
             "count");
  rep->Layer("eval.rounds", stats->iterations, "count");
  rep->Layer("eval.replans", static_cast<double>(stats->replans), "count");
  rep->Layer("eval.plan_cache_hits",
             static_cast<double>(stats->plan_cache_hits), "count");
  rep->Layer("storage.arena_mb", static_cast<double>(db.ArenaBytes()) / 1048576.0,
             "MB");
  rep->Layer("storage.approx_mb",
             static_cast<double>(db.ApproxBytes()) / 1048576.0, "MB");
  rep->Layer("cli.overhead_ms", cli_eval_s * 1e3 - (parse_ms + evaluate_ms), "ms");
}

class EvalBatch : public Workload {
 public:
  explicit EvalBatch(const Ctx& ctx) : ctx_(ctx) {}

  bool Prepare(bool time_setup) override {
    text_ = BatchProgram(ctx_);
    path_ = ctx_.work + "/batch.dl";
    if (!WriteFile(path_, text_)) {
      ctx_.report->Check(false, "eval_batch writes its program");
      return false;
    }
    ref_ = ComputeReference(text_);
    ctx_.report->Check(ref_.ok, "eval_batch reference evaluation");
    if (ref_.ok && time_setup) {
      ctx_.report->EndToEnd("setup_s",
                            SetupSeconds(ctx_, path_, ctx_.smoke ? 2 : 15), "s");
    }
    return ref_.ok;
  }

  // Whole CLI evaluations until `seconds` have passed.
  void Burst(double seconds, Tracer* tracer) override {
    const int64_t start = NowNs();
    do {
      ChildResult r;
      if (CliEval(ctx_, path_, ref_, runs_++, tracer, &r)) {
        wall_s_.Add(r.wall_s);
        rss_mb_.Add(r.peak_rss_mb);
        headline[tracer->enabled() ? 1 : 0].Add(r.wall_s);
      }
    } while (SecondsSince(start) < seconds);
  }

  void Finish(Tracer* tracer) override {
    Replay(ctx_, text_, ref_, wall_s_.Median(), tracer);
    if (tracer->enabled()) return;
    ctx_.report->EndToEnd("eval_s", wall_s_.Median(), "s");
    ctx_.report->EndToEnd("eval_peak_rss_mb", rss_mb_.Median(), "MB");
  }

 private:
  const Ctx& ctx_;
  std::string text_;
  std::string path_;
  Reference ref_;
  uint64_t runs_ = 0;
  Samples wall_s_;
  Samples rss_mb_;
};

}  // namespace

std::unique_ptr<Workload> MakeEvalBatch(const Ctx& ctx) {
  return std::make_unique<EvalBatch>(ctx);
}

}  // namespace direbench
