// ivm_churn: one in-process database holding three fact classes (TC, the
// skewed counting + DRed pair, and Example 1.2's `buys`) and a seeded
// stream that toggles facts from a fixed pool: an absent fact is added
// (AddRow + ApplyDelta inserts), a present one retracted (RemoveRow +
// ApplyDelta deletes). No fsync, no socket: the time is maintenance and
// storage erase/index patching.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "eval/maintain.h"
#include "inputs.h"
#include "parser/parser.h"
#include "storage/snapshot.h"

namespace direbench {
namespace {

enum Class { kTc = 0, kSkewed = 1, kBuys = 2 };
constexpr const char* kClassNames[] = {"tc", "skewed", "buys"};

// One sub-program per class; the database holds their union.
constexpr const char* kClassRules[] = {
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- e(X, Z), t(Z, Y).\n",
    "out(X, Y) :- big(X, Z), big(Z, Y), tiny(X).\n"
    "r(X, Y) :- out(X, Y).\n"
    "r(X, Y) :- out(X, Z), r(Z, Y).\n",
    "buys(X, Y) :- likes(X, Y).\n"
    "buys(X, Y) :- trendy(X), buys(Z, Y).\n",
};

struct Fact {
  int cls = kTc;
  std::string pred;
  std::vector<std::string> values;
};

struct Inputs {
  std::vector<Fact> base;  // Never toggled.
  std::vector<Fact> pool;  // Toggled by the stream.
  std::vector<bool> initially_present;
};

Inputs MakeInputs(const Ctx& ctx) {
  // Full sizes: TC 100 nodes / 400 edges, skewed 200 nodes / 3,200 `big`
  // edges with 4 `tiny` sources, `buys` over 1,024 people / 205 products.
  const int k = ctx.smoke ? 4 : 1;
  const int pool_scale = ctx.smoke ? 4 : 1;
  Gen gen(ctx.seed, 3);
  Inputs in;
  auto edge_fact = [](int cls, const char* pred, int a, int b) {
    return Fact{cls, pred, {Node(a), Node(b)}};
  };
  // Draws `count` distinct facts from `make` that `taken` does not hold;
  // exactly a quarter of them (rounded) are present at the start.
  auto draw = [&](int count, std::set<std::vector<std::string>>* taken,
                  auto make) {
    const size_t first = in.pool.size();
    for (int i = 0; i < count;) {
      Fact f = make();
      std::vector<std::string> key = f.values;
      key.insert(key.begin(), f.pred);
      if (!taken->insert(key).second) continue;
      in.pool.push_back(std::move(f));
      in.initially_present.push_back(false);
      ++i;
    }
    for (int present = 0; present < (count + 2) / 4;) {
      const size_t i = first + gen.Below(static_cast<uint64_t>(count));
      if (!in.initially_present[i]) {
        in.initially_present[i] = true;
        ++present;
      }
    }
  };
  std::set<std::vector<std::string>> taken;
  auto take_base = [&](Fact f) {
    std::vector<std::string> key = f.values;
    key.insert(key.begin(), f.pred);
    taken.insert(key);
    in.base.push_back(std::move(f));
  };

  const int tc_n = 100 / k;
  for (const Edge& e : RandomGraph(&gen, tc_n, 400 / k)) {
    take_base(edge_fact(kTc, "e", e.first, e.second));
  }
  const int sk_n = 200 / k;
  for (const Edge& e : RandomGraph(&gen, sk_n, 3200 / k)) {
    take_base(edge_fact(kSkewed, "big", e.first, e.second));
  }
  for (int i = 0; i < 4; ++i) {
    take_base(Fact{kSkewed, "tiny", {Node(i * (sk_n / 4))}});
  }
  const int people = 1024 / k;
  const int products = 205 / k;
  ConsumerData c = MakeConsumer(&gen, people, products, 3, 0.1);
  for (const auto& [p, item] : c.likes) {
    take_base(Fact{kBuys, "likes", {Person(p), Item(item)}});
  }
  for (int p : c.trendy) take_base(Fact{kBuys, "trendy", {Person(p)}});

  // The pool, by what a toggle costs. Adds from cheap to dear: TC graph
  // edges, likes, big edges (~40 us), TC fresh-source edges (~90 us), tiny
  // sources (~0.5 ms), trendy people (~2 ms). Retracts: big edges (~0.1
  // ms), TC fresh-source edges (~0.3 ms), likes (~0.6 ms), tiny sources
  // (~5 ms), then the load-bearing trendy people and TC graph edges
  // (30-40 ms). The counts (shares 56/8/6/4/6/20 %) put each reported
  // quantile at least 10 points inside one group rather than on the edge
  // between two, so it does not jump with the seed: both p50s among the
  // fresh-source edges, whose cost does not depend on the seed, add p90
  // among trendy people, retract p90 among the load-bearing retracts.
  auto other_edge = [&](int cls, const char* pred, int n) {
    int a = static_cast<int>(gen.Below(n));
    int b = (a + 1 + static_cast<int>(gen.Below(n - 1))) % n;
    return edge_fact(cls, pred, a, b);
  };
  auto count = [&](int full) { return std::max(1, full / pool_scale); };
  int fresh = 0;
  draw(count(89), &taken, [&] {
    return Fact{kTc, "e",
                {"x" + std::to_string(fresh++),
                 Node(static_cast<int>(gen.Below(tc_n)))}};
  });
  draw(count(13), &taken, [&] { return other_edge(kTc, "e", tc_n); });
  draw(count(10), &taken, [&] {
    return Fact{kSkewed, "tiny", {Node(static_cast<int>(gen.Below(sk_n)))}};
  });
  draw(count(6), &taken, [&] { return other_edge(kSkewed, "big", sk_n); });
  draw(count(10), &taken, [&] {
    return Fact{kBuys, "likes",
                {Person(static_cast<int>(gen.Below(people))),
                 Item(static_cast<int>(gen.Below(products)))}};
  });
  draw(count(32), &taken, [&] {
    return Fact{kBuys, "trendy", {Person(static_cast<int>(gen.Below(people)))}};
  });
  return in;
}

std::string FullProgram() {
  return std::string(kClassRules[kTc]) + kClassRules[kSkewed] +
         kClassRules[kBuys];
}

// What the toggles of a run measured.
struct Latencies {
  Samples add_us, retract_us;
  Samples cls_add_us[3], cls_retract_us[3];
  dire::eval::MaintainStats totals;  // Summed over the run's deltas.
  size_t deltas = 0;
};

void Accumulate(const dire::eval::MaintainStats& s,
                dire::eval::MaintainStats* t) {
  t->count_inits += s.count_inits;
  t->variants_executed += s.variants_executed;
  t->rounds += s.rounds;
  t->overdeleted += s.overdeleted;
  t->tuples_rederived += s.tuples_rederived;
}

// A database at the fixpoint of the base facts plus the present pool facts,
// with its maintainer.
class Churn {
 public:
  Churn(const Ctx& ctx, const Inputs& in, const dire::ast::Program& program)
      : ctx_(ctx),
        in_(in),
        program_(program),
        present_(in.initially_present),
        stream_(ctx.seed, 4) {}

  // Loads the facts (not timed), then times what a maintained process pays
  // before its first write: the initial evaluation, building the
  // maintainer, and one warm toggle per class (derivation counts prime
  // lazily on the first delta that reaches a counting stratum).
  bool Setup(double* seconds) {
    for (const Fact& f : in_.base) {
      if (!db_.AddRow(f.pred, f.values).ok()) return false;
    }
    for (size_t i = 0; i < in_.pool.size(); ++i) {
      if (present_[i] && !db_.AddRow(in_.pool[i].pred, in_.pool[i].values).ok()) {
        return false;
      }
    }
    const int64_t start = NowNs();
    dire::eval::Evaluator ev(&db_);
    if (!ev.Evaluate(program_).ok()) return false;
    maintainer_ = std::make_unique<dire::eval::Maintainer>(&db_, program_);
    if (!maintainer_->init_status().ok()) return false;
    for (int cls = 0; cls < 3; ++cls) {
      for (size_t i = 0; i < in_.pool.size(); ++i) {
        if (in_.pool[i].cls != cls || present_[i]) continue;
        if (!Toggle(i, nullptr, nullptr, 0) || !Toggle(i, nullptr, nullptr, 0)) {
          return false;
        }
        break;
      }
    }
    *seconds = SecondsSince(start);
    return true;
  }

  // Toggles pool fact `i`; one timed sample is the storage mutation plus
  // ApplyDelta.
  bool Toggle(size_t i, Latencies* lat, Tracer* tracer, uint64_t op) {
    const Fact& f = in_.pool[i];
    const bool add = !present_[i];
    const char* kind = add ? "add" : "retract";
    const std::string tag = std::string(kClassNames[f.cls]) + "." + kind;
    const std::vector<dire::eval::FactDelta> delta{{f.pred, f.values}};
    const std::vector<dire::eval::FactDelta> none;
    bool ok = false;
    const int64_t start = NowNs();
    dire::Result<dire::eval::MaintainStats> stats =
        dire::Status::Internal("not applied");
    {
      Tracer::Span toggle(tracer, "ivm.toggle", op, tag);
      if (add) {
        Tracer::Span span(tracer, "storage.add_row", op, tag);
        ok = db_.AddRow(f.pred, f.values).ok();
      } else {
        Tracer::Span span(tracer, "storage.remove_row", op, tag);
        dire::Result<bool> removed = db_.RemoveRow(f.pred, f.values);
        ok = removed.ok() && *removed;
      }
      if (ok) {
        Tracer::Span span(tracer, "maintain.apply", op, tag);
        stats = add ? maintainer_->ApplyDelta(delta, none)
                    : maintainer_->ApplyDelta(none, delta);
        ok = stats.ok();
      }
    }
    const double us = static_cast<double>(NowNs() - start) * 1e-3;
    last_us_ = us;
    if (!ok) {
      std::fprintf(stderr, "ivm_churn: %s of %s failed\n", kind, tag.c_str());
      return false;
    }
    present_[i] = add;
    Accumulate(*stats, &totals_);
    if (lat != nullptr) {
      (add ? lat->add_us : lat->retract_us).Add(us);
      (add ? lat->cls_add_us : lat->cls_retract_us)[f.cls].Add(us);
      Accumulate(*stats, &lat->totals);
      ++lat->deltas;
    }
    return true;
  }

  // Continues the seeded toggle stream until `seconds` have passed (at
  // least one toggle); each toggle's latency also goes to `headline`.
  void Burst(double seconds, Latencies* lat, Tracer* tracer, Samples* headline) {
    const int64_t start = NowNs();
    do {
      if (broken_) return;  // The maintainer refuses deltas once dirty.
      const size_t i = stream_.Below(in_.pool.size());
      const bool ok = Toggle(i, lat, tracer, ops_++);
      ctx_.report->Op(ok);
      broken_ = !ok;
      if (ok) headline->Add(last_us_);
    } while (SecondsSince(start) < seconds);
  }

  // The final maintained state must equal a from-scratch evaluation of the
  // final base facts, byte for byte.
  void CheckAgainstScratch() {
    dire::storage::Database scratch;
    bool ok = true;
    for (const Fact& f : in_.base) ok = ok && scratch.AddRow(f.pred, f.values).ok();
    for (size_t i = 0; i < in_.pool.size(); ++i) {
      if (present_[i]) {
        ok = ok && scratch.AddRow(in_.pool[i].pred, in_.pool[i].values).ok();
      }
    }
    dire::eval::Evaluator ev(&scratch);
    ok = ok && ev.Evaluate(program_).ok();
    dire::Result<std::string> want = dire::storage::SaveSnapshot(scratch);
    dire::Result<std::string> got = dire::storage::SaveSnapshot(db_);
    ctx_.report->Check(ok && want.ok() && got.ok() && *want == *got,
                       "ivm_churn maintained state equals re-evaluation");
  }

  // The recompute alternative per class: a from-scratch Evaluate of that
  // class's sub-program over its current base facts.
  void TimeReevaluation(Tracer* tracer) {
    for (int cls = 0; cls < 3; ++cls) {
      dire::storage::Database db;
      for (const Fact& f : in_.base) {
        if (f.cls == cls) (void)db.AddRow(f.pred, f.values);
      }
      for (size_t i = 0; i < in_.pool.size(); ++i) {
        if (present_[i] && in_.pool[i].cls == cls) {
          (void)db.AddRow(in_.pool[i].pred, in_.pool[i].values);
        }
      }
      dire::ast::Program sub =
          dire::parser::ParseProgram(kClassRules[cls]).value();
      dire::eval::Evaluator ev(&db);
      Tracer::Span span(tracer, "maintain.reeval", 0, kClassNames[cls]);
      ctx_.report->Check(ev.Evaluate(sub).ok(),
                         std::string("ivm_churn re-evaluation of ") +
                             kClassNames[cls]);
    }
  }

  const dire::eval::MaintainStats& totals() const { return totals_; }

 private:
  const Ctx& ctx_;
  const Inputs& in_;
  const dire::ast::Program& program_;
  std::vector<bool> present_;
  dire::storage::Database db_;
  std::unique_ptr<dire::eval::Maintainer> maintainer_;
  dire::eval::MaintainStats totals_;  // Including set-up's warm toggles.
  Gen stream_;
  uint64_t ops_ = 0;
  double last_us_ = 0;
  bool broken_ = false;
};

void ReportLayers(const Ctx& ctx, const Latencies& lat, const Churn& churn,
                  Tracer* tracer) {
  Report* rep = ctx.report;
  for (int cls = 0; cls < 3; ++cls) {
    const std::string p = std::string("maintain.") + kClassNames[cls] + ".";
    rep->Layer(p + "add_p50_us", lat.cls_add_us[cls].Quantile(0.5), "us");
    rep->Layer(p + "add_p90_us", lat.cls_add_us[cls].Quantile(0.9), "us");
    rep->Layer(p + "retract_p50_us", lat.cls_retract_us[cls].Quantile(0.5), "us");
    rep->Layer(p + "retract_p90_us", lat.cls_retract_us[cls].Quantile(0.9), "us");
    rep->Layer(p + "reeval_ms",
               tracer->DurationsUs("maintain.reeval", kClassNames[cls]).Sum() * 1e-3,
               "ms");
  }
  const double n = lat.deltas > 0 ? static_cast<double>(lat.deltas) : 1;
  const dire::eval::MaintainStats& t = lat.totals;
  rep->Layer("maintain.variants_executed",
             static_cast<double>(t.variants_executed) / n, "count/op");
  rep->Layer("maintain.rounds", static_cast<double>(t.rounds) / n, "count/op");
  rep->Layer("maintain.overdeleted", static_cast<double>(t.overdeleted) / n,
             "count/op");
  rep->Layer("maintain.rederived", static_cast<double>(t.tuples_rederived) / n,
             "count/op");
  rep->Layer("maintain.rederive_ratio",
             t.overdeleted > 0 ? static_cast<double>(t.tuples_rederived) /
                                     static_cast<double>(t.overdeleted)
                               : 0,
             "ratio");
  rep->Layer("maintain.count_inits",
             static_cast<double>(churn.totals().count_inits), "count");
  rep->Layer("storage.add_row_us", tracer->DurationsUs("storage.add_row").Median(),
             "us");
  rep->Layer("storage.remove_row_us",
             tracer->DurationsUs("storage.remove_row").Median(), "us");
}

class IvmChurn : public Workload {
 public:
  explicit IvmChurn(const Ctx& ctx)
      : ctx_(ctx),
        in_(MakeInputs(ctx)),
        program_(dire::parser::ParseProgram(FullProgram()).value()) {}

  bool Prepare(bool time_setup) override {
    if (time_setup) {
      Samples setup;
      const int runs = ctx_.smoke ? 1 : 15;
      for (int i = 0; i < runs; ++i) {
        Churn c(ctx_, in_, program_);
        double s = 0;
        const bool ok = c.Setup(&s);
        ctx_.report->Op(ok);
        if (ok) setup.Add(s);
      }
      ctx_.report->EndToEnd("setup_s", setup.Median(), "s");
    }
    churn_ = std::make_unique<Churn>(ctx_, in_, program_);
    double ignored = 0;
    const bool ready = churn_->Setup(&ignored);
    ctx_.report->Check(ready, "ivm_churn set-up");
    return ready;
  }

  void Burst(double seconds, Tracer* tracer) override {
    churn_->Burst(seconds, &lat_, tracer, &headline[tracer->enabled() ? 1 : 0]);
  }

  void Finish(Tracer* tracer) override {
    churn_->CheckAgainstScratch();
    if (tracer->enabled()) {
      churn_->TimeReevaluation(tracer);
      ReportLayers(ctx_, lat_, *churn_, tracer);
      return;
    }
    Report* rep = ctx_.report;
    rep->EndToEnd("maintain_add_p50_us", lat_.add_us.Quantile(0.5), "us");
    rep->EndToEnd("maintain_add_p90_us", lat_.add_us.Quantile(0.9), "us");
    rep->EndToEnd("maintain_retract_p50_us", lat_.retract_us.Quantile(0.5), "us");
    rep->EndToEnd("maintain_retract_p90_us", lat_.retract_us.Quantile(0.9), "us");
  }

 private:
  const Ctx& ctx_;
  const Inputs in_;
  const dire::ast::Program program_;
  std::unique_ptr<Churn> churn_;
  Latencies lat_;
};

}  // namespace

std::unique_ptr<Workload> MakeIvmChurn(const Ctx& ctx) {
  return std::make_unique<IvmChurn>(ctx);
}

}  // namespace direbench
