// serve_mixed: an in-process server::Server with the default ServerConfig
// (WAL fsync before every ack, a fold every 32 writes, 4 workers,
// maintenance on) plus an access log, over TC of a random graph held as
// base facts. Three closed-loop clients each send 80% QUERY t(nK, X), 10%
// ADD of an edge from a fresh source node and 10% RETRACT of the oldest
// edge that client added (each client holds at most four such edges).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/checkpoint.h"
#include "eval/evaluator.h"
#include "eval/magic.h"
#include "eval/maintain.h"
#include "inputs.h"
#include "parser/parser.h"
#include "server/server.h"
#include "storage/persist.h"

namespace direbench {
namespace {

constexpr char kProgram[] =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- e(X, Z), t(Z, Y).\n";
constexpr int kClients = 3;

using Values = std::vector<std::string>;

struct Inputs {
  int nodes = 0;
  std::vector<Edge> base;
  // The 31-record WAL tail written after the completed checkpoint:
  // (insert?, edge values).
  std::vector<std::pair<bool, Values>> wal;
  // e after the WAL tail, and |t(nK, ·)| per node K over it.
  std::set<Values> recovered;
  std::vector<size_t> reach;
};

Inputs MakeInputs(const Ctx& ctx) {
  const int k = ctx.smoke ? 4 : 1;
  Inputs in;
  in.nodes = 200 / k;
  Gen gen(ctx.seed, 5);
  in.base = RandomGraph(&gen, in.nodes, 1600 / k);
  for (const Edge& e : in.base) in.recovered.insert({Node(e.first), Node(e.second)});
  // 24 edges from fresh sources w<j>, then 4 of them and 3 base edges
  // retracted: recovery maintains 20 inserts and 3 load-bearing deletes.
  for (int j = 0; j < 24; ++j) {
    Values v{"w" + std::to_string(j), Node(static_cast<int>(gen.Below(in.nodes)))};
    in.wal.emplace_back(true, v);
    in.recovered.insert(v);
  }
  for (int j = 0; j < 4; ++j) {
    in.wal.emplace_back(false, in.wal[j].second);
    in.recovered.erase(in.wal[j].second);
  }
  std::set<size_t> picked;
  while (picked.size() < 3) picked.insert(gen.Below(in.base.size()));
  for (size_t i : picked) {
    Values v{Node(in.base[i].first), Node(in.base[i].second)};
    in.wal.emplace_back(false, v);
    in.recovered.erase(v);
  }
  // Reachability over the recovered graph (w<j> sources have no incoming
  // edges, so they never appear in t(nK, ·)).
  std::vector<std::vector<int>> out(in.nodes);
  for (const Values& v : in.recovered) {
    if (v[0][0] == 'n') {
      out[std::stoi(v[0].substr(1))].push_back(std::stoi(v[1].substr(1)));
    }
  }
  for (int s = 0; s < in.nodes; ++s) {
    std::vector<bool> seen(in.nodes, false);
    std::vector<int> stack(out[s].begin(), out[s].end());
    size_t count = 0;
    while (!stack.empty()) {
      int x = stack.back();
      stack.pop_back();
      if (seen[x]) continue;
      seen[x] = true;
      ++count;
      for (int y : out[x]) {
        if (!seen[y]) stack.push_back(y);
      }
    }
    in.reach.push_back(count);
  }
  return in;
}

// Writes a data directory holding the base facts' fixpoint as a completed
// checkpoint, then appends the WAL tail: a server opening a copy recovers
// by maintaining the tail's net effect onto the checkpoint.
bool PrepareTemplate(const Inputs& in, const dire::ast::Program& program,
                     const std::string& dir) {
  dire::Result<std::unique_ptr<dire::storage::DataDir>> dd =
      dire::storage::DataDir::Open(dir);
  if (!dd.ok()) return false;
  for (const Edge& e : in.base) {
    if (!(*dd)->db()->AddRow("e", {Node(e.first), Node(e.second)}).ok()) return false;
  }
  dire::eval::DataDirCheckpointer cp(dd->get(), dire::eval::ProgramCrc(kProgram));
  dire::eval::EvalOptions options;
  options.checkpointer = &cp;
  dire::eval::Evaluator ev((*dd)->db(), options);
  if (!ev.Evaluate(program).ok()) return false;
  for (const auto& [insert, values] : in.wal) {
    bool removed = false;
    dire::Status s = insert ? (*dd)->AppendFact("e", values)
                            : (*dd)->RetractFact("e", values, &removed);
    if (!s.ok()) return false;
  }
  return true;
}

// The snapshot a from-scratch evaluation of `edges` checkpoints: what the
// server's final fold must reproduce byte for byte.
bool ReferenceSnapshot(const std::set<Values>& edges,
                       const dire::ast::Program& program, const std::string& dir,
                       std::string* bytes) {
  {
    dire::Result<std::unique_ptr<dire::storage::DataDir>> dd =
        dire::storage::DataDir::Open(dir);
    if (!dd.ok()) return false;
    for (const Values& v : edges) {
      if (!(*dd)->db()->AddRow("e", v).ok()) return false;
    }
    dire::eval::DataDirCheckpointer cp(dd->get(), dire::eval::ProgramCrc(kProgram));
    dire::eval::EvalOptions options;
    options.checkpointer = &cp;
    dire::eval::Evaluator ev((*dd)->db(), options);
    if (!ev.Evaluate(program).ok()) return false;
  }
  return ReadFile(dir + "/snapshot.dire", bytes);
}

// A server running on its own thread.
class LiveServer {
 public:
  ~LiveServer() { Stop(); }

  // Create() until ready(): the set-up a restarted server pays.
  bool Start(const std::string& data_dir, const std::string& access_log,
             const dire::ast::Program& program, double* seconds) {
    dire::server::ServerConfig config;
    config.data_dir = data_dir;
    config.access_log = access_log;
    const int64_t start = NowNs();
    dire::Result<std::unique_ptr<dire::server::Server>> created =
        dire::server::Server::Create(config, program, kProgram);
    if (!created.ok()) return false;
    server_ = std::move(created).value();
    runner_ = std::thread([this] {
      (void)server_->Run();
      exited_.store(true);
    });
    while (!server_->ready()) {
      if (exited_.load()) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (seconds != nullptr) *seconds = SecondsSince(start);
    return true;
  }

  void Stop() {
    if (server_ == nullptr) return;
    server_->Shutdown();
    if (runner_.joinable()) runner_.join();
    server_.reset();
  }

  int port() const { return server_->port(); }

 private:
  std::unique_ptr<dire::server::Server> server_;
  std::thread runner_;
  std::atomic<bool> exited_{false};
};

// One connection speaking the line protocol.
class Client {
 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  // Sends one request and reads its status line, plus the body through END
  // for multi-line verbs.
  bool RoundTrip(const std::string& line, bool multi, std::string* status,
                 std::vector<std::string>* body) {
    std::string framed = line + "\n";
    if (::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(framed.size())) {
      return false;
    }
    if (!ReadLine(status)) return false;
    if (body != nullptr) body->clear();
    if (!multi || status->rfind("OK", 0) != 0) return true;
    std::string got;
    while (ReadLine(&got)) {
      if (got == "END") return true;
      if (body != nullptr) body->push_back(got);
    }
    return false;
  }

 private:
  bool ReadLine(std::string* line) {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[16384];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    *line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// One client's seeded operation stream; the same seed and client index give
// the same operations whether played against the server or in process.
class Stream {
 public:
  enum Kind { kQuery, kAdd, kRetract };
  struct Op {
    Kind kind = kQuery;
    Values values;  // Query: {nK}; writes: the edge.
  };
  Stream(const Ctx& ctx, int client, int nodes)
      : gen_(ctx.seed, 100 + static_cast<uint64_t>(client)),
        client_(client),
        nodes_(nodes) {}

  Op Next() {
    const uint64_t u = gen_.Below(10);
    const int target = static_cast<int>(gen_.Below(static_cast<uint64_t>(nodes_)));
    Op op;
    if (u < 8) {
      op.kind = kQuery;
      op.values = {Node(target)};
    } else if (outstanding_.size() == kOutstanding) {
      op.kind = kRetract;
      op.values = outstanding_.front();
      outstanding_.pop_front();
    } else {
      op.kind = kAdd;
      op.values = {"x" + std::to_string(client_) + "_" + std::to_string(fresh_++),
                   Node(target)};
      outstanding_.push_back(op.values);
    }
    return op;
  }

  const std::deque<Values>& outstanding() const { return outstanding_; }

 private:
  // Writes add until the client holds this many edges, then alternate
  // retract and add. A fixed count keeps the size of t, and with it the cost
  // of every full-scan QUERY, the same over the run and from seed to seed.
  static constexpr size_t kOutstanding = 4;

  Gen gen_;
  int client_;
  int nodes_;
  int fresh_ = 0;
  std::deque<Values> outstanding_;
};

std::string EdgeText(const Values& v) { return "e(" + v[0] + ", " + v[1] + ")"; }

// Per-verb queue and execution times from the access log.
void ReportAccessLog(const Ctx& ctx, const std::string& log_path,
                     const std::map<std::string, double>& stats,
                     const Samples& query_rtt_us) {
  std::string log;
  ReadFile(log_path, &log);
  Samples queue[2], exec[2], server_total[2];
  size_t pos = 0;
  auto field = [](const std::string& line, const char* key) {
    size_t at = line.find(std::string("\"") + key + "\":");
    return at == std::string::npos ? std::string()
                                   : line.substr(at + std::strlen(key) + 3);
  };
  while (pos < log.size()) {
    size_t end = log.find('\n', pos);
    if (end == std::string::npos) end = log.size();
    const std::string line = log.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("\"type\":\"request\"") == std::string::npos) continue;
    const std::string verb = field(line, "verb");
    const int v = verb.rfind("\"QUERY\"", 0) == 0 ? 0 : 1;
    const double q = std::atof(field(line, "queue_us").c_str());
    const double x = std::atof(field(line, "exec_us").c_str());
    queue[v].Add(q);
    exec[v].Add(x);
    server_total[v].Add(q + x);
  }
  const char* verbs[] = {"query", "write"};
  for (int v = 0; v < 2; ++v) {
    const std::string p = std::string("server.") + verbs[v] + ".";
    ctx.report->Layer(p + "queue_p50_us", queue[v].Quantile(0.5), "us");
    ctx.report->Layer(p + "queue_p99_us", queue[v].Quantile(0.99), "us");
    ctx.report->Layer(p + "exec_p50_us", exec[v].Quantile(0.5), "us");
    ctx.report->Layer(p + "exec_p99_us", exec[v].Quantile(0.99), "us");
  }
  ctx.report->Layer("server.query.wire_us",
                    query_rtt_us.Median() - server_total[0].Median(), "us");
  auto stat = [&](const char* key) {
    auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
  };
  ctx.report->Layer("server.ivm_applied", stat("ivm_applied_total"), "count");
  ctx.report->Layer("server.ivm_fallbacks", stat("ivm_fallbacks_total"), "count");
  ctx.report->Layer("server.folds", stat("checkpoints_total"), "count");
  ctx.report->Layer("server.overloaded", stat("rejected_total"), "count");
}

// Client 0's stream replayed in process, single-threaded, against the
// layers the server composes: DataDir (open, WAL commit, fold),
// Maintainer and eval::SelectMatching.
void Replay(const Ctx& ctx, const Inputs& in, const dire::ast::Program& program,
            const std::string& tmpl, size_t ops, Tracer* tracer) {
  const std::string dir = ctx.work + "/replay";
  if (!CopyDirFiles(tmpl, dir)) {
    ctx.report->Check(false, "serve_mixed replay copies the data dir");
    return;
  }
  bool ok = true;
  {
    dire::Result<std::unique_ptr<dire::storage::DataDir>> opened =
        dire::Status::Internal("not opened");
    {
      Tracer::Span span(tracer, "storage.recover_open", 0);
      opened = dire::storage::DataDir::Open(dir);
    }
    if (!opened.ok()) {
      ctx.report->Check(false, "serve_mixed replay opens the data dir");
      return;
    }
    dire::storage::DataDir& dd = **opened;
    dire::eval::Maintainer maintainer(dd.db(), program);
    dire::eval::DataDirCheckpointer cp(&dd, dire::eval::ProgramCrc(kProgram));
    // The WAL tail's net effect, as the server's maintained recovery
    // applies it (each tail record touches a distinct fact or undoes an
    // earlier one).
    std::map<Values, bool> net;
    for (const dire::storage::DataDir::WalTailOp& op : dd.wal_tail()) {
      if (!op.effective) continue;
      auto [it, fresh] = net.emplace(op.values, op.insert);
      if (!fresh) net.erase(it);
    }
    std::vector<dire::eval::FactDelta> ins, del;
    for (const auto& [values, insert] : net) {
      (insert ? ins : del).push_back({"e", values});
    }
    {
      Tracer::Span span(tracer, "maintain.recover_apply", 0);
      ok = maintainer.ApplyDelta(ins, del).ok();
    }
    auto fold = [&](uint64_t op) {
      Tracer::Span span(tracer, "storage.fold", op);
      return cp.Checkpoint(maintainer.num_strata(), 0, nullptr).ok();
    };
    ok = ok && fold(0);
    Stream stream(ctx, 0, in.nodes);
    int writes = 0;
    for (size_t n = 0; ok && n < ops; ++n) {
      const Stream::Op op = stream.Next();
      if (op.kind == Stream::kQuery) {
        dire::ast::Atom atom =
            dire::parser::ParseAtom("t(" + op.values[0] + ", X)").value();
        Tracer::Span span(tracer, "eval.select", n);
        dire::Result<dire::eval::SelectResult> r =
            dire::eval::SelectMatching(*dd.db(), atom);
        ok = r.ok() && r->tuples.size() == in.reach[std::stoi(op.values[0].substr(1))];
        continue;
      }
      const bool add = op.kind == Stream::kAdd;
      bool changed = true;
      {
        Tracer::Span span(tracer, "storage.wal_commit", n);
        ok = add ? dd.AppendFact("e", op.values).ok()
                 : dd.RetractFact("e", op.values, &changed).ok();
      }
      const std::vector<dire::eval::FactDelta> delta{{"e", op.values}};
      {
        Tracer::Span span(tracer, "maintain.serve_apply", n);
        ok = ok && changed &&
             (add ? maintainer.ApplyDelta(delta, {}) : maintainer.ApplyDelta({}, delta))
                 .ok();
      }
      if (ok && ++writes % 32 == 0) ok = fold(n);
    }
  }
  ctx.report->Check(ok, "serve_mixed in-process replay");
  RemoveTree(dir);
  Samples wal = tracer->DurationsUs("storage.wal_commit");
  ctx.report->Layer("storage.wal_commit_p50_us", wal.Quantile(0.5), "us");
  ctx.report->Layer("storage.wal_commit_p99_us", wal.Quantile(0.99), "us");
  ctx.report->Layer("storage.fold_ms",
                    tracer->DurationsUs("storage.fold").Median() * 1e-3, "ms");
  ctx.report->Layer("storage.recover_open_ms",
                    tracer->DurationsUs("storage.recover_open").Median() * 1e-3,
                    "ms");
  ctx.report->Layer("eval.select_us", tracer->DurationsUs("eval.select").Median(),
                    "us");
  ctx.report->Layer("maintain.serve_apply_us",
                    tracer->DurationsUs("maintain.serve_apply").Median(), "us");
}

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(const Ctx& ctx)
      : ctx_(ctx),
        in_(MakeInputs(ctx)),
        program_(dire::parser::ParseProgram(kProgram).value()),
        tmpl_(ctx.work + "/serve-template"),
        dir_(ctx.work + "/serve"),
        log_path_(ctx.work + "/serve.access.log") {}

  bool Prepare(bool time_setup) override {
    if (!PrepareTemplate(in_, program_, tmpl_)) {
      ctx_.report->Check(false, "serve_mixed prepares its data dir");
      return false;
    }
    if (time_setup) {
      // Crash recovery by WAL-tail maintenance, several times.
      Samples setup;
      const int runs = ctx_.smoke ? 1 : 7;
      for (int i = 0; i < runs; ++i) {
        const std::string dir = ctx_.work + "/setup-" + std::to_string(i);
        double s = 0;
        bool ok = false;
        {
          LiveServer server;
          ok = CopyDirFiles(tmpl_, dir) &&
               server.Start(dir, dir + ".access.log", program_, &s);
        }
        ctx_.report->Op(ok);
        if (ok) setup.Add(s);
        RemoveTree(dir);
      }
      ctx_.report->EndToEnd("setup_s", setup.Median(), "s");
    }
    bool ok = CopyDirFiles(tmpl_, dir_) &&
              server_.Start(dir_, log_path_, program_, nullptr);
    for (int c = 0; ok && c < kClients; ++c) {
      clients_.push_back(std::make_unique<ClientState>(ctx_, c, in_.nodes));
      ok = clients_.back()->client.Connect(server_.port());
    }
    ctx_.report->Check(ok, "serve_mixed server starts");
    return ok;
  }

  // All clients in closed loop until `seconds` have passed.
  void Burst(double seconds, Tracer* tracer) override {
    std::vector<std::thread> threads;
    const size_t ops_before = TotalOps();
    const int64_t start = NowNs();
    for (auto& state : clients_) {
      threads.emplace_back([&, s = state.get()] { RunClient(s, start, seconds, tracer); });
    }
    for (std::thread& t : threads) t.join();
    burst_ops_per_s_.Add(static_cast<double>(TotalOps() - ops_before) /
                         SecondsSince(start));
    for (auto& state : clients_) {
      headline[tracer->enabled() ? 1 : 0].Append(state->burst_query_us);
      state->burst_query_us = Samples();
    }
  }

  void Finish(Tracer* tracer) override {
    std::map<std::string, double> stats;
    Client probe;
    std::string status;
    std::vector<std::string> body;
    if (probe.Connect(server_.port()) &&
        probe.RoundTrip("STATS", true, &status, &body)) {
      for (const std::string& line : body) {
        size_t sp = line.find(' ');
        if (sp != std::string::npos) {
          stats[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
        }
      }
    }
    ctx_.report->Check(stats.count("ivm_fallbacks_total") == 1 &&
                           stats["ivm_fallbacks_total"] == 0,
                       "serve_mixed ivm_fallbacks_total == 0");
    server_.Stop();

    // Every acknowledged write is reflected: the folded snapshot equals a
    // from-scratch evaluation of the base facts the clients left behind.
    std::set<Values> final_edges = in_.recovered;
    Samples query_us, write_us;
    for (const auto& state : clients_) {
      for (const Values& v : state->stream.outstanding()) final_edges.insert(v);
      query_us.Append(state->query_us);
      write_us.Append(state->write_us);
    }
    std::string got, want;
    const bool same = ReadFile(dir_ + "/snapshot.dire", &got) &&
                      ReferenceSnapshot(final_edges, program_, dir_ + ".ref", &want) &&
                      got == want;
    ctx_.report->Check(same, "serve_mixed folded snapshot equals re-evaluation");

    if (tracer->enabled()) {
      ReportAccessLog(ctx_, log_path_, stats, query_us);
      Replay(ctx_, in_, program_, tmpl_, clients_.empty() ? 0 : clients_[0]->ops,
             tracer);
      return;
    }
    Report* rep = ctx_.report;
    rep->EndToEnd("serve_ops_per_s", burst_ops_per_s_.Median(), "1/s");
    rep->EndToEnd("query_p50_us", query_us.Quantile(0.5), "us");
    rep->EndToEnd("query_p99_us", query_us.Quantile(0.99), "us");
    rep->EndToEnd("write_p99_us", write_us.Quantile(0.99), "us");
  }

 private:
  // One client connection with its own seeded stream and samples.
  struct ClientState {
    ClientState(const Ctx& ctx, int index, int nodes)
        : index(index), stream(ctx, index, nodes) {}
    int index;
    Client client;
    Stream stream;
    Samples query_us, write_us, burst_query_us;
    size_t ops = 0;
  };

  size_t TotalOps() const {
    size_t ops = 0;
    for (const auto& state : clients_) ops += state->ops;
    return ops;
  }

  void RunClient(ClientState* s, int64_t start, double seconds, Tracer* tracer) {
    std::string status;
    std::vector<std::string> body;
    do {
      const Stream::Op op = s->stream.Next();
      const uint64_t op_id = (static_cast<uint64_t>(s->index) << 32) | s->ops;
      bool ok = false;
      const int64_t t0 = NowNs();
      if (op.kind == Stream::kQuery) {
        Tracer::Span span(tracer, "server.rtt", op_id, "QUERY");
        const size_t want = in_.reach[std::stoi(op.values[0].substr(1))];
        ok = s->client.RoundTrip("QUERY t(" + op.values[0] + ", X)", true, &status,
                                 &body) &&
             status == "OK " + std::to_string(want) && body.size() == want;
      } else {
        const bool add = op.kind == Stream::kAdd;
        Tracer::Span span(tracer, "server.rtt", op_id, add ? "ADD" : "RETRACT");
        ok = s->client.RoundTrip((add ? "ADD " : "RETRACT ") + EdgeText(op.values),
                                 false, &status, nullptr) &&
             status == (add ? "OK added=1" : "OK removed=1");
      }
      const double us = static_cast<double>(NowNs() - t0) * 1e-3;
      if (op.kind == Stream::kQuery) {
        s->query_us.Add(us);
        s->burst_query_us.Add(us);
      } else {
        s->write_us.Add(us);
      }
      ctx_.report->Op(ok);
      if (!ok) {
        std::fprintf(stderr, "serve_mixed: client %d op %zu got '%s'\n", s->index,
                     s->ops, status.c_str());
      }
      ++s->ops;
    } while (SecondsSince(start) < seconds);
  }

  const Ctx& ctx_;
  const Inputs in_;
  const dire::ast::Program program_;
  const std::string tmpl_;
  const std::string dir_;
  const std::string log_path_;
  LiveServer server_;
  std::vector<std::unique_ptr<ClientState>> clients_;
  Samples burst_ops_per_s_;  // Completed requests per second, one per burst.
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(const Ctx& ctx) {
  return std::make_unique<ServeMixed>(ctx);
}

}  // namespace direbench
