#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace direbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

void Report::Check(bool ok, const std::string& what) {
  Op(ok);
  std::fprintf(stderr, "check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
}

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t op,
                   std::string tag)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(SpanRec{name, std::move(tag), NowNs(), 0, parent, op});
  open_spans.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  int64_t now = NowNs();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[index_].end_ns = now;
}

Samples Tracer::DurationsUs(const std::string& name,
                            const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const SpanRec& s : spans_) {
    if (s.name == name && (tag.empty() || s.tag == tag)) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& env_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child spans of one parent run one after another on one thread, so the
  // time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRec& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Agg {
    size_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream js;
  js << "{\"env\":" << env_json << ",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    int64_t dur = s.end_ns - s.start_ns;
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - child_ns[i];
    js << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"tag\":\"" << s.tag << "\",\"op\":" << s.op
       << ",\"parent\":" << s.parent << ",\"start_us\":"
       << (s.start_ns - t0) / 1000 << ",\"end_us\":" << (s.end_ns - t0) / 1000
       << "}";
  }
  js << "],\"summary\":[";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    js << (first ? "" : ",") << "{\"name\":\"" << name
       << "\",\"count\":" << a.count << ",\"total_ms\":"
       << static_cast<double>(a.total_ns) * 1e-6 << ",\"self_ms\":"
       << static_cast<double>(a.self_ns) * 1e-6 << "}";
    first = false;
  }
  js << "]}\n";
  return WriteFile(path, js.str());
}

ChildResult RunChild(const std::vector<std::string>& argv) {
  ChildResult result;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return result;
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int64_t start = NowNs();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return result;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  char buf[4096];
  ssize_t n;
  while ((n = ::read(pipe_fds[0], buf, sizeof(buf))) > 0) {
    result.out.append(buf, static_cast<size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_s = SecondsSince(start);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string* data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream s;
  s << in.rdbuf();
  *data = s.str();
  return true;
}

bool CopyDirFiles(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::create_directories(to, ec);
  if (ec) return false;
  for (const auto& entry : std::filesystem::directory_iterator(from, ec)) {
    // The lock belongs to whoever opens the copy.
    if (!entry.is_regular_file() || entry.path().filename() == "LOCK") {
      continue;
    }
    std::filesystem::copy_file(entry.path(), to + "/" +
                                   entry.path().filename().string(),
                               std::filesystem::copy_options::overwrite_existing,
                               ec);
    if (ec) return false;
  }
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t Fnv1a(const std::string& data) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace direbench
