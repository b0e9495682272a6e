// The wire side of the benchmark: the pre-load correctness probe and the
// load generator. One thread drives every connection from one epoll loop.
//
// Open-loop connections send on a Poisson schedule whatever the replies
// do (pipelining when the daemon falls behind), and each request is timed
// from its scheduled send time. Closed-loop connections keep exactly one
// request outstanding. Every reply is framed by server::ReplyParser and
// checked against its request; error replies, refusals and requests left
// unanswered count as failed.

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "commands.h"
#include "json.h"
#include "server/dispatch.h"
#include "server/protocol.h"
#include "stats.h"
#include "util/logging.h"
#include "util/random.h"
#include "wire.h"

namespace perfbench {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// utime + stime of `pid` in seconds, from /proc/<pid>/stat; -1 if
/// unreadable.
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t rparen = stat.rfind(')');
  if (rparen == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(rparen + 2));
  std::string f;
  double utime = 0, stime = 0;
  // Fields after "(comm)": state is field 3; utime/stime are 14 and 15.
  for (int field = 3; field <= 15 && fields >> f; ++field) {
    if (field == 14) utime = std::stod(f);
    if (field == 15) stime = std::stod(f);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

enum class Phase { kMain, kCapacity, kStats };

/// Sub-windows of the measured main window and of the capacity phase.
constexpr size_t kWindows = 5;
/// epoll tag of the loop's timerfd (connections are tagged by index).
constexpr uint64_t kTimerId = UINT64_MAX;
/// Unmeasured start of the main phase (connections and caches settle).
constexpr double kWarmupS = 1.0;

struct Record {
  Request req;
  Phase phase = Phase::kMain;
  bool open_loop = false;
  Timeline t;
  ReplyStatus status = ReplyStatus::kOk;
};

struct Conn {
  int fd = -1;
  bool closed_loop = false;
  bool dead = false;
  sccf::server::ReplyParser parser;
  std::string out;
  size_t out_off = 0;
  std::deque<size_t> inflight;  // record indices, in send order
};

class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, const WireTarget& target,
         const LoadOptions& opt)
      : spec_(spec), target_(target), opt_(opt),
        source_(spec, opt.seed, target.users, target.items),
        arrivals_(opt.seed ^ 0x5bd1e995ull) {}

  ~LoadGenerator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (control_fd_ >= 0) ::close(control_fd_);
    if (timer_fd_ >= 0) ::close(timer_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  std::string Run();

 private:
  void Open();
  void SnapshotHistory(const std::vector<int>& users,
                       std::vector<int64_t>* lengths);
  /// One epoll-driven phase over conns_[0, open + closed). Open-loop
  /// connections are the first `open`; sends stop at `duration`, then
  /// in-flight replies get a grace period.
  void RunLoop(Phase phase, int open, int closed, double rate,
               double duration, double window_lo, double window_hi,
               bool sample_stats);
  /// Sends on `conn`; a record without a schedule (closed loop) is
  /// scheduled at its send time.
  void Send(size_t conn, Record record);
  void Flush(Conn& c);
  void OnReadable(size_t conn, Phase phase, double phase_end);
  void KillConn(Conn& c);
  /// Wakes the loop at steady-clock second `at`.
  void ArmTimer(double at);

  const WorkloadSpec& spec_;
  const WireTarget& target_;
  const LoadOptions& opt_;
  RequestSource source_;
  sccf::Rng arrivals_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int control_fd_ = -1;
  std::vector<Conn> conns_;  // workload connections, then the STATS one
  std::vector<Record> records_;
  size_t inflight_ = 0;
  std::vector<int64_t> staged_samples_;
  double cpu_lo_ = -1.0, cpu_hi_ = -1.0;
  double window_start_ = 0.0;  // absolute start of the main window
};

void LoadGenerator::Open() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  SCCF_CHECK(epoll_fd_ >= 0 && timer_fd_ >= 0) << std::strerror(errno);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = kTimerId;
  SCCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev) == 0);

  const int n = std::max(spec_.open_connections + spec_.closed_connections,
                         1) + 1;  // + the STATS sampler
  conns_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Conn& c = conns_[static_cast<size_t>(i)];
    c.fd = ConnectTcp(target_.host, target_.port);
    SCCF_CHECK(c.fd >= 0) << "connect: " << std::strerror(errno);
    SCCF_CHECK(::fcntl(c.fd, F_SETFL, O_NONBLOCK) == 0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(i);
    SCCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev) == 0);
  }
  control_fd_ = ConnectTcp(target_.host, target_.port);
  SCCF_CHECK(control_fd_ >= 0) << "connect: " << std::strerror(errno);
}

void LoadGenerator::SnapshotHistory(const std::vector<int>& users,
                             std::vector<int64_t>* lengths) {
  lengths->assign(users.size(), -1);
  constexpr size_t kBatch = 2000;
  for (size_t lo = 0; lo < users.size(); lo += kBatch) {
    const size_t hi = std::min(users.size(), lo + kBatch);
    std::vector<std::string> reqs;
    for (size_t i = lo; i < hi; ++i) {
      Request r;
      r.kind = Kind::kHistory;
      r.user = users[i];
      reqs.emplace_back();
      EncodeRequest(r, &reqs.back());
    }
    std::vector<std::string> replies;
    if (!PipelinedRoundTrip(control_fd_, reqs, &replies)) return;
    for (size_t i = lo; i < hi; ++i) {
      (*lengths)[i] = ArrayLength(replies[i - lo]);
    }
  }
}

void LoadGenerator::ArmTimer(double at) {
  // steady_clock is CLOCK_MONOTONIC on Linux, so `at` is an absolute
  // timerfd deadline.
  itimerspec its{};
  const double clamped = std::max(at, 1e-6);
  its.it_value.tv_sec = static_cast<time_t>(clamped);
  its.it_value.tv_nsec = static_cast<long>(
      (clamped - static_cast<double>(its.it_value.tv_sec)) * 1e9);
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
}

void LoadGenerator::Send(size_t conn, Record record) {
  Conn& c = conns_[conn];
  record.t.sent = Now();
  if (!record.open_loop) record.t.scheduled = record.t.sent;
  const size_t idx = records_.size();
  records_.push_back(std::move(record));
  if (c.dead) return;  // never answered: counts as failed
  EncodeRequest(records_[idx].req, &c.out);
  c.inflight.push_back(idx);
  ++inflight_;
  Flush(c);
}

void LoadGenerator::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t w =
        ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (w > 0) {
      c.out_off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    KillConn(c);
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | (c.out.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  ev.data.u64 = static_cast<uint64_t>(&c - conns_.data());
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void LoadGenerator::KillConn(Conn& c) {
  if (c.dead) return;
  c.dead = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  inflight_ -= c.inflight.size();
  c.inflight.clear();  // their records stay unanswered
}

void LoadGenerator::OnReadable(size_t conn, Phase phase, double phase_end) {
  Conn& c = conns_[conn];
  char buf[65536];
  bool closed = false;
  while (true) {
    const ssize_t r = ::read(c.fd, buf, sizeof(buf));
    if (r > 0) {
      c.parser.Feed(std::string_view(buf, static_cast<size_t>(r)));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;
    break;
  }
  const double now = Now();
  std::string reply;
  while (!c.inflight.empty()) {
    const auto result = c.parser.Next(&reply);
    if (result == sccf::server::ReplyParser::Result::kNeedMore) break;
    if (result == sccf::server::ReplyParser::Result::kError) {
      closed = true;
      break;
    }
    Record& rec = records_[c.inflight.front()];
    c.inflight.pop_front();
    --inflight_;
    rec.t.done = now;
    rec.status = CheckReply(rec.req.kind, rec.req.events.size(), reply);
    if (rec.req.kind == Kind::kStats && rec.status == ReplyStatus::kOk) {
      staged_samples_.push_back(StatsField(reply, "pending_upserts"));
    }
    if (c.closed_loop && now < phase_end) {
      Record next;
      next.req = source_.Next();
      next.phase = phase;
      Send(conn, std::move(next));
    }
  }
  if (closed) KillConn(c);
}

void LoadGenerator::RunLoop(Phase phase, int open, int closed, double rate,
                     double duration, double window_lo, double window_hi,
                     bool sample_stats) {
  constexpr double kGraceS = 10.0;
  constexpr double kStatsEveryS = 0.1;
  const double t0 = Now();
  const double end = t0 + duration;
  for (int i = 0; i < open + closed; ++i) {
    conns_[static_cast<size_t>(i)].closed_loop = i >= open;
  }
  const auto gap = [&] { return -std::log(1.0 - arrivals_.UniformDouble()) / rate; };
  double next_at = open > 0 ? t0 + gap() : INFINITY;
  size_t next_conn = 0;
  double next_stats = sample_stats ? t0 : INFINITY;
  const size_t stats_conn = conns_.size() - 1;
  const bool cpu = phase == Phase::kMain && opt_.daemon_pid > 0;
  if (phase == Phase::kMain) window_start_ = t0 + window_lo;

  for (int i = open; i < open + closed; ++i) {
    Record r;
    r.req = source_.Next();
    r.phase = phase;
    Send(static_cast<size_t>(i), std::move(r));
  }

  std::vector<epoll_event> events(64);
  while (true) {
    double now = Now();
    while (next_at <= now && next_at < end) {
      Record r;
      // ingest_burst's open-loop connection carries the read probe.
      r.req = spec_.mix == Mix::kIngestFrames ? source_.NextProbe()
                                              : source_.Next();
      r.phase = phase;
      r.open_loop = true;
      r.t.scheduled = next_at;
      Send(next_conn, std::move(r));
      next_conn = (next_conn + 1) % static_cast<size_t>(open);
      next_at += gap();
      now = Now();
    }
    if (next_stats <= now && now < end) {
      Record r;
      r.req.kind = Kind::kStats;
      r.phase = Phase::kStats;
      Send(stats_conn, std::move(r));
      next_stats += kStatsEveryS;
    }
    if (cpu && cpu_lo_ < 0 && now >= t0 + window_lo) {
      cpu_lo_ = ProcessCpuSeconds(opt_.daemon_pid);
    }
    if (cpu && cpu_hi_ < 0 && now >= t0 + window_hi) {
      cpu_hi_ = ProcessCpuSeconds(opt_.daemon_pid);
    }
    if (now >= end && (inflight_ == 0 || now >= end + kGraceS)) break;

    // Sleep until a reply or the next deadline. (A polling generator sends
    // more punctually, but on a shared virtualized host the busy vCPU it
    // burns raises the steal charged to the daemon, which moved p50 more.)
    double wake = now >= end ? end + kGraceS : end;
    if (next_at < end) wake = std::min(wake, next_at);
    if (next_stats < end) wake = std::min(wake, next_stats);
    if (cpu && cpu_lo_ < 0) wake = std::min(wake, t0 + window_lo);
    if (cpu && cpu_hi_ < 0) wake = std::min(wake, t0 + window_hi);
    ArmTimer(wake);
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      SCCF_CHECK(errno == EINTR) << "epoll_wait: " << std::strerror(errno);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kTimerId) {
        uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      Conn& c = conns_[id];
      if (c.dead) continue;
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        OnReadable(static_cast<size_t>(id), phase, end);
      }
      if (!c.dead && (events[i].events & EPOLLOUT) != 0) Flush(c);
    }
  }
  // Anything still in flight after the grace period is abandoned (and
  // counted as failed); its connection can no longer be trusted.
  for (Conn& c : conns_) {
    if (!c.inflight.empty()) KillConn(c);
  }
}

std::string SummaryJson(const Summary& s) {
  return JsonObject()
      .Int("n", static_cast<int64_t>(s.n))
      .Num("p50_ms", s.p50)
      .Num("tail_ms", s.tail)
      .Int("tail_percent", s.tail_percent)
      .str();
}

std::string LoadGenerator::Run() {
  Open();
  // HISTORY lengths of every corpus user before load: after the run each
  // user's history must have grown by exactly its acknowledged triples.
  std::vector<int> all_users(target_.users);
  for (size_t u = 0; u < all_users.size(); ++u) all_users[u] = static_cast<int>(u);
  std::vector<int64_t> before;
  SnapshotHistory(all_users, &before);

  const double main_s = kWarmupS + opt_.seconds;
  RunLoop(Phase::kMain, spec_.open_connections, spec_.closed_connections,
          spec_.rate_rps, main_s, kWarmupS, main_s, opt_.trace);

  constexpr double kCapacityWarmupS = 0.5;
  const double capacity_s = opt_.seconds / 4;
  double capacity_window_start = 0.0;
  if (spec_.capacity_phase) {
    capacity_window_start = Now() + kCapacityWarmupS;
    RunLoop(Phase::kCapacity, 0, spec_.open_connections, 0.0,
            kCapacityWarmupS + capacity_s, 0.0, 0.0, false);
  }

  // Aggregate. Main-phase latencies and capacity completions are kept per
  // sub-window (see WindowedSummary).
  using Windows = std::vector<std::vector<double>>;
  Windows all(kWindows), by_kind[kNumKinds];
  for (Windows& w : by_kind) w.resize(kWindows);
  std::vector<double> lag, capacity_done(kWindows, 0.0);
  size_t attempted = 0, failed = 0, errors = 0, refused = 0, bad_shape = 0,
         unanswered = 0;
  size_t main_done = 0;
  int64_t main_events = 0;
  std::unordered_map<int, int64_t> acked;
  const double win_lo = window_start_, win_hi = window_start_ + opt_.seconds;
  const auto window_of = [](double t, double lo, double len) {
    return std::min(kWindows - 1,
                    static_cast<size_t>((t - lo) / len * kWindows));
  };
  for (const Record& r : records_) {
    ++attempted;
    const bool answered = r.t.done >= 0.0;
    const bool ok = answered && r.status == ReplyStatus::kOk;
    if (!ok) {
      ++failed;
      if (!answered) ++unanswered;
      else if (r.status == ReplyStatus::kRefused) ++refused;
      else if (r.status == ReplyStatus::kError) ++errors;
      else ++bad_shape;
      continue;
    }
    if (r.req.kind == Kind::kIngest) {
      for (const Engine::Event& e : r.req.events) ++acked[e.user];
    }
    const int kind = static_cast<int>(r.req.kind);
    switch (r.phase) {
      case Phase::kMain: {
        if (r.t.scheduled < win_lo || r.t.scheduled >= win_hi) break;
        ++main_done;
        const size_t w = window_of(r.t.scheduled, win_lo, opt_.seconds);
        all[w].push_back(LatencyMs(r.t));
        by_kind[kind][w].push_back(LatencyMs(r.t));
        if (r.req.kind == Kind::kIngest) {
          main_events += static_cast<int64_t>(r.req.events.size());
        }
        if (r.open_loop) lag.push_back(LagMs(r.t));
        break;
      }
      case Phase::kCapacity:
        if (r.t.sent >= capacity_window_start &&
            r.t.sent < capacity_window_start + capacity_s) {
          capacity_done[window_of(r.t.sent, capacity_window_start,
                                  capacity_s)] += kWindows / capacity_s;
        }
        break;
      case Phase::kStats: break;
    }
  }

  if (!opt_.dump_path.empty()) {
    std::ofstream dump(opt_.dump_path);
    dump << "scheduled_s\tsent_s\tlatency_ms\tkind\tphase\n";
    for (const Record& r : records_) {
      if (r.t.done < 0) continue;
      dump << r.t.scheduled - win_lo << '\t' << r.t.sent - win_lo << '\t'
           << LatencyMs(r.t) << '\t' << KindName(r.req.kind) << '\t'
           << static_cast<int>(r.phase) << '\n';
    }
  }

  // HISTORY growth check over every user with acknowledged triples.
  std::vector<int> touched;
  for (const auto& [user, n] : acked) touched.push_back(user);
  std::sort(touched.begin(), touched.end());
  std::vector<int64_t> after;
  SnapshotHistory(touched, &after);
  size_t history_mismatches = 0;
  for (size_t i = 0; i < touched.size(); ++i) {
    const int u = touched[i];
    if (before[static_cast<size_t>(u)] < 0 || after[i] < 0 ||
        after[i] != before[static_cast<size_t>(u)] + acked[u]) {
      ++history_mismatches;
    }
  }

  const Summary lag_summary = Summarize(&lag);
  JsonObject out;
  out.Int("attempted", static_cast<int64_t>(attempted))
      .Int("failed", static_cast<int64_t>(failed))
      .Int("errors", static_cast<int64_t>(errors))
      .Int("refused", static_cast<int64_t>(refused))
      .Int("bad_shape", static_cast<int64_t>(bad_shape))
      .Int("unanswered", static_cast<int64_t>(unanswered))
      .Int("history_users_checked", static_cast<int64_t>(touched.size()))
      .Int("history_mismatches", static_cast<int64_t>(history_mismatches))
      .Raw("all", SummaryJson(WindowedSummary(&all)))
      .Raw("recommend", SummaryJson(WindowedSummary(
                            &by_kind[static_cast<int>(Kind::kRecommend)])))
      .Raw("ingest", SummaryJson(WindowedSummary(
                         &by_kind[static_cast<int>(Kind::kIngest)])))
      .Num("throughput_rps", static_cast<double>(main_done) / opt_.seconds)
      .Num("events_per_s", static_cast<double>(main_events) / opt_.seconds)
      .Num("capacity_rps",
           spec_.capacity_phase
               ? Median(&capacity_done)
               : static_cast<double>(main_done) / opt_.seconds)
      .Num("daemon_cpu_s",
           cpu_lo_ >= 0 && cpu_hi_ >= 0 ? cpu_hi_ - cpu_lo_ : -1.0)
      .Int("main_completed", static_cast<int64_t>(main_done))
      .Num("lag_p99_ms", lag_summary.n > 0 ? lag_summary.tail : 0.0)
      .Int("lag_n", static_cast<int64_t>(lag_summary.n));
  if (opt_.trace) {
    double staged = 0;
    for (int64_t s : staged_samples_) staged += static_cast<double>(s);
    out.Num("staged_rows_mean",
            staged_samples_.empty() ? 0.0 : staged / staged_samples_.size())
        .Int("staged_samples", static_cast<int64_t>(staged_samples_.size()));
  }
  return out.str();
}

}  // namespace

std::string RunProbe(const WorkloadSpec& spec, const WireTarget& target) {
  Corpus corpus(spec.daemon);
  SCCF_CHECK(corpus.users() == target.users && corpus.items() == target.items)
      << "in-process corpus " << corpus.users() << "x" << corpus.items()
      << " differs from the daemon's " << target.users << "x" << target.items;
  std::unique_ptr<Engine> engine = corpus.MakeEngine("");

  constexpr size_t kProbeUsers = 24;
  std::vector<std::string> requests, expected;
  for (size_t k = 0; k < kProbeUsers; ++k) {
    const int user = static_cast<int>((2 * k + 1) * target.users /
                                      (2 * kProbeUsers));
    for (Kind kind : {Kind::kRecommend, Kind::kNeighbors, Kind::kHistory}) {
      Request r;
      r.kind = kind;
      r.user = user;
      requests.emplace_back();
      EncodeRequest(r, &requests.back());
      sccf::server::RequestParser parser;
      parser.Feed(requests.back());
      sccf::server::Command cmd;
      std::string err;
      SCCF_CHECK(parser.Next(&cmd, &err) ==
                 sccf::server::RequestParser::Result::kCommand)
          << err;
      expected.emplace_back();
      sccf::server::Execute(*engine, cmd, &expected.back());
    }
  }
  const int fd = ConnectTcp(target.host, target.port);
  SCCF_CHECK(fd >= 0) << "connect: " << std::strerror(errno);
  std::vector<std::string> replies;
  const bool io_ok = PipelinedRoundTrip(fd, requests, &replies);
  ::close(fd);
  size_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!io_ok || replies[i] != expected[i]) ++mismatches;
  }
  return JsonObject()
      .Int("probes", static_cast<int64_t>(requests.size()))
      .Int("mismatches", static_cast<int64_t>(mismatches))
      .str();
}

std::string RunLoad(const WorkloadSpec& spec, const WireTarget& target,
                    const LoadOptions& options) {
  LoadGenerator generator(spec, target, options);
  return generator.Run();
}

}  // namespace perfbench
