#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>

namespace perfbench {

namespace {

/// Next CRLF-terminated line of `s` starting at `*pos` (without the CRLF);
/// false when there is none.
bool ReadLine(std::string_view s, size_t* pos, std::string_view* line) {
  const size_t end = s.find("\r\n", *pos);
  if (end == std::string_view::npos) return false;
  *line = s.substr(*pos, end - *pos);
  *pos = end + 2;
  return true;
}

bool ParseInt(std::string_view s, int64_t* v) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *v);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

/// Reads a `<prefix><integer>` line.
bool ReadTyped(std::string_view s, size_t* pos, char prefix, int64_t* v) {
  std::string_view line;
  return ReadLine(s, pos, &line) && !line.empty() && line[0] == prefix &&
         ParseInt(line.substr(1), v);
}

}  // namespace

int ConnectTcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool PipelinedRoundTrip(int fd, const std::vector<std::string>& requests,
                        std::vector<std::string>* replies) {
  std::string out;
  for (const std::string& r : requests) out += r;
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w = ::write(fd, out.data() + sent, out.size() - sent);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  sccf::server::ReplyParser parser;
  replies->clear();
  std::string reply;
  char buf[65536];
  while (replies->size() < requests.size()) {
    const auto result = parser.Next(&reply);
    if (result == sccf::server::ReplyParser::Result::kReply) {
      replies->push_back(std::move(reply));
      continue;
    }
    if (result == sccf::server::ReplyParser::Result::kError) return false;
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    parser.Feed(std::string_view(buf, static_cast<size_t>(r)));
  }
  return true;
}

SequentialClient::SequentialClient(const std::string& host, int port,
                                   int connections)
    : parsers_(static_cast<size_t>(connections)) {
  for (int i = 0; i < connections; ++i) fds_.push_back(ConnectTcp(host, port));
}

SequentialClient::~SequentialClient() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

int64_t SequentialClient::RoundTrip(const Request& r) {
  const size_t c = next_++ % fds_.size();
  const int fd = fds_[c];
  std::string bytes;
  EncodeRequest(r, &bytes);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ns = [&start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  size_t off = 0;
  while (fd >= 0 && off < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
    } else if (w < 0 && errno != EINTR && errno != EAGAIN) {
      break;
    }
  }
  std::string reply;
  char buf[65536];
  bool ok = fd >= 0 && off == bytes.size();
  while (ok) {
    const auto result = parsers_[c].Next(&reply);
    if (result == sccf::server::ReplyParser::Result::kReply) break;
    if (result == sccf::server::ReplyParser::Result::kError ||
        elapsed_ns() > 10'000'000'000) {
      ok = false;
      break;
    }
    const ssize_t got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (got > 0) {
      parsers_[c].Feed(std::string_view(buf, static_cast<size_t>(got)));
    } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
      ok = false;
    }
  }
  const int64_t ns = elapsed_ns();
  if (!ok || CheckReply(r.kind, r.events.size(), reply) != ReplyStatus::kOk) {
    ++failures_;
    if (!ok && fd >= 0) {  // the stream can no longer be trusted
      ::close(fd);
      fds_[c] = -1;
    }
    return -1;
  }
  return ns;
}

int64_t ArrayLength(std::string_view reply) {
  size_t pos = 0;
  int64_t n = -1;
  if (!ReadTyped(reply, &pos, '*', &n)) return -1;
  return n;
}

ReplyStatus CheckReply(Kind kind, size_t events, std::string_view reply) {
  if (!reply.empty() && reply[0] == '-') {
    return reply.rfind("-OVERLOADED", 0) == 0 ? ReplyStatus::kRefused
                                              : ReplyStatus::kError;
  }
  const int64_t n = ArrayLength(reply);
  switch (kind) {
    case Kind::kPing:
      return reply == "+PONG\r\n" ? ReplyStatus::kOk : ReplyStatus::kBadShape;
    case Kind::kIngest: {
      // *3 :num_events :users_touched :cold_start_users
      size_t pos = 0;
      int64_t len = 0, acked = 0, touched = 0, cold = 0;
      const bool ok = ReadTyped(reply, &pos, '*', &len) && len == 3 &&
                      ReadTyped(reply, &pos, ':', &acked) &&
                      ReadTyped(reply, &pos, ':', &touched) &&
                      ReadTyped(reply, &pos, ':', &cold) &&
                      pos == reply.size() &&
                      acked == static_cast<int64_t>(events) && touched >= 1;
      return ok ? ReplyStatus::kOk : ReplyStatus::kBadShape;
    }
    case Kind::kRecommend:
      return n >= 0 && n % 2 == 0 && n <= 2 * kTopN ? ReplyStatus::kOk
                                                    : ReplyStatus::kBadShape;
    case Kind::kNeighbors:
      return n >= 0 && n % 2 == 0 ? ReplyStatus::kOk : ReplyStatus::kBadShape;
    case Kind::kHistory:
      return n >= 0 ? ReplyStatus::kOk : ReplyStatus::kBadShape;
    case Kind::kStats:
      return n > 0 && n % 2 == 0 ? ReplyStatus::kOk : ReplyStatus::kBadShape;
  }
  return ReplyStatus::kBadShape;
}

int64_t StatsField(std::string_view reply, std::string_view name) {
  size_t pos = 0;
  int64_t n = 0;
  if (!ReadTyped(reply, &pos, '*', &n)) return -1;
  for (int64_t i = 0; i + 1 < n; i += 2) {
    int64_t len = 0, value = 0;
    std::string_view key;
    if (!ReadTyped(reply, &pos, '$', &len) || !ReadLine(reply, &pos, &key) ||
        !ReadTyped(reply, &pos, ':', &value)) {
      return -1;
    }
    if (key == name) return value;
  }
  return -1;
}

}  // namespace perfbench
