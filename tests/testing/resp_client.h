#ifndef SCCF_TESTS_TESTING_RESP_CLIENT_H_
#define SCCF_TESTS_TESTING_RESP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "util/logging.h"

namespace sccf::testing {

/// Blocking loopback client for the wire protocol, with a receive
/// timeout (so a server bug fails the test instead of hanging it).
/// Shared by the in-process reactor suites and the suite that drives
/// the sccf_server binary.
class RespClient {
 public:
  /// `rcvbuf` > 0 shrinks the receive buffer before connecting — the
  /// overload tests use a tiny window so an unread pipeline backs up
  /// into the server's in-flight account instead of kernel buffers.
  explicit RespClient(uint16_t port, int rcvbuf = 0) {
    // CLOEXEC: a daemon the test spawns must not inherit the socket.
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    SCCF_CHECK(fd_ >= 0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RespClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  RespClient(const RespClient&) = delete;
  RespClient& operator=(const RespClient&) = delete;

  bool connected() const { return connected_; }

  void Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w =
          ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(w, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<size_t>(w);
    }
  }

  /// Reads exactly one complete reply (raw bytes). Empty on EOF/timeout.
  std::string ReadReply() {
    std::string reply;
    while (true) {
      switch (parser_.Next(&reply)) {
        case server::ReplyParser::Result::kReply:
          return reply;
        case server::ReplyParser::Result::kError:
          ADD_FAILURE() << "reply stream desynchronized";
          return "";
        case server::ReplyParser::Result::kNeedMore:
          break;
      }
      char buf[4096];
      const ssize_t r = ::read(fd_, buf, sizeof(buf));
      if (r <= 0) return "";  // EOF or timeout
      parser_.Feed(std::string_view(buf, static_cast<size_t>(r)));
    }
  }

  /// True when the peer has closed (read returns EOF after pending
  /// replies are drained).
  bool ReadEof() {
    char buf[4096];
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    return r == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  server::ReplyParser parser_;
};

}  // namespace sccf::testing

#endif  // SCCF_TESTS_TESTING_RESP_CLIENT_H_
