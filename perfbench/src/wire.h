#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

// Client side of the sccf_server wire protocol for the benchmark: TCP
// connect, blocking pipelined round trips, and reply validation.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "workload.h"

namespace perfbench {

/// Blocking TCP connection to host:port with TCP_NODELAY; -1 on failure.
int ConnectTcp(const std::string& host, int port);

/// Writes every request in `requests` back to back on blocking `fd`, then
/// reads exactly requests.size() replies (each framed by
/// server::ReplyParser) into `*replies`. False on I/O or framing failure.
bool PipelinedRoundTrip(int fd, const std::vector<std::string>& requests,
                        std::vector<std::string>* replies);

/// One request at a time, round-robin over `connections` connections: the
/// unqueued wire pass of the traced run. Waits for each reply by polling
/// the socket, so the client's own wake-up stays out of the round trip.
class SequentialClient {
 public:
  SequentialClient(const std::string& host, int port, int connections);
  ~SequentialClient();
  SequentialClient(const SequentialClient&) = delete;
  SequentialClient& operator=(const SequentialClient&) = delete;

  /// Wire round trip of `r` in nanoseconds; -1 (and a counted failure)
  /// on an I/O error, a 10 s timeout, or a reply that fails CheckReply.
  int64_t RoundTrip(const Request& r);
  size_t failures() const { return failures_; }

 private:
  std::vector<int> fds_;
  std::vector<sccf::server::ReplyParser> parsers_;
  size_t next_ = 0;
  size_t failures_ = 0;
};

/// Element count of a RESP array reply (`*<n>\r\n...`); -1 otherwise.
int64_t ArrayLength(std::string_view reply);

/// Classification of one reply against the request that produced it.
enum class ReplyStatus {
  kOk,
  kError,    ///< `-ERR ...` or another error reply
  kRefused,  ///< `-OVERLOADED ...` (admission control)
  kBadShape  ///< parses as RESP but not as this command's reply shape
};

/// Checks `reply` for the shape the command promises (dispatch.h). For an
/// INGEST, the acknowledged triple count must equal `events`.
ReplyStatus CheckReply(Kind kind, size_t events, std::string_view reply);

/// Value of `name` in a STATS reply; -1 when absent or malformed.
int64_t StatsField(std::string_view reply, std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
