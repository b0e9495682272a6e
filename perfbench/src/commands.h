#ifndef PERFBENCH_COMMANDS_H_
#define PERFBENCH_COMMANDS_H_

// The perfbench binary's subcommands. Each returns a one-line JSON object for
// run.py to combine; a failed precondition aborts with a message instead.

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

struct WireTarget {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Live corpus bounds the daemon printed at startup.
  size_t users = 0;
  size_t items = 0;
};

/// Correctness probe before load: RECOMMEND, NEIGHBORS and HISTORY replies
/// for a fixed user set must equal, byte for byte, server::Execute on an
/// in-process engine bootstrapped with the same flags.
std::string RunProbe(const WorkloadSpec& spec, const WireTarget& target);

struct LoadOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  int daemon_pid = 0;  ///< for CPU time (/proc/<pid>/stat)
  /// Samples STATS (staged rows) during the main phase.
  bool trace = false;
  /// When set, every answered request's timeline is written there (TSV).
  std::string dump_path;
};

/// The wire run: main phase (open and/or closed loop), capacity phase,
/// reply validation and the HISTORY growth check.
std::string RunLoad(const WorkloadSpec& spec, const WireTarget& target,
                    const LoadOptions& options);

struct TraceOptions {
  uint64_t seed = 1;
  /// Scratch directory for journals and the span dump.
  std::string dir;
};

/// Traced replay of the workload's request stream: each request goes once
/// over the wire to the (idle) daemon, one at a time, and through three
/// in-process engines; plus the per-layer micro measurements (index, simd,
/// journal).
std::string RunTrace(const WorkloadSpec& spec, const WireTarget& target,
                     const TraceOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMANDS_H_
