// perfbench: the benchmark's own binary. run.py calls one subcommand at
// a time; each prints one JSON object on stdout.
//
//   perfbench flags --workload=W
//       daemon flags and load shape of workload W
//   perfbench probe --workload=W --port=P --users=U --items=I
//       pre-load byte-for-byte probe against an in-process twin
//   perfbench load  --workload=W --port=P --users=U --items=I --seed=S
//                   --seconds=T --pid=PID [--trace]
//       the wire run against a listening sccf_server
//   perfbench trace --workload=W --port=P --users=U --items=I --seed=S --dir=D
//       traced replay (wire and in-process) and per-layer measurements

#include <cstdio>
#include <string>
#include <unordered_map>

#include "commands.h"
#include "json.h"
#include "simd/kernels.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "workload.h"

namespace {

using namespace perfbench;

int64_t IntFlag(const std::unordered_map<std::string, std::string>& flags,
                const std::string& name, int64_t def) {
  const auto it = flags.find(name);
  if (it == flags.end()) return def;
  int64_t v = 0;
  SCCF_CHECK(sccf::ParseInt64(it->second, &v)) << "bad --" << name;
  return v;
}

std::string QuotedList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", \"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench flags|probe|load|trace --workload=W ...\n");
    return 2;
  }
  const std::string command = argv[1];
  std::unordered_map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    flags.insert_or_assign(name, eq == std::string::npos
                                     ? std::string("1")
                                     : arg.substr(eq + 1));
  }
  const WorkloadSpec* spec = FindWorkload(flags["workload"]);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (known: %s)\n",
                 flags["workload"].c_str(),
                 QuotedList(WorkloadNames()).c_str());
    return 2;
  }

  WireTarget target;
  target.port = static_cast<int>(IntFlag(flags, "port", 0));
  target.users = static_cast<size_t>(IntFlag(flags, "users", 0));
  target.items = static_cast<size_t>(IntFlag(flags, "items", 0));
  const uint64_t seed = static_cast<uint64_t>(IntFlag(flags, "seed", 1));

  std::string result;
  if (command == "flags") {
    result = JsonObject()
                 .Raw("daemon_flags", QuotedList(DaemonFlags(spec->daemon)))
                 .Bool("journal", spec->daemon.journal)
                 .Bool("background", spec->daemon.background)
                 .Str("simd_variant", sccf::simd::VariantName(
                                          sccf::simd::ActiveVariant()))
                 .str();
  } else if (command == "probe") {
    result = RunProbe(*spec, target);
  } else if (command == "load") {
    LoadOptions opt;
    opt.seed = seed;
    opt.seconds = std::stod(flags.count("seconds") ? flags["seconds"] : "10");
    SCCF_CHECK(opt.seconds > 0) << "bad --seconds";
    opt.daemon_pid = static_cast<int>(IntFlag(flags, "pid", 0));
    opt.trace = flags.count("trace") > 0;
    opt.dump_path = flags["dump"];
    result = RunLoad(*spec, target, opt);
  } else if (command == "trace") {
    TraceOptions opt;
    opt.seed = seed;
    opt.dir = flags["dir"];
    SCCF_CHECK(!opt.dir.empty()) << "trace needs --dir";
    result = RunTrace(*spec, target, opt);
  } else {
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    return 2;
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
