// ckptfi-worker CLI: one fleet worker process. See docs/FLEET.md and
// tools/ckptfi_fleetd/main.cpp for the fleet's shape.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "worker.hpp"

using namespace ckptfi;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port=N [options]\n"
      "  --host=ADDR            coordinator address (default 127.0.0.1)\n"
      "  --port=N               coordinator port (required)\n"
      "  --jobs=N               trials in flight per shard (default 1)\n"
      "  --kill-after-rows=N    test hook: SIGKILL self after N rows\n",
      argv0);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "ckptfi-worker: --%s wants a number, got '%s'\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  fleet::WorkerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage(argv[0]);
      return 2;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "host") {
      opts.host = value;
    } else if (key == "port") {
      opts.port = static_cast<std::uint16_t>(parse_u64(key, value));
    } else if (key == "jobs") {
      opts.jobs = static_cast<std::size_t>(parse_u64(key, value));
      if (opts.jobs == 0) opts.jobs = 1;
    } else if (key == "kill-after-rows") {
      opts.kill_after_rows = static_cast<std::size_t>(parse_u64(key, value));
    } else {
      std::fprintf(stderr, "ckptfi-worker: unknown option --%s\n",
                   key.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opts.port == 0) {
    usage(argv[0]);
    return 2;
  }
  return fleet::run_worker(opts);
}
