// ckptfi-fleetd CLI. Typical loopback run:
//
//   bench_table4 --fleet-manifest=campaign.json ...   # export, don't run
//   ckptfi-fleetd --manifest=campaign.json --trials-out=trials.jsonl &
//   ckptfi-worker --port=NNNN &  (xN)
//
// The merged trials.jsonl is byte-identical to the single-process bench's
// --trials-out. A killed fleetd leaves trials.jsonl.tmp; rerun with
// --resume-from=trials.jsonl.tmp to heal. See docs/FLEET.md.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fleetd.hpp"
#include "util/common.hpp"

using namespace ckptfi;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --manifest=PATH --trials-out=PATH [options]\n"
      "  --manifest=PATH          campaign manifest (bench --fleet-manifest)\n"
      "  --trials-out=PATH        merged JSONL artifact to write\n"
      "  --resume-from=PATH       prior artifact to heal from\n"
      "  --port=N                 listen port (default 0 = ephemeral)\n"
      "  --port-file=PATH         write the bound port here\n"
      "  --shard-trials=N         max trials per lease (default 2)\n"
      "  --lease-timeout=SECONDS  silence budget per lease, > 0 (default 60)\n",
      argv0);
}

/// --key=value numeric parsing that names the flag instead of dying with an
/// uncaught std::invalid_argument (the bench harnesses' bugfix, applied here
/// from the start).
std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "ckptfi-fleetd: --%s wants a number, got '%s'\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
}

double parse_seconds(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size() || !(v > 0.0)) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "ckptfi-fleetd: --%s wants positive seconds, got '%s'\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  fleet::FleetdOptions opts;
  std::string manifest_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage(argv[0]);
      return 2;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "manifest") {
      manifest_path = value;
    } else if (key == "trials-out") {
      opts.trials_out = value;
    } else if (key == "resume-from") {
      opts.resume_from = value;
    } else if (key == "port") {
      opts.port = static_cast<std::uint16_t>(parse_u64(key, value));
    } else if (key == "port-file") {
      opts.port_file = value;
    } else if (key == "shard-trials") {
      opts.shard_trials = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "lease-timeout") {
      opts.lease_timeout_s = parse_seconds(key, value);
    } else {
      std::fprintf(stderr, "ckptfi-fleetd: unknown option --%s\n",
                   key.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (manifest_path.empty() || opts.trials_out.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    std::ifstream in(manifest_path);
    if (!in) {
      std::fprintf(stderr, "ckptfi-fleetd: cannot read manifest '%s'\n",
                   manifest_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    opts.manifest = Json::parse(buf.str());

    fleet::Fleetd fleetd(std::move(opts));
    fleetd.start();
    std::printf("ckptfi-fleetd: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(fleetd.port()));
    std::fflush(stdout);
    const fleet::FleetdStats st = fleetd.run();
    std::printf(
        "ckptfi-fleetd: campaign complete — %zu rows (%zu resumed), "
        "%zu shards issued (%zu re-issued), %zu worker death(s)\n",
        st.rows_streamed + st.rows_resumed, st.rows_resumed,
        st.shards_issued, st.shards_reissued, st.worker_deaths);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckptfi-fleetd: %s\n", e.what());
    return 1;
  }
}
