// End-to-end acceptance for the campaign fleet (docs/FLEET.md): a table4
// campaign sharded across real ckptfi-worker processes over loopback TCP
// must produce a --trials-out byte-identical to the single-process bench —
// in the happy path, after a worker is SIGKILLed mid-shard (its lease
// re-issued to the survivor), and when the coordinator heals a thinned,
// torn prior artifact via --resume-from. A table7 fp16 campaign pins the
// kind registry path and the compute-precision hand-off to workers. The
// coordinator runs in-process (fleet::Fleetd) so the tests can assert on its
// stats; the workers are the real binary, fork/exec'd, so death is a real
// process death.
#include "fleetd.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "util/common.hpp"
#include "util/json.hpp"

namespace ckptfi {
namespace {

namespace fs = std::filesystem;

// The same tiny scale the bench-parity tests use: 36 table4 cells x 2
// trials = 72 rows, small enough to run the campaign four times in-suite.
const char* const kTinyScale =
    " --trainings=2 --train-images=32 --test-images=16 --width=2"
    " --total-epochs=2 --restart-epoch=1 --resume-epochs=1";

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Single-process ground truth, computed once: the bench's --trials-out
/// bytes and the campaign manifest it exports for the fleet.
struct Baseline {
  std::string rows;
  Json manifest;
};

Baseline capture(const std::string& bench_bin, const std::string& flags) {
  // ctest runs every TEST as its own process, possibly in parallel; the
  // scratch names must be per-process or concurrent Fleet tests race on
  // each other's baseline files.
  const std::string tag = std::to_string(getpid());
  const fs::path dir = fs::temp_directory_path();
  const fs::path out = dir / ("fleet_baseline_" + tag + ".jsonl");
  const fs::path manifest = dir / ("fleet_manifest_" + tag + ".json");
  const std::string prefix =
      "cd " + dir.string() + " && \"" + bench_bin + "\"" + kTinyScale + flags;
  const std::string bench = prefix + " --jobs=1 --trials-out=" +
                            out.string() + " > /dev/null";
  const std::string expo =
      prefix + " --fleet-manifest=" + manifest.string() + " > /dev/null";
  EXPECT_EQ(std::system(bench.c_str()), 0) << bench;
  EXPECT_EQ(std::system(expo.c_str()), 0) << expo;
  Baseline r;
  r.rows = slurp(out);
  r.manifest = Json::parse(slurp(manifest));
  fs::remove(out);
  fs::remove(manifest);
  return r;
}

const Baseline& baseline() {
  static const Baseline b = capture(CKPTFI_BENCH_TABLE4, "");
  return b;
}

/// fork/exec one real worker binary against the in-process coordinator.
pid_t spawn_worker(std::uint16_t port,
                   const std::vector<std::string>& extra = {}) {
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    std::vector<std::string> args = {CKPTFI_WORKER_BIN,
                                     "--port=" + std::to_string(port)};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(CKPTFI_WORKER_BIN, argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

int reap(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

// Workers heartbeat at a quarter of the lease timeout: 1 s here, so the
// heartbeat path runs in every test.
fleet::FleetdOptions fleet_options(const Json& manifest, const fs::path& out) {
  fleet::FleetdOptions opts;
  opts.manifest = manifest;
  opts.trials_out = out.string();
  opts.shard_trials = 2;
  opts.lease_timeout_s = 4;
  return opts;
}

fleet::FleetdOptions fleet_options(const fs::path& out) {
  return fleet_options(baseline().manifest, out);
}

TEST(Fleet, TwoWorkersProduceByteIdenticalArtifact) {
  const fs::path out = fs::temp_directory_path() / "fleet_two_workers.jsonl";
  fleet::Fleetd fleetd(fleet_options(out));
  fleetd.start();
  const pid_t a = spawn_worker(fleetd.port());
  const pid_t b = spawn_worker(fleetd.port());
  const fleet::FleetdStats stats = fleetd.run();

  for (const pid_t pid : {a, b}) {
    const int status = reap(pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker exit status " << status;
  }
  EXPECT_EQ(stats.workers_seen, 2u);
  EXPECT_EQ(stats.rows_streamed, 72u);
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.shards_reissued, 0u);
  EXPECT_EQ(slurp(out), baseline().rows)
      << "sharded fleet artifact differs from single-process bench";
  fs::remove(out);
}

TEST(Fleet, SigkilledWorkerShardIsReissuedBitwise) {
  const fs::path out = fs::temp_directory_path() / "fleet_sigkill.jsonl";
  fleet::Fleetd fleetd(fleet_options(out));
  fleetd.start();
  // Every shard is 2 trials, so dying after the 3rd streamed row is always
  // mid-shard: one row of the second lease arrived, one is missing.
  const pid_t killer = spawn_worker(fleetd.port(), {"--kill-after-rows=3"});
  const pid_t survivor = spawn_worker(fleetd.port());
  const fleet::FleetdStats stats = fleetd.run();

  const int killed = reap(killer);
  EXPECT_TRUE(WIFSIGNALED(killed) && WTERMSIG(killed) == SIGKILL)
      << "kill hook did not fire; status " << killed;
  const int ok = reap(survivor);
  EXPECT_TRUE(WIFEXITED(ok) && WEXITSTATUS(ok) == 0)
      << "surviving worker exit status " << ok;

  EXPECT_GE(stats.worker_deaths, 1u);
  EXPECT_GE(stats.shards_reissued, 1u);
  EXPECT_EQ(slurp(out), baseline().rows)
      << "artifact after mid-shard worker death must replay bitwise";
  fs::remove(out);
}

TEST(Fleet, CoordinatorHealsThinnedTornArtifactViaResume) {
  const fs::path prior = fs::temp_directory_path() / "fleet_prior.jsonl";
  const fs::path out = fs::temp_directory_path() / "fleet_resumed.jsonl";
  // A crashed campaign's artifact: every third row survived and the file
  // ends in a torn line (killed mid-write).
  {
    std::istringstream in(baseline().rows);
    std::ofstream f(prior, std::ios::binary);
    std::string line;
    for (std::size_t i = 0; std::getline(in, line); ++i)
      if (i % 3 == 0) f << line << "\n";
    f << "{\"cell\": \"chainer/resnet50/10\", \"trial\": 1, \"se";
  }

  fleet::FleetdOptions opts = fleet_options(out);
  opts.resume_from = prior.string();
  fleet::Fleetd fleetd(std::move(opts));
  fleetd.start();
  const pid_t w = spawn_worker(fleetd.port());
  const fleet::FleetdStats stats = fleetd.run();

  const int status = reap(w);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "worker exit status " << status;
  EXPECT_EQ(stats.rows_resumed, 24u);  // 72 / 3 intact rows carried over
  EXPECT_EQ(stats.rows_streamed, 48u);
  EXPECT_EQ(slurp(out), baseline().rows)
      << "healed artifact must match the uninterrupted campaign bitwise";
  fs::remove(prior);
  fs::remove(out);
}

TEST(Fleet, Table7Fp16WorkersMatchTheBench) {
  // table7's compute precision rides in the manifest's mode slot and the
  // campaign kind applies it on each worker: a worker computing fp64 would
  // stream different rows under the fp16 campaign's fingerprint.
  const Baseline bench =
      capture(CKPTFI_BENCH_TABLE7, " --compute-precision=fp16");
  ASSERT_EQ(bench.manifest.at("options").at("mode").as_string(), "fp16");
  const fs::path out = fs::temp_directory_path() /
                       ("fleet_table7_" + std::to_string(getpid()) + ".jsonl");
  fleet::Fleetd fleetd(fleet_options(bench.manifest, out));
  fleetd.start();
  const pid_t a = spawn_worker(fleetd.port());
  const pid_t b = spawn_worker(fleetd.port());
  const fleet::FleetdStats stats = fleetd.run();
  for (const pid_t pid : {a, b}) {
    const int status = reap(pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker exit status " << status;
  }
  EXPECT_EQ(stats.workers_seen, 2u);
  EXPECT_EQ(slurp(out), bench.rows)
      << "fp16 fleet artifact differs from the single-process bench";
  fs::remove(out);
}

TEST(Fleet, TamperedManifestIsRefused) {
  // A manifest whose identity fields drifted from its embedded fingerprint
  // must be refused — otherwise an edited seed would silently relabel a
  // different campaign's rows.
  Json tampered = baseline().manifest;
  tampered["options"]["seed"] = "43";
  EXPECT_THROW(core::campaign_from_manifest(tampered), FormatError);
}

}  // namespace
}  // namespace ckptfi
