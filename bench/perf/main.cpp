// ckptfi_perf: command line of the campaign benchmark (bench/perf/README.md).
//
//   ckptfi_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--jobs N] [--workdir DIR] [--tiny] [--corrupt-reference]
//   ckptfi_perf --record OUT.json [--seed N] [--seconds S] [--workdir DIR]
//   ckptfi_perf --compare A.json[@SET] B.json[@SET]
//
// --record runs kSets sets of kRepeats untraced runs of every workload, then
// one traced run of each, and writes them as a BENCH file; --compare reads
// two such files (or one set of one) and the bounds in ./BENCHMARK.json.
// Every run executes in a fresh process forked from this single-threaded
// one, so memos, caches and ru_maxrss belong to that run alone, and a run
// that overstays its deadline is killed with every process it started. The
// last line of stdout is the run's JSON result.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "perf.hpp"
#include "tensor/kernels.hpp"
#include "util/common.hpp"

using namespace ckptfi;

namespace {

// A run's deadline: the benchmark must end within 180 s.
constexpr double kRunTimeoutS = 170.0;
constexpr std::size_t kSets = 2;
constexpr std::size_t kRepeats = 5;

struct Outcome {
  int code = 2;      ///< 0 correct, 1 failed checks, 2 no result
  std::string json;  ///< the result object, when there is one
};

void write_all(int fd, const std::string& s) {
  std::size_t done = 0;
  while (done < s.size()) {
    const ssize_t n = write(fd, s.data() + done, s.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

Outcome run_in_child(const perf::RunConfig& cfg) {
  int fds[2];
  if (pipe(fds) != 0) throw Error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    setpgid(0, 0);
    close(fds[0]);
    int code = 2;
    try {
      const Json r = perf::run_workload(cfg);
      write_all(fds[1], r.dump());
      code = r.at("correct").as_bool() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ckptfi_perf: %s: %s\n", cfg.workload.c_str(),
                   e.what());
    }
    std::fflush(nullptr);
    _exit(code);
  }
  setpgid(pid, pid);
  close(fds[1]);

  Outcome out;
  const auto deadline = perf::Clock::now() +
                        std::chrono::duration_cast<perf::Clock::duration>(
                            std::chrono::duration<double>(kRunTimeoutS));
  bool timed_out = false;
  for (;;) {
    const double left = perf::seconds_between(perf::Clock::now(), deadline);
    pollfd pfd{fds[0], POLLIN, 0};
    const int rc =
        left > 0.0 ? poll(&pfd, 1, static_cast<int>(1e3 * left) + 1) : 0;
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) {
      timed_out = true;
      break;
    }
    char buf[4096];
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.json.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) {
    std::fprintf(stderr, "ckptfi_perf: %s overran %.0f s; killed\n",
                 cfg.workload.c_str(), kRunTimeoutS);
    kill(-pid, SIGKILL);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  kill(-pid, SIGKILL);  // anything the run left behind
  out.code = !timed_out && WIFEXITED(status) ? WEXITSTATUS(status) : 2;
  if (out.code == 2) out.json.clear();
  return out;
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: ckptfi_perf --workload NAME [--seed N] [--seconds S] "
      "[--trace 0|1]\n"
      "                   [--jobs N] [--workdir DIR] [--tiny]\n"
      "       ckptfi_perf --record OUT.json [--seed N] [--seconds S]\n"
      "       ckptfi_perf --compare A.json[@SET] B.json[@SET]\n"
      "workloads: train_grid predict_deep predict_full fleet_grid\n");
  std::exit(2);
}

std::uint64_t to_u64(const std::string& key, const std::string& v) {
  try {
    std::size_t used = 0;
    const std::uint64_t n = std::stoull(v, &used);
    if (used == v.size()) return n;
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "ckptfi_perf: --%s wants a whole number, got '%s'\n",
               key.c_str(), v.c_str());
  std::exit(2);
}

int record(const std::string& out_path, perf::RunConfig cfg) {
  Json doc = Json::object();
  doc["benchmark"] = "ckptfi_perf";
  doc["seed"] = cfg.seed;
  doc["seconds"] = cfg.seconds;
  doc["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  doc["kernels"] = std::string(kernel_backend_name()) + "/" + simd_isa_name() +
                   "/" + gemm_precision_name();
  int code = 0;
  const auto run = [&](const char* workload, bool trace) {
    cfg.workload = workload;
    cfg.trace = trace;
    const Outcome o = run_in_child(cfg);
    if (o.code != 0) code = 1;
    return o.json.empty() ? Json() : Json::parse(o.json);
  };
  Json all_sets = Json::array();
  for (std::size_t s = 0; s < kSets; ++s) {
    Json set = Json::object();
    for (const char* w : perf::kWorkloadNames) set[w] = Json::array();
    for (std::size_t r = 0; r < kRepeats; ++r) {
      for (const char* w : perf::kWorkloadNames) set[w].push_back(run(w, false));
    }
    all_sets.push_back(std::move(set));
  }
  doc["sets"] = std::move(all_sets);
  Json traced = Json::object();
  for (const char* w : perf::kWorkloadNames) traced[w] = run(w, true);
  doc["traced"] = std::move(traced);
  std::ofstream out(out_path, std::ios::trunc);
  out << doc.dump(1) << "\n";
  if (!out) throw Error("cannot write '" + out_path + "'");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  perf::RunConfig cfg;
  std::map<std::string, std::string> opt;
  std::vector<std::string> compare;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage();
    key = key.substr(2);
    if (key == "tiny") {
      cfg.tiny = true;
    } else if (key == "corrupt-reference") {
      cfg.corrupt_reference = true;
    } else if (key == "compare") {
      if (i + 2 >= argc) usage();
      compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (const auto eq = key.find('='); eq != std::string::npos) {
      opt[key.substr(0, eq)] = key.substr(eq + 1);
    } else {
      if (i + 1 >= argc) usage();
      opt[key] = argv[++i];
    }
  }
  try {
    if (!compare.empty()) {
      return perf::compare(compare[0], compare[1], "BENCHMARK.json");
    }
    for (const auto& [key, v] : opt) {
      if (key == "workload") {
        cfg.workload = v;
      } else if (key == "seed") {
        cfg.seed = to_u64(key, v);
      } else if (key == "seconds") {
        cfg.seconds = static_cast<double>(to_u64(key, v));
      } else if (key == "trace") {
        cfg.trace = to_u64(key, v) != 0;
      } else if (key == "jobs") {
        cfg.jobs = static_cast<std::size_t>(to_u64(key, v));
      } else if (key == "workdir") {
        cfg.workdir = v;
      } else if (key != "record") {
        std::fprintf(stderr, "ckptfi_perf: unknown option --%s\n", key.c_str());
        usage();
      }
    }
    if (const auto r = opt.find("record"); r != opt.end()) {
      return record(r->second, cfg);
    }
    if (cfg.workload.empty()) usage();
    perf::make_workload(cfg.workload, cfg.seed, cfg.tiny);  // validates
    const Outcome o = run_in_child(cfg);
    if (!o.json.empty()) std::printf("%s\n", o.json.c_str());
    return o.code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckptfi_perf: %s\n", e.what());
    return 2;
  }
}
