// The shared campaign contract, checked bench by bench: every campaign bench
// runs through bench::run_campaign, so each one must
//
//   - emit byte-identical --trials-out with --jobs=8 and --jobs=1;
//   - heal a thinned prior artifact via --resume-from: rows present in the
//     prior file are re-emitted verbatim (a mutated one stays mutated, which
//     proves it was not rerun) and the missing ones recomputed bitwise;
//   - refuse (exit 2, no output committed) a prior artifact stamped with a
//     different campaign fingerprint;
//   - with --fleet-manifest, write the campaign manifest and run no trials.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace ckptfi {
namespace {

namespace fs = std::filesystem;

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

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

class CampaignRun {
 public:
  CampaignRun(std::string name, std::string binary, std::string flags)
      : name_(std::move(name)),
        binary_(std::move(binary)),
        flags_(std::move(flags)),
        dir_(fs::temp_directory_path() /
             ("bench_campaign_" + name_ + "_" + std::to_string(getpid()))) {
    fs::create_directories(dir_);
  }
  ~CampaignRun() { fs::remove_all(dir_); }
  CampaignRun(const CampaignRun&) = delete;
  CampaignRun& operator=(const CampaignRun&) = delete;

  fs::path path(const std::string& file) const { return dir_ / file; }

  /// Run the bench in its scratch dir; returns the exit status.
  int run(const std::string& extra) const {
    const std::string cmd = "cd " + dir_.string() + " && \"" + binary_ +
                            "\"" + kTinyScale + " " + flags_ + " " + extra +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  void check() const {
    // --jobs invariance.
    ASSERT_EQ(run("--jobs=1 --trials-out=" + path("j1.jsonl").string()), 0);
    ASSERT_EQ(run("--jobs=8 --trials-out=" + path("j8.jsonl").string()), 0);
    const std::string base = slurp(path("j1.jsonl"));
    const std::vector<std::string> rows = lines_of(base);
    ASSERT_GE(rows.size(), 2u) << name_;
    EXPECT_EQ(slurp(path("j8.jsonl")), base)
        << name_ << ": --jobs=8 differs from --jobs=1";
    const std::string fp = Json::parse(rows.front()).at("fp").as_string();

    // Resume: keep every other row, mutate one kept row (fp intact).
    std::vector<std::string> expected = rows;
    std::vector<std::string> prior;
    for (std::size_t i = 0; i < rows.size(); i += 2) prior.push_back(rows[i]);
    const std::string seed_key = "\"seed\":\"";
    const std::size_t at = prior.front().find(seed_key);
    ASSERT_NE(at, std::string::npos) << name_;
    prior.front().insert(at + seed_key.size(), "9");
    expected.front() = prior.front();
    std::ofstream(path("prior.jsonl"), std::ios::binary) << joined(prior);
    ASSERT_EQ(run("--jobs=2 --resume-from=" + path("prior.jsonl").string() +
                  " --trials-out=" + path("healed.jsonl").string()),
              0);
    EXPECT_EQ(slurp(path("healed.jsonl")), joined(expected))
        << name_ << ": resume must keep prior rows verbatim and recompute "
        << "the missing ones bitwise";

    // A foreign campaign's rows are refused before any output opens.
    std::string foreign = base;
    for (std::size_t p = 0; (p = foreign.find(fp, p)) != std::string::npos;)
      foreign.replace(p, fp.size(), fp == "deadbeef" ? "feedface" : "deadbeef");
    std::ofstream(path("foreign.jsonl"), std::ios::binary) << foreign;
    EXPECT_EQ(run("--resume-from=" + path("foreign.jsonl").string() +
                  " --trials-out=" + path("refused.jsonl").string()),
              2)
        << name_;
    EXPECT_FALSE(fs::exists(path("refused.jsonl"))) << name_;

    // --fleet-manifest exports the same campaign and runs nothing.
    ASSERT_EQ(run("--fleet-manifest=" + path("manifest.json").string() +
                  " --trials-out=" + path("none.jsonl").string()),
              0);
    const Json manifest = Json::parse(slurp(path("manifest.json")));
    EXPECT_EQ(manifest.at("fp").as_string(), fp) << name_;
    EXPECT_FALSE(fs::exists(path("none.jsonl")))
        << name_ << ": manifest export must not run trials";
  }

 private:
  std::string name_;
  std::string binary_;
  std::string flags_;
  fs::path dir_;
};

void check(const std::string& name, const std::string& binary,
           const std::string& flags = "") {
  CampaignRun(name, binary, flags).check();
}

TEST(BenchCampaign, Table4) { check("table4", CKPTFI_BENCH_TABLE4); }
TEST(BenchCampaign, Table5) { check("table5", CKPTFI_BENCH_TABLE5); }
TEST(BenchCampaign, Table6) { check("table6", CKPTFI_BENCH_TABLE6); }
TEST(BenchCampaign, Table7) { check("table7", CKPTFI_BENCH_TABLE7); }
// predict_subset halves the test set: it needs two test batches.
TEST(BenchCampaign, Table8) {
  check("table8", CKPTFI_BENCH_TABLE8, "--test-images=64");
}
TEST(BenchCampaign, Fig2) { check("fig2", CKPTFI_BENCH_FIG2); }
TEST(BenchCampaign, Fig3) { check("fig3", CKPTFI_BENCH_FIG3); }
TEST(BenchCampaign, Fig4) { check("fig4", CKPTFI_BENCH_FIG4); }
TEST(BenchCampaign, Fig5) { check("fig5", CKPTFI_BENCH_FIG5); }
TEST(BenchCampaign, Fig6) { check("fig6", CKPTFI_BENCH_FIG6); }
TEST(BenchCampaign, Fig7) { check("fig7", CKPTFI_BENCH_FIG7); }
TEST(BenchCampaign, AblationNevGuard) {
  check("ablation", CKPTFI_BENCH_ABLATION);
}

}  // namespace
}  // namespace ckptfi
