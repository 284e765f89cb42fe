// Acceptance for the resume-path hardening that the fleet leans on
// (core/trial_log.hpp): torn trailing lines are skipped, not fatal; rows
// from a different campaign are refused by fingerprint, not merged; the
// --trials-out artifact is written through a temp + atomic rename so an
// in-place resume can never destroy its own input; and malformed numeric
// flags exit with a diagnostic instead of an uncaught std::invalid_argument.
// Each scenario is the failing-before case of a bug this PR fixes.
#include "core/trial_log.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/common.hpp"

namespace ckptfi::core {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string row_line(const std::string& cell, std::size_t trial,
                     const std::string& fp) {
  Json row = Json::object();
  row["cell"] = cell;
  row["trial"] = Json(static_cast<std::int64_t>(trial));
  row["accuracy"] = 0.5;
  if (!fp.empty()) row["fp"] = fp;
  return row.dump();
}

// --- TrialLogReader ------------------------------------------------------

TEST(TrialLogReader, TornTrailingLineIsSkippedAndCounted) {
  const fs::path p = fs::temp_directory_path() / "torn.jsonl";
  spit(p, row_line("a", 0, "00000001") + "\n" +
              row_line("a", 1, "00000001") + "\n" +
              "{\"cell\": \"a\", \"trial\": 2, \"accu");  // killed mid-write
  TrialLogReader reader;
  reader.load(p.string(), "00000001");
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.malformed_lines(), 1u);
  EXPECT_NE(reader.find("a", 0), nullptr);
  EXPECT_NE(reader.find("a", 1), nullptr);
  EXPECT_EQ(reader.find("a", 2), nullptr);
  fs::remove(p);
}

TEST(TrialLogReader, MismatchedFingerprintRefusesTheWholeLoad) {
  const fs::path p = fs::temp_directory_path() / "foreign.jsonl";
  spit(p, row_line("a", 0, "00000001") + "\n");
  TrialLogReader reader;
  EXPECT_THROW(reader.load(p.string(), "00000002"), FormatError)
      << "rows from a different campaign must be refused, not merged";
  fs::remove(p);
}

TEST(TrialLogReader, UnfingerprintedRowsAreAcceptedForCompatibility) {
  // Pre-fingerprint artifacts carry no "fp"; they still resume (with a
  // warning) rather than stranding existing campaign outputs.
  const fs::path p = fs::temp_directory_path() / "legacy.jsonl";
  spit(p, row_line("a", 0, "") + "\n" + row_line("a", 1, "") + "\n");
  TrialLogReader reader;
  reader.load(p.string(), "00000001");
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.malformed_lines(), 0u);
  fs::remove(p);
}

TEST(TrialLogReader, VerbatimLineIsPreserved) {
  // Resume re-emits the original bytes, not a re-serialization.
  const fs::path p = fs::temp_directory_path() / "verbatim.jsonl";
  const std::string line = row_line("a", 0, "00000001");
  spit(p, line + "\n");
  TrialLogReader reader;
  reader.load(p.string(), "00000001");
  const TrialLogReader::Row* row = reader.find("a", 0);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->line, line);
  fs::remove(p);
}

TEST(TrialLogReader, MissingFileThrowsError) {
  TrialLogReader reader;
  EXPECT_THROW(reader.load("/nonexistent/trials.jsonl", ""), Error);
}

// --- TrialLogWriter ------------------------------------------------------

TEST(TrialLogWriter, CommitIsAtomicOverThePriorArtifact) {
  const fs::path p = fs::temp_directory_path() / "atomic.jsonl";
  spit(p, "prior artifact\n");
  TrialLogWriter writer;
  writer.open(p.string());
  writer.write_line("new row");
  writer.flush();
  // The only copy of the prior artifact is untouched while writing...
  EXPECT_EQ(slurp(p), "prior artifact\n");
  EXPECT_TRUE(fs::exists(p.string() + ".tmp"));
  writer.commit();
  // ...and replaced in one rename at commit.
  EXPECT_EQ(slurp(p), "new row\n");
  EXPECT_FALSE(fs::exists(p.string() + ".tmp"));
  fs::remove(p);
}

TEST(TrialLogWriter, UncommittedDestructionLeavesPriorAndTemp) {
  const fs::path p = fs::temp_directory_path() / "crashed.jsonl";
  spit(p, "prior artifact\n");
  {
    TrialLogWriter writer;
    writer.open(p.string());
    writer.write_line("partial row");
    writer.flush();
  }  // destroyed without commit — the crashed-campaign path
  EXPECT_EQ(slurp(p), "prior artifact\n") << "crash must not eat the input";
  EXPECT_EQ(slurp(p.string() + ".tmp"), "partial row\n")
      << "the temp is the crash-survival artifact";
  fs::remove(p);
  fs::remove(p.string() + ".tmp");
}

// --- fingerprint stamping ------------------------------------------------

TEST(Fingerprint, StampAppendsLastAndIsIdempotent) {
  Json row = Json::object();
  row["cell"] = "a";
  row["trial"] = Json(static_cast<std::int64_t>(0));
  stamp_fingerprint(row, "00000001");
  const std::string once = row.dump();
  EXPECT_NE(once.find("\"fp\":\"00000001\"}"), std::string::npos)
      << "fp must be the last key so fresh and resumed rows match: " << once;
  stamp_fingerprint(row, "ffffffff");  // must not overwrite
  EXPECT_EQ(row.dump(), once);
}

TEST(Fingerprint, HexIsStableEightDigits) {
  EXPECT_EQ(fingerprint_hex(0x1u), "00000001");
  EXPECT_EQ(fingerprint_hex(0xdeadbeefu), "deadbeef");
  const std::uint32_t fp = campaign_fingerprint("ckptfi-campaign-v1|x");
  EXPECT_EQ(campaign_fingerprint("ckptfi-campaign-v1|x"), fp);
  EXPECT_NE(campaign_fingerprint("ckptfi-campaign-v1|y"), fp);
}

// --- bench end-to-end ----------------------------------------------------

// One-cell fig4 predict campaign: the cheapest fleet-capable bench run.
const char* const kTinyBench =
    " --mode=predict --layers=conv1"
    " --trainings=2 --train-images=32 --test-images=16 --width=2"
    " --total-epochs=2 --restart-epoch=1 --resume-epochs=1";

int run_bench(const std::string& flags) {
  const std::string cmd = "cd " + fs::temp_directory_path().string() +
                          " && \"" + CKPTFI_BENCH_FIG4 + "\"" + kTinyBench +
                          " " + flags + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchResume, HealsTornThinnedArtifactByteForByte) {
  const fs::path base = fs::temp_directory_path() / "hard_base.jsonl";
  const fs::path prior = fs::temp_directory_path() / "hard_prior.jsonl";
  const fs::path healed = fs::temp_directory_path() / "hard_healed.jsonl";
  ASSERT_EQ(run_bench("--trials-out=" + base.string()), 0);
  const std::string baseline = slurp(base);
  ASSERT_FALSE(baseline.empty());

  // Keep the first row, tear the second mid-line: the shape a SIGKILLed
  // campaign actually leaves behind. Before the fix this crashed the resume
  // with an uncaught FormatError from Json::parse.
  {
    std::istringstream in(baseline);
    std::ofstream out(prior, std::ios::binary);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    out << line << "\n";
    ASSERT_TRUE(std::getline(in, line));
    out << line.substr(0, line.size() / 2);
  }
  ASSERT_EQ(run_bench("--resume-from=" + prior.string() +
                      " --trials-out=" + healed.string()),
            0)
      << "a torn trailing line must not crash the resume";
  EXPECT_EQ(slurp(healed), baseline);
  for (const fs::path& p : {base, prior, healed}) fs::remove(p);
}

TEST(BenchResume, InPlaceResumeSurvivesBecauseCommitIsAtomic) {
  // --resume-from=X --trials-out=X: before the fix the output open(trunc)
  // destroyed the only copy of the input before the first row was written.
  const fs::path base = fs::temp_directory_path() / "hard_inplace_base.jsonl";
  const fs::path f = fs::temp_directory_path() / "hard_inplace.jsonl";
  ASSERT_EQ(run_bench("--trials-out=" + base.string()), 0);
  const std::string baseline = slurp(base);

  {  // thin to the first row only
    std::istringstream in(baseline);
    std::ofstream out(f, std::ios::binary);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    out << line << "\n";
  }
  ASSERT_EQ(run_bench("--resume-from=" + f.string() +
                      " --trials-out=" + f.string()),
            0);
  EXPECT_EQ(slurp(f), baseline)
      << "in-place resume must heal to the uninterrupted artifact";
  fs::remove(base);
  fs::remove(f);
}

TEST(BenchResume, MismatchedSeedIsRefusedNotMerged) {
  const fs::path base = fs::temp_directory_path() / "hard_fp_base.jsonl";
  const fs::path out = fs::temp_directory_path() / "hard_fp_out.jsonl";
  ASSERT_EQ(run_bench("--trials-out=" + base.string()), 0);
  // Same bench, different campaign identity: the fingerprint stamped on the
  // prior rows no longer matches, so the resume must refuse (exit 2), not
  // silently merge two campaigns into one artifact.
  EXPECT_EQ(run_bench("--seed=43 --resume-from=" + base.string() +
                      " --trials-out=" + out.string()),
            2);
  EXPECT_FALSE(fs::exists(out)) << "refused resume must not commit output";
  fs::remove(base);
}

TEST(BenchOptions, MalformedNumericFlagExitsTwo) {
  // Before the fix, std::stoull threw std::invalid_argument straight out of
  // BenchOptions::parse and the bench died with an uncaught exception
  // (SIGABRT) instead of a diagnostic.
  EXPECT_EQ(run_bench("--jobs=abc"), 2);
  EXPECT_EQ(run_bench("--trainings=1x"), 2);  // trailing junk, not just alpha
  EXPECT_EQ(run_bench("--seed="), 2);
}

TEST(BenchOptions, PrefixReuseTakesOnlyOnOrOff) {
  // Anything but "off", "0" or "false" used to mean on, so a typo such as
  // --prefix-reuse=of silently ran the prefixed path.
  for (const char* v : {"of", "0", "false", "", "ON"}) {
    EXPECT_EQ(run_bench(std::string("--prefix-reuse=") + v), 2) << v;
  }
}

}  // namespace
}  // namespace ckptfi::core
