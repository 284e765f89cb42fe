// End-to-end acceptance for prefix reuse and campaign resume: the four
// scheduler-ported campaign benches must emit byte-identical --trials-out
// JSONL with --prefix-reuse=on --jobs=8 on the default ISA and with
// --prefix-reuse=off --jobs=1 on the scalar lanes (CKPTFI_SIMD=off), with
// CKPTFI_KERNELS / CKPTFI_GEMM_PRECISION set to values that once selected
// other numerics. One diff covers prefix-on ≡ prefix-off, --jobs 8 ≡
// --jobs 1, scalar ≡ vector, and that those variables no longer move a
// byte. On top, --resume-from must reproduce a prior artifact
// byte-for-byte, both when every row is resumed and when half the rows are
// recomputed from their splitmix64 seeds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

/// The environment of the reference side of each pair: the scalar lanes,
/// plus the variables that used to pick the fast tier and fp16 GEMM.
const char* const kScalarEnv =
    "CKPTFI_SIMD=off CKPTFI_KERNELS=fast CKPTFI_GEMM_PRECISION=fp16";

/// Run one bench with `env` prepended, writing --trials-out to `out`. The
/// bench runs inside the temp dir so nothing it writes lands in the build
/// tree.
void run_bench(const std::string& binary, const std::string& env,
               const std::string& flags, const fs::path& out) {
  const std::string cmd = "cd " + fs::temp_directory_path().string() +
                          " && " + env + " \"" + binary + "\"" + kTinyScale +
                          " " + flags + " --trials-out=" + out.string() +
                          " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

void expect_parity(const std::string& name, const std::string& binary,
                   const std::string& extra_flags) {
  const fs::path on = fs::temp_directory_path() / (name + "_prefix_on.jsonl");
  const fs::path off =
      fs::temp_directory_path() / (name + "_prefix_off.jsonl");
  run_bench(binary, "", extra_flags + " --prefix-reuse=on --jobs=8", on);
  run_bench(binary, kScalarEnv, extra_flags + " --prefix-reuse=off --jobs=1",
            off);
  const std::string a = slurp(on);
  EXPECT_FALSE(a.empty()) << name;
  EXPECT_EQ(a, slurp(off)) << name
                           << ": prefix-on/jobs=8 differs from "
                              "prefix-off/jobs=1 on the scalar lanes";
  fs::remove(on);
  fs::remove(off);
}

TEST(PrefixBenchParity, Fig4Train) {
  expect_parity("fig4", CKPTFI_BENCH_FIG4, "");
}

TEST(PrefixBenchParity, Fig4Predict) {
  expect_parity("fig4predict", CKPTFI_BENCH_FIG4, "--mode=predict");
}

TEST(PrefixBenchParity, Fig6) {
  expect_parity("fig6", CKPTFI_BENCH_FIG6, "");
}

TEST(PrefixBenchParity, Table5) {
  expect_parity("table5", CKPTFI_BENCH_TABLE5, "");
}

TEST(PrefixBenchParity, Table6) {
  expect_parity("table6", CKPTFI_BENCH_TABLE6, "");
}

// --resume-from: a full prior artifact round-trips byte-identically (every
// row re-emitted verbatim), and a half-thinned artifact is completed back to
// the exact original bytes — recomputed rows land between resumed ones with
// the same seeds, values and key order.
TEST(ResumeFrom, ReproducesArtifactByteForByte) {
  const fs::path base = fs::temp_directory_path() / "resume_base.jsonl";
  const fs::path full = fs::temp_directory_path() / "resume_full.jsonl";
  const fs::path partial = fs::temp_directory_path() / "resume_partial.jsonl";
  const fs::path healed = fs::temp_directory_path() / "resume_healed.jsonl";

  run_bench(CKPTFI_BENCH_FIG4, "", "--mode=predict --jobs=2", base);
  const std::string baseline = slurp(base);
  ASSERT_FALSE(baseline.empty());

  run_bench(CKPTFI_BENCH_FIG4, "",
            "--mode=predict --jobs=2 --resume-from=" + base.string(), full);
  EXPECT_EQ(slurp(full), baseline) << "full resume must re-emit every row";

  // Thin the artifact to every other line, as if the campaign died midway.
  {
    std::istringstream in(baseline);
    std::ofstream out(partial, std::ios::binary);
    std::string line;
    for (std::size_t i = 0; std::getline(in, line); ++i)
      if (i % 2 == 0) out << line << "\n";
  }
  run_bench(CKPTFI_BENCH_FIG4, "",
            "--mode=predict --jobs=2 --resume-from=" + partial.string(),
            healed);
  EXPECT_EQ(slurp(healed), baseline)
      << "partial resume must recompute missing rows bitwise";

  for (const fs::path& p : {base, full, partial, healed}) fs::remove(p);
}

}  // namespace
