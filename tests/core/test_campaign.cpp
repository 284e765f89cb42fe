// The campaign registry: every registered kind must survive the fleet
// manifest round-trip — the rebuilt campaign has the same cells and
// fingerprint and produces the same row for a sampled trial — keep its
// pinned artifact shape and row bytes, and refuse cells and modes it does
// not run; an unknown kind is refused with the registered names in the
// message, options no trial can run with are refused naming the field, and
// a manifest with a negative size or a malformed seed with a FormatError.
// Every options key either changes the fingerprint or no row byte.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"

namespace ckptfi::core {
namespace {

/// fig4's predict mode (the inference path bench/perf's predict_deep runs)
/// is a parameter of its own; every other parameter is a kind in its
/// default mode.
constexpr const char* kFig4Predict = "fig4_predict";

std::vector<std::string> params() {
  std::vector<std::string> p = campaign_kinds();
  p.push_back(kFig4Predict);
  return p;
}

CampaignOptions tiny_options(const std::string& param) {
  CampaignOptions o;
  const bool fig4_predict = param == kFig4Predict;
  o.bench = fig4_predict ? "fig4" : param;
  o.mode = fig4_predict ? "predict" : param == "table7" ? "fp64" : "train";
  o.trainings = 2;
  o.train_images = 32;
  o.test_images = 64;  // table8 predicts on test-set halves: two batches
  o.width = 2;
  o.total_epochs = 2;
  o.restart_epoch = 1;
  o.resume_epochs = 1;
  o.seed = 42;
  return o;
}

/// The sampled trial: the last one of the middle cell.
const CampaignCell& sampled_cell(const Campaign& c) {
  return c.cells()[c.cells().size() / 2];
}

TrialContext sampled_trial(const Campaign& c) {
  const CampaignCell& cell = sampled_cell(c);
  return {cell.trials - 1,
          trial_seed(c.cell_seed(cell.name), cell.trials - 1)};
}

/// Per-cell trial counts in cell order, run-length coded ("2x36" is 36
/// cells of 2 trials).
std::string trials_per_cell(const Campaign& c) {
  std::string out;
  std::size_t run = 0;
  for (std::size_t i = 0; i < c.cells().size(); ++i) {
    ++run;
    const std::size_t trials = c.cells()[i].trials;
    if (i + 1 < c.cells().size() && c.cells()[i + 1].trials == trials) continue;
    out += (out.empty() ? "" : ",") + std::to_string(trials) + "x" +
           std::to_string(run);
    run = 0;
  }
  return out;
}

/// A row's top-level keys in order, comma-joined.
std::string key_sequence(const Json& row) {
  std::string out;
  for (const auto& member : row.members())
    out += (out.empty() ? "" : ",") + member.first;
  return out;
}

/// What an artifact of each kind looks like at tiny_options. None of it
/// depends on the kernel lanes (CKPTFI_SIMD on or off).
struct Shape {
  std::size_t cells;
  std::string first_cell;
  std::string last_cell;
  std::string trials;    ///< trials_per_cell()
  std::string keys;      ///< key_sequence() of the sampled row
  std::uint32_t row_crc; ///< crc32 of the sampled row's dump(): its bytes
};

const std::map<std::string, Shape>& pinned_shapes() {
  static const std::map<std::string, Shape> shapes = {
      {"table4",
       {36, "chainer/resnet50/1", "tensorflow/alexnet/1000", "2x36",
        "cell,trial,seed,collapsed,final_accuracy,clean_accuracy,log,"
        "divergence,fp",
        0x0ad7c68e}},
      {"table5",
       {9, "chainer/resnet50", "tensorflow/alexnet", "2x9",
        "cell,trial,seed,rwc,collapsed,final_accuracy,clean_accuracy,log,"
        "divergence,fp",
        0x22264607}},
      {"table6",
       {18, "chainer/resnet50/maskbaseline",
        "tensorflow/resnet50/mask11101101", "1x1,2x5,1x1,2x5,1x1,2x5",
        "cell,trial,seed,collapsed,final_accuracy,log,fp",
        0x4844adef}},
      {"table7",
       {24, "chainer/resnet50/p16/1", "chainer/alexnet/p32/1000", "2x24",
        "cell,trial,seed,collapsed,final_accuracy,log,fp",
        0x9dae7717}},
      {"table8",
       {45, "chainer/resnet50/p16/predict0", "chainer/alexnet/p64/predict1000",
        "1x1,2x4,1x1,2x4,1x1,2x4,1x1,2x4,1x1,2x4,1x1,2x4,1x1,2x4,1x1,2x4,"
        "1x1,2x4",
        "cell,trial,seed,nev,accuracy,log,fp",
        0xf8aad4e9}},
      {"fig2",
       {7, "fig2/[0,63] full value", "fig2/[62,62] exponent MSB only", "2x7",
        "cell,trial,seed,collapsed,final_accuracy,flips_applied,fp",
        0x06a2139c}},
      {"fig3",
       {12, "chainer/resnet50/10", "tensorflow/alexnet/1000", "2x12",
        "cell,trial,seed,curve,log,fp",
        0x7a1c450c}},
      {"fig4",
       {3, "fig4/conv1", "fig4/fc8", "2x3",
        "cell,trial,seed,collapsed,final_accuracy,clean_accuracy,accuracy,"
        "log,divergence,fp",
        0x448a4b8d}},
      {"fig5",
       {2, "fig5/pytorch", "fig5/tensorflow", "3x2",
        "cell,trial,seed,layer,replayed,final_accuracy,accuracy,fp",
        0x51612164}},
      {"fig6",
       {1, "fig6/propagation", "fig6/propagation", "3x1",
        "cell,trial,seed,layer,collapsed,final_accuracy,clean_accuracy,"
        "diff_weights,q1,median,q3,whisker_lo,whisker_hi,n_outliers,"
        "divergence,fp",
        0xf5b5c0f4}},
      {"fig7",
       {20, "fig7/10x1.5", "fig7/1000x4500.0", "2x20",
        "cell,trial,seed,accuracy,fp",
        0x76baefeb}},
      {"ablation_nev_guard",
       {6, "ablation/100/unguarded", "ablation/1000/guard: clamp", "2x6",
        "cell,trial,seed,collapsed,final_accuracy,fp",
        0x6cb88800}},
      {kFig4Predict,
       {3, "fig4predict/conv1", "fig4predict/fc8", "2x3",
        "cell,trial,seed,accuracy,nev,log,fp", 0x5c77e750}},
  };
  return shapes;
}

class CampaignRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(CampaignRegistry, ArtifactShapeIsPinned) {
  const std::unique_ptr<Campaign> c = Campaign::make(tiny_options(GetParam()));
  ASSERT_FALSE(c->cells().empty());
  c->prepare_cell(sampled_cell(*c).name);
  const Json row = c->run_trial(sampled_cell(*c).name, sampled_trial(*c));
  const auto pinned = pinned_shapes().find(GetParam());
  ASSERT_NE(pinned, pinned_shapes().end()) << "no pinned shape for this kind";
  const Shape& want = pinned->second;
  EXPECT_EQ(c->cells().size(), want.cells);
  EXPECT_EQ(c->cells().front().name, want.first_cell);
  EXPECT_EQ(c->cells().back().name, want.last_cell);
  EXPECT_EQ(trials_per_cell(*c), want.trials);
  EXPECT_EQ(key_sequence(row), want.keys);
  const std::string bytes = row.dump();
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), want.row_crc)
      << std::hex << "got 0x" << crc32(bytes.data(), bytes.size());
}

TEST_P(CampaignRegistry, RefusesCellsItDoesNotRun) {
  const std::unique_ptr<Campaign> c = Campaign::make(tiny_options(GetParam()));
  const TrialContext trial{0, trial_seed(1, 0)};
  for (const std::string& cell :
       {std::string("no/such/cell"), c->cells().front().name + "x",
        std::string("chainer/alexnet/abc"), std::string("chainer/alexnet/7")}) {
    EXPECT_THROW(c->prepare_cell(cell), Error) << cell;
    EXPECT_THROW(c->run_trial(cell, trial), Error) << cell;
  }
}

TEST_P(CampaignRegistry, RefusesModesItDoesNotRun) {
  CampaignOptions o = tiny_options(GetParam());
  const std::string kind = o.bench;
  const std::vector<std::string> runs =
      kind == "fig4"     ? std::vector<std::string>{"train", "predict"}
      : kind == "table7" ? std::vector<std::string>{"fp64", "fp16"}
                         : std::vector<std::string>{"train"};
  for (const char* mode :
       {"train", "predict", "fp64", "fp16", "Predict", "", "train|predict"}) {
    o.mode = mode;
    if (std::find(runs.begin(), runs.end(), mode) != runs.end()) {
      EXPECT_NO_THROW(Campaign::make(o)) << mode;
    } else {
      EXPECT_THROW(Campaign::make(o), Error) << mode;
    }
  }
}

TEST_P(CampaignRegistry, ManifestRoundTripReplaysTheSameRow) {
  const std::unique_ptr<Campaign> built =
      Campaign::make(tiny_options(GetParam()));
  const std::unique_ptr<Campaign> rebuilt =
      campaign_from_manifest(campaign_manifest(*built));

  EXPECT_EQ(rebuilt->options().fingerprint_hex(),
            built->options().fingerprint_hex());
  ASSERT_EQ(rebuilt->cells().size(), built->cells().size());
  ASSERT_FALSE(built->cells().empty());
  for (std::size_t i = 0; i < built->cells().size(); ++i) {
    EXPECT_EQ(rebuilt->cells()[i].name, built->cells()[i].name);
    EXPECT_EQ(rebuilt->cells()[i].trials, built->cells()[i].trials);
  }

  const CampaignCell& cell = sampled_cell(*built);
  const TrialContext trial = sampled_trial(*built);
  built->prepare_cell(cell.name);
  rebuilt->prepare_cell(cell.name);
  const Json row = built->run_trial(cell.name, trial);
  EXPECT_EQ(rebuilt->run_trial(cell.name, trial).dump(), row.dump());
  EXPECT_EQ(row.at("cell").as_string(), cell.name);
  EXPECT_EQ(row.at("fp").as_string(), built->options().fingerprint_hex());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CampaignRegistry, ::testing::ValuesIn(params()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(CampaignRegistryErrors, UnknownKindListsTheRegisteredNames) {
  try {
    Campaign::make(tiny_options("table9"));
    FAIL() << "an unknown kind must be refused";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("table9"), std::string::npos) << what;
    for (const std::string& kind : campaign_kinds())
      EXPECT_NE(what.find(kind), std::string::npos) << what;
  }
}

TEST(CampaignRegistryErrors, Table7RefusesAnUnknownComputePrecision) {
  CampaignOptions o = tiny_options("table7");
  o.mode = "fp8";
  EXPECT_THROW(Campaign::make(o), Error);
}

/// `make()` must throw an Error whose message names `field` in quotes.
void expect_refused_naming(const std::function<void()>& make,
                           const std::string& field) {
  try {
    make();
    ADD_FAILURE() << "options with a bad '" << field << "' must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
              std::string::npos)
        << e.what();
  }
}

// Options no trial can run with are refused when the campaign is built, not
// thrown from inside a trial (which aborts a bench with std::terminate):
// directly, for every kind, and through a fleet manifest, which is how
// fleetd and the workers build campaigns.
TEST(CampaignRegistryErrors, RefusesOptionsNoTrialCanRun) {
  const std::vector<
      std::pair<std::string, std::function<void(CampaignOptions&)>>>
      unrunnable = {
          {"width", [](CampaignOptions& o) { o.width = 0; }},
          {"train_images", [](CampaignOptions& o) { o.train_images = 0; }},
          {"test_images", [](CampaignOptions& o) { o.test_images = 0; }},
          {"restart_epoch",
           [](CampaignOptions& o) { o.restart_epoch = o.total_epochs; }},
          {"restart_epoch",
           [](CampaignOptions& o) { o.restart_epoch = o.total_epochs + 3; }},
          {"total_epochs", [](CampaignOptions& o) { o.total_epochs = 0; }},
      };
  const Json manifest =
      campaign_manifest(*Campaign::make(tiny_options("table4")));
  for (const auto& [field, spoil] : unrunnable) {
    for (const std::string& param : params()) {
      CampaignOptions o = tiny_options(param);
      spoil(o);
      expect_refused_naming([&] { Campaign::make(o); }, field);
    }
    CampaignOptions o = tiny_options("table4");
    spoil(o);
    Json m = manifest;
    m["options"] = o.to_json();
    m["fp"] = o.fingerprint_hex();
    expect_refused_naming([&] { campaign_from_manifest(m); }, field);
  }
}

// Campaign identity is complete: changing any key of the options either
// changes the fingerprint, or changes no row byte. Only trainings (a
// campaign extended is the same campaign) and prefix_reuse (fig4 predict's
// bitwise-neutral path switch) may keep the fingerprint. The key set is
// pinned, so a new field fails here until someone classifies it.
TEST(CampaignIdentity, EveryKeyChangesTheFingerprintOrNoRowByte) {
  const CampaignOptions base = tiny_options(kFig4Predict);
  const Json base_json = base.to_json();
  std::vector<std::string> keys;
  for (const auto& member : base_json.members()) keys.push_back(member.first);
  ASSERT_EQ(keys, (std::vector<std::string>{
                      "bench", "mode", "layers", "trainings", "train_images",
                      "test_images", "width", "total_epochs", "restart_epoch",
                      "resume_epochs", "seed", "prefix_reuse"}));

  Json conv4 = Json::array();
  conv4.push_back("conv4");
  const std::map<std::string, Json> changed = {
      {"bench", Json("fig6")},         {"mode", Json("train")},
      {"layers", conv4},               {"trainings", Json(3)},
      {"train_images", Json(48)},      {"test_images", Json(32)},
      {"width", Json(3)},              {"total_epochs", Json(3)},
      {"restart_epoch", Json(0)},      {"resume_epochs", Json(2)},
      {"seed", Json("43")},            {"prefix_reuse", Json(false)},
  };
  const std::set<std::string> row_neutral = {"trainings", "prefix_reuse"};

  // Trial 1 of the middle cell: it exists at 2 and at 3 trainings.
  const auto row = [](const CampaignOptions& o) {
    const std::unique_ptr<Campaign> c = Campaign::make(o);
    const CampaignCell& cell = sampled_cell(*c);
    c->prepare_cell(cell.name);
    return c->run_trial(cell.name, {1, trial_seed(c->cell_seed(cell.name), 1)})
        .dump();
  };
  const std::string base_row = row(base);

  for (const std::string& key : keys) {
    ASSERT_EQ(changed.count(key), 1u) << "no changed value for '" << key << "'";
    Json j = base_json;
    ASSERT_NE(j.at(key).dump(), changed.at(key).dump()) << key;
    j[key] = changed.at(key);
    const CampaignOptions o = CampaignOptions::from_json(j);
    if (row_neutral.count(key) == 0) {
      EXPECT_NE(o.fingerprint(), base.fingerprint())
          << "'" << key << "' can change rows but not the fingerprint";
    } else {
      EXPECT_EQ(o.fingerprint(), base.fingerprint()) << key;
      EXPECT_EQ(row(o), base_row) << "'" << key << "' changed a row's bytes";
    }
  }
}

/// from_json(j) must throw FormatError naming `key`.
void expect_refused(const Json& j, const std::string& key) {
  try {
    CampaignOptions::from_json(j);
    ADD_FAILURE() << j.dump() << " must be refused";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
        << e.what();
  }
}

// The GEMM compute precision is process state. A table7 fp16 prepare must
// not leak into a campaign prepared after it in the same process: each
// prepare_cell applies its own campaign's precision, so the later table4
// rows match the ones computed before the fp16 campaign existed.
TEST(CampaignPrecision, LaterCampaignDoesNotInheritFp16) {
  CampaignOptions table4 = tiny_options("table4");
  table4.trainings = 1;
  table4.test_images = 16;
  const std::string cell = "chainer/alexnet/10";
  const auto row = [&] {
    const std::unique_ptr<Campaign> c = Campaign::make(table4);
    c->prepare_cell(cell);
    return c->run_trial(cell, {0, trial_seed(c->cell_seed(cell), 0)}).dump();
  };
  const std::string before = row();

  CampaignOptions table7 = table4;
  table7.bench = "table7";
  table7.mode = "fp16";
  const std::unique_ptr<Campaign> fp16 = Campaign::make(table7);
  fp16->prepare_cell(fp16->cells().front().name);

  EXPECT_EQ(row(), before);
}

TEST(CampaignOptionsFromJson, RefusesNegativeSizes) {
  for (const char* key : {"trainings", "train_images", "test_images", "width",
                          "total_epochs", "restart_epoch", "resume_epochs"}) {
    Json j = tiny_options("table4").to_json();
    j[key] = -1;
    expect_refused(j, key);
  }
  // The fleet coordinator reads options through the manifest.
  Json m = campaign_manifest(*Campaign::make(tiny_options("table4")));
  m["options"]["trainings"] = -1;
  EXPECT_THROW(campaign_from_manifest(m), FormatError);
}

TEST(CampaignOptionsFromJson, RefusesSeedsThatAreNotPlainDecimalU64) {
  for (const char* seed : {"-1", "42abc", " 7", "7 ", "abc", "", "+7", "0x10",
                           "18446744073709551616"}) {
    Json j = tiny_options("table4").to_json();
    j["seed"] = seed;
    expect_refused(j, "seed");
  }
  Json j = tiny_options("table4").to_json();
  j["seed"] = "18446744073709551615";
  EXPECT_EQ(CampaignOptions::from_json(j).seed,
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace ckptfi::core
