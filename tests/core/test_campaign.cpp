// The campaign registry: every registered kind must survive the fleet
// manifest round-trip — the rebuilt campaign has the same cells and
// fingerprint and produces the same row for a sampled trial — and an
// unknown kind is refused with the registered names in the message.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/scheduler.hpp"
#include "util/common.hpp"

namespace ckptfi::core {
namespace {

CampaignOptions tiny_options(const std::string& kind) {
  CampaignOptions o;
  o.bench = kind;
  o.mode = kind == "table7" ? "fp64" : "train";
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

class CampaignRegistry : public ::testing::TestWithParam<std::string> {};

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

  // Sample the last trial of a middle cell.
  const CampaignCell& cell = built->cells()[built->cells().size() / 2];
  const TrialContext trial{cell.trials - 1,
                           trial_seed(built->cell_seed(cell.name),
                                      cell.trials - 1)};
  built->prepare_cell(cell.name);
  rebuilt->prepare_cell(cell.name);
  const Json row = built->run_trial(cell.name, trial);
  EXPECT_EQ(rebuilt->run_trial(cell.name, trial).dump(), row.dump());
  EXPECT_EQ(row.at("cell").as_string(), cell.name);
  EXPECT_EQ(row.at("fp").as_string(), built->options().fingerprint_hex());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CampaignRegistry, ::testing::ValuesIn(campaign_kinds()),
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

}  // namespace
}  // namespace ckptfi::core
