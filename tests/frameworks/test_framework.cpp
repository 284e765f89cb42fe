#include "frameworks/framework.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "models/models.hpp"
#include "tensor/quantize.hpp"
#include "util/common.hpp"

namespace ckptfi::fw {
namespace {

models::ModelConfig tiny() {
  models::ModelConfig cfg;
  cfg.width = 2;
  return cfg;
}

TEST(ClassifyParam, ByLeafAndRank) {
  Tensor conv_w({4, 2, 3, 3});
  Tensor dense_w({8, 4});
  Tensor vec({4});
  EXPECT_EQ(classify_param("conv1/W", conv_w), ParamKind::ConvW);
  EXPECT_EQ(classify_param("fc1/W", dense_w), ParamKind::DenseW);
  EXPECT_EQ(classify_param("conv1/b", vec), ParamKind::Bias);
  EXPECT_EQ(classify_param("bn1/gamma", vec), ParamKind::Gamma);
  EXPECT_EQ(classify_param("bn1/beta", vec), ParamKind::Beta);
  EXPECT_EQ(classify_param("bn1/running_mean", vec), ParamKind::RunningMean);
  EXPECT_EQ(classify_param("bn1/running_var", vec), ParamKind::RunningVar);
  EXPECT_THROW(classify_param("bn1/oddball", vec), InvalidArgument);
}

TEST(SplitCanonical, Parses) {
  const auto [layer, leaf] = split_canonical("stage1_block1_conv1/W");
  EXPECT_EQ(layer, "stage1_block1_conv1");
  EXPECT_EQ(leaf, "W");
  EXPECT_THROW(split_canonical("noslash"), InvalidArgument);
  EXPECT_THROW(split_canonical("/leading"), InvalidArgument);
}

TEST(Adapters, FactoryAndNames) {
  EXPECT_EQ(framework_names(),
            (std::vector<std::string>{"chainer", "pytorch", "tensorflow"}));
  for (const auto& name : framework_names()) {
    EXPECT_EQ(make_adapter(name)->name(), name);
  }
  EXPECT_THROW(make_adapter("mxnet"), InvalidArgument);
}

TEST(Adapters, PathConventionsMatchRealFrameworks) {
  Tensor conv_w({4, 2, 3, 3});
  Tensor vec({4});
  auto chainer = make_adapter("chainer");
  auto pytorch = make_adapter("pytorch");
  auto tf = make_adapter("tensorflow");

  // The paper's own example pair (Section IV-C): chainer
  // "predictor/conv1_1" vs tensorflow "model_weights/block1_conv1"-style.
  EXPECT_EQ(chainer->dataset_path("conv1_1/W", ParamKind::ConvW),
            "predictor/conv1_1/W");
  EXPECT_EQ(tf->dataset_path("conv1_1/W", ParamKind::ConvW),
            "model_weights/conv1_1/kernel");
  EXPECT_EQ(pytorch->dataset_path("conv1_1/W", ParamKind::ConvW),
            "state_dict/conv1_1.weight");

  EXPECT_EQ(chainer->dataset_path("bn1/running_mean", ParamKind::RunningMean),
            "predictor/bn1/avg_mean");
  EXPECT_EQ(tf->dataset_path("bn1/running_mean", ParamKind::RunningMean),
            "model_weights/bn1/moving_mean");
  EXPECT_EQ(pytorch->dataset_path("bn1/running_mean", ParamKind::RunningMean),
            "state_dict/bn1.running_mean");
  EXPECT_EQ(pytorch->dataset_path("bn1/gamma", ParamKind::Gamma),
            "state_dict/bn1.weight");
}

class LayoutTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LayoutTest, IndexPermutationIsBijective) {
  auto adapter = make_adapter(GetParam());
  const Shape conv_dims{4, 3, 3, 3};
  const Shape dense_dims{6, 5};
  for (ParamKind kind : {ParamKind::ConvW, ParamKind::DenseW}) {
    const Shape& dims = kind == ParamKind::ConvW ? conv_dims : dense_dims;
    const std::uint64_t n = shape_numel(dims);
    std::vector<bool> seen(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t s = adapter->stored_index(i, dims, kind);
      ASSERT_LT(s, n);
      EXPECT_FALSE(seen[s]) << "collision at " << i;
      seen[s] = true;
      EXPECT_EQ(adapter->canonical_index(s, dims, kind), i);
    }
  }
}

TEST_P(LayoutTest, StoredDimsPreserveNumel) {
  auto adapter = make_adapter(GetParam());
  const Shape conv_dims{4, 3, 3, 3};
  for (ParamKind kind :
       {ParamKind::ConvW, ParamKind::DenseW, ParamKind::Bias}) {
    const Shape dims = kind == ParamKind::Bias ? Shape{7}
                       : kind == ParamKind::DenseW ? Shape{6, 5}
                                                   : conv_dims;
    EXPECT_EQ(shape_numel(adapter->stored_dims(dims, kind)),
              shape_numel(dims));
  }
}

INSTANTIATE_TEST_SUITE_P(All, LayoutTest,
                         ::testing::Values("chainer", "pytorch",
                                           "tensorflow"));

TEST(Adapters, TensorFlowConvIsHwio) {
  auto tf = make_adapter("tensorflow");
  EXPECT_EQ(tf->stored_dims({8, 4, 3, 3}, ParamKind::ConvW),
            (Shape{3, 3, 4, 8}));
  // Element (o=1, i=0, h=0, w=0): canonical index = 1*4*9 = 36.
  // HWIO index = ((0*3+0)*4+0)*8 + 1 = 1.
  EXPECT_EQ(tf->stored_index(36, {8, 4, 3, 3}, ParamKind::ConvW), 1u);
}

TEST(Adapters, ChainerDenseIsTransposed) {
  auto chainer = make_adapter("chainer");
  EXPECT_EQ(chainer->stored_dims({5, 3}, ParamKind::DenseW), (Shape{3, 5}));
  // canonical (in=2, out=1) -> index 2*3+1=7; stored (out=1, in=2) -> 1*5+2=7.
  EXPECT_EQ(chainer->stored_index(7, {5, 3}, ParamKind::DenseW), 7u);
  // canonical (in=0, out=2) -> 2; stored -> 2*5+0 = 10.
  EXPECT_EQ(chainer->stored_index(2, {5, 3}, ParamKind::DenseW), 10u);
}

TEST(Adapters, InitSeedsDifferAcrossFrameworks) {
  std::set<std::uint64_t> seeds;
  for (const auto& name : framework_names()) {
    seeds.insert(make_adapter(name)->init_seed(42));
  }
  EXPECT_EQ(seeds.size(), 3u);
  // Deterministic per framework.
  EXPECT_EQ(make_adapter("chainer")->init_seed(42),
            make_adapter("chainer")->init_seed(42));
}

class CheckpointRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CheckpointRoundTrip, SaveLoadRestoresWeights) {
  const auto& [fw_name, precision] = GetParam();
  auto adapter = make_adapter(fw_name);
  auto model = models::make_mini_alexnet(tiny());
  model->init(adapter->init_seed(7));

  mh5::File ckpt = adapter->checkpoint_to_file(*model, precision, 20);

  auto model2 = models::make_mini_alexnet(tiny());
  model2->init(999);  // different init; must be overwritten by the load
  adapter->load_from_file(*model2, ckpt);

  for (const auto& p : model->params()) {
    const auto* q = model2->find_param(p.name);
    ASSERT_NE(q, nullptr);
    for (std::size_t i = 0; i < p.value->numel(); ++i) {
      const double expected = quantize_value((*p.value)[i], precision);
      EXPECT_DOUBLE_EQ((*q->value)[i], expected)
          << p.name << "[" << i << "]";
    }
  }
}

/// A temp file path no other test uses: ctest runs tests in parallel, and the
/// instances of one test share their parameters with the suite's other tests.
std::string unique_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" +
                     info->name() + suffix;
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return (std::filesystem::temp_directory_path() / (name + ".h5")).string();
}

/// The seeded alexnet every disk round trip below saves at epoch 5.
std::unique_ptr<nn::Model> saved_model(const FrameworkAdapter& adapter) {
  auto model = models::make_mini_alexnet(tiny());
  model->init(adapter.init_seed(7));
  return model;
}

TEST_P(CheckpointRoundTrip, DiskRoundTrip) {
  const auto& [fw_name, precision] = GetParam();
  auto adapter = make_adapter(fw_name);
  auto model = saved_model(*adapter);
  const std::string path = unique_temp_path("");
  adapter->save_checkpoint(*model, path, precision, 5);

  // Every dataset's raw bytes (the bit-level view the injector corrupts) and
  // the root attributes survive the container round trip untouched.
  const mh5::File original = adapter->checkpoint_to_file(*model, precision, 5);
  const mh5::File reread = mh5::File::load(path);
  const auto paths = original.dataset_paths();
  ASSERT_FALSE(paths.empty());
  ASSERT_EQ(reread.dataset_paths(), paths);
  for (const auto& p : paths) {
    SCOPED_TRACE(p);
    EXPECT_EQ(reread.dataset(p).dtype(), original.dataset(p).dtype());
    EXPECT_EQ(reread.dataset(p).raw(), original.dataset(p).raw());
  }
  EXPECT_EQ(reread.root().attrs(), original.root().attrs());
  EXPECT_EQ(checkpoint_epoch(reread), 5);
  EXPECT_EQ(checkpoint_precision(reread), precision);
  EXPECT_EQ(checkpoint_framework(reread), fw_name);
  std::filesystem::remove(path);
}

TEST_P(CheckpointRoundTrip, LoadCheckpointEqualsLoadFromFile) {
  const auto& [fw_name, precision] = GetParam();
  auto adapter = make_adapter(fw_name);
  const std::string path = unique_temp_path("");
  adapter->save_checkpoint(*saved_model(*adapter), path, precision, 5);

  // The path entry point (a lazy open) feeds the model exactly what the
  // eager load hands to load_from_file.
  auto from_path = models::make_mini_alexnet(tiny());
  adapter->load_checkpoint(*from_path, path);
  auto from_file = models::make_mini_alexnet(tiny());
  adapter->load_from_file(*from_file, mh5::File::load(path));
  ASSERT_EQ(from_path->params().size(), from_file->params().size());
  for (const auto& p : from_file->params()) {
    SCOPED_TRACE(p.name);
    EXPECT_EQ(from_path->find_param(p.name)->value->vec(), p.value->vec());
  }
  std::filesystem::remove(path);
}

TEST_P(CheckpointRoundTrip, LazyResaveIsByteIdentical) {
  // Corrupter::corrupt_file is load_lazy, flip, save: with nothing flipped,
  // every payload of every layout streams back verbatim and the file keeps
  // its bytes.
  const auto& [fw_name, precision] = GetParam();
  auto adapter = make_adapter(fw_name);
  const std::string path = unique_temp_path("_in");
  const std::string resaved = unique_temp_path("_out");
  adapter->save_checkpoint(*saved_model(*adapter), path, precision, 5);
  mh5::File::load_lazy(path).save(resaved);

  const auto bytes_of = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  const std::vector<char> want = bytes_of(path);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(bytes_of(resaved), want);
  std::filesystem::remove(path);
  std::filesystem::remove(resaved);
}

INSTANTIATE_TEST_SUITE_P(
    All, CheckpointRoundTrip,
    ::testing::Combine(::testing::Values("chainer", "pytorch", "tensorflow"),
                       ::testing::Values(16, 32, 64)));

TEST(Checkpoint, RootAttributesRecorded) {
  auto adapter = make_adapter("tensorflow");
  auto model = models::make_mini_alexnet(tiny());
  model->init(1);
  const mh5::File ckpt = adapter->checkpoint_to_file(*model, 32, 20);
  EXPECT_EQ(checkpoint_framework(ckpt), "tensorflow");
  EXPECT_EQ(checkpoint_epoch(ckpt), 20);
  EXPECT_EQ(checkpoint_precision(ckpt), 32);
  EXPECT_EQ(std::get<std::string>(ckpt.root().attr("model")), "alexnet");
}

TEST(Checkpoint, DiskRoundTrip) {
  auto adapter = make_adapter("chainer");
  auto model = models::make_mini_alexnet(tiny());
  model->init(2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fw_roundtrip.h5").string();
  adapter->save_checkpoint(*model, path, 64, 5);
  auto model2 = models::make_mini_alexnet(tiny());
  adapter->load_checkpoint(*model2, path);
  EXPECT_EQ(model->find_param("conv1/W")->value->vec(),
            model2->find_param("conv1/W")->value->vec());
  std::filesystem::remove(path);
}

TEST(Checkpoint, PathMapsAreInverse) {
  auto adapter = make_adapter("pytorch");
  auto model = models::make_mini_alexnet(tiny());
  const auto fwd = adapter->path_map(*model);
  const auto inv = adapter->inverse_path_map(*model);
  EXPECT_EQ(fwd.size(), inv.size());
  for (const auto& [canon, path] : fwd) {
    EXPECT_EQ(inv.at(path), canon);
  }
}

TEST(Checkpoint, LoadRejectsMissingDataset) {
  auto adapter = make_adapter("chainer");
  auto model = models::make_mini_alexnet(tiny());
  model->init(3);
  mh5::File ckpt = adapter->checkpoint_to_file(*model, 64, 0);
  ckpt.remove("predictor/conv1/W");
  auto model2 = models::make_mini_alexnet(tiny());
  EXPECT_THROW(adapter->load_from_file(*model2, ckpt), InvalidArgument);
}

TEST(Checkpoint, RejectsBadPrecision) {
  auto adapter = make_adapter("chainer");
  auto model = models::make_mini_alexnet(tiny());
  EXPECT_THROW(adapter->checkpoint_to_file(*model, 8, 0), InvalidArgument);
}

}  // namespace
}  // namespace ckptfi::fw
