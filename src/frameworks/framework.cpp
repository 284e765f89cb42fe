#include "frameworks/framework.hpp"

#include "tensor/quantize.hpp"
#include "util/common.hpp"
#include "util/strings.hpp"

namespace ckptfi::fw {

ParamKind classify_param(const std::string& canonical_name,
                         const Tensor& value) {
  const auto [layer, leaf] = split_canonical(canonical_name);
  (void)layer;
  if (leaf == "W") return value.rank() == 4 ? ParamKind::ConvW : ParamKind::DenseW;
  if (leaf == "b") return ParamKind::Bias;
  if (leaf == "gamma") return ParamKind::Gamma;
  if (leaf == "beta") return ParamKind::Beta;
  if (leaf == "running_mean") return ParamKind::RunningMean;
  if (leaf == "running_var") return ParamKind::RunningVar;
  throw InvalidArgument("classify_param: unknown leaf in '" + canonical_name +
                        "'");
}

std::pair<std::string, std::string> split_canonical(
    const std::string& canonical_name) {
  const auto pos = canonical_name.rfind('/');
  require(pos != std::string::npos && pos > 0 &&
              pos + 1 < canonical_name.size(),
          "split_canonical: malformed name '" + canonical_name + "'");
  return {canonical_name.substr(0, pos), canonical_name.substr(pos + 1)};
}

Shape FrameworkAdapter::stored_dims(const Shape& canonical_dims,
                                    ParamKind) const {
  return canonical_dims;
}

std::uint64_t FrameworkAdapter::stored_index(std::uint64_t idx, const Shape&,
                                             ParamKind) const {
  return idx;
}

std::uint64_t FrameworkAdapter::canonical_index(std::uint64_t stored_idx,
                                                const Shape&,
                                                ParamKind) const {
  return stored_idx;
}

std::uint64_t FrameworkAdapter::init_seed(std::uint64_t base_seed) const {
  // FNV-1a over the framework name, mixed into the base seed.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return base_seed ^ h;
}

mh5::File FrameworkAdapter::checkpoint_to_file(nn::Model& model,
                                               int precision_bits,
                                               std::int64_t epoch) const {
  require(precision_bits == 16 || precision_bits == 32 || precision_bits == 64,
          "checkpoint_to_file: precision must be 16/32/64");
  mh5::File f;
  f.root().set_attr("framework", name());
  f.root().set_attr("model", model.name());
  f.root().set_attr("epoch", epoch);
  f.root().set_attr("precision_bits", static_cast<std::int64_t>(precision_bits));
  f.root().set_attr("format", std::string("ckptfi-checkpoint-v1"));

  const auto dtype = mh5::float_dtype_for_bits(precision_bits);
  for (const auto& p : model.params()) {
    const ParamKind kind = classify_param(p.name, *p.value);
    const std::string path = dataset_path(p.name, kind);
    const Shape sdims = stored_dims(p.value->shape(), kind);
    std::vector<std::uint64_t> dims64(sdims.begin(), sdims.end());
    if (dims64.empty()) dims64.push_back(1);
    mh5::Dataset& ds = f.create_dataset(path, dtype, dims64);
    const Tensor& t = *p.value;
    for (std::uint64_t i = 0; i < t.numel(); ++i) {
      ds.set_double(stored_index(i, t.shape(), kind), t[i]);
    }
  }
  return f;
}

void FrameworkAdapter::save_checkpoint(nn::Model& model,
                                       const std::string& path,
                                       int precision_bits,
                                       std::int64_t epoch) const {
  checkpoint_to_file(model, precision_bits, epoch).save(path);
}

void FrameworkAdapter::load_from_file(nn::Model& model,
                                      const mh5::File& file) const {
  for (const auto& p : model.params()) {
    const ParamKind kind = classify_param(p.name, *p.value);
    const std::string path = dataset_path(p.name, kind);
    const mh5::Node* node = file.find(path);
    require(node != nullptr && node->is_dataset(),
            "load_checkpoint: missing dataset '" + path + "'");
    const mh5::Dataset& ds = node->dataset();
    require(ds.num_elements() == p.value->numel(),
            "load_checkpoint: size mismatch at '" + path + "'");
    const std::vector<double> stored = ds.read_doubles();
    Tensor& t = *p.value;
    for (std::uint64_t i = 0; i < t.numel(); ++i) {
      t[i] = stored[stored_index(i, t.shape(), kind)];
    }
  }
}

void FrameworkAdapter::load_checkpoint(nn::Model& model,
                                       const std::string& path) const {
  // Lazy open: only datasets the model actually maps are faulted in, so
  // auxiliary payloads riding along in a checkpoint cost no I/O here.
  const mh5::File f = mh5::File::load_lazy(path);
  load_from_file(model, f);
}

std::map<std::string, std::string> FrameworkAdapter::path_map(
    nn::Model& model) const {
  std::map<std::string, std::string> out;
  for (const auto& p : model.params()) {
    const ParamKind kind = classify_param(p.name, *p.value);
    out[p.name] = dataset_path(p.name, kind);
  }
  return out;
}

std::map<std::string, std::string> FrameworkAdapter::inverse_path_map(
    nn::Model& model) const {
  std::map<std::string, std::string> out;
  for (const auto& [canon, path] : path_map(model)) out[path] = canon;
  return out;
}

std::int64_t checkpoint_epoch(const mh5::File& file) {
  return std::get<std::int64_t>(file.root().attr("epoch"));
}

int checkpoint_precision(const mh5::File& file) {
  return static_cast<int>(
      std::get<std::int64_t>(file.root().attr("precision_bits")));
}

std::string checkpoint_framework(const mh5::File& file) {
  return std::get<std::string>(file.root().attr("framework"));
}

// --- concrete adapters -------------------------------------------------------

namespace {

/// Dense [in,out] -> [out,in] transpose helpers.
std::uint64_t transpose_fwd(std::uint64_t idx, const Shape& dims) {
  const std::uint64_t in = dims[0], out = dims[1];
  (void)in;
  const std::uint64_t i = idx / out, o = idx % out;
  return o * in + i;
}
std::uint64_t transpose_inv(std::uint64_t sidx, const Shape& dims) {
  const std::uint64_t in = dims[0];
  const std::uint64_t o = sidx / in, i = sidx % in;
  return i * dims[1] + o;
}

/// Conv OIHW -> HWIO permutation helpers.
std::uint64_t oihw_to_hwio(std::uint64_t idx, const Shape& d) {
  const std::uint64_t O = d[0], I = d[1], H = d[2], W = d[3];
  (void)O;
  std::uint64_t w = idx % W;
  idx /= W;
  std::uint64_t h = idx % H;
  idx /= H;
  std::uint64_t i = idx % I;
  std::uint64_t o = idx / I;
  return ((h * W + w) * I + i) * O + o;
}
std::uint64_t hwio_to_oihw(std::uint64_t sidx, const Shape& d) {
  const std::uint64_t O = d[0], I = d[1], H = d[2], W = d[3];
  std::uint64_t o = sidx % O;
  sidx /= O;
  std::uint64_t i = sidx % I;
  sidx /= I;
  std::uint64_t w = sidx % W;
  std::uint64_t h = sidx / W;
  return ((o * I + i) * H + h) * W + w;
}

class ChainerAdapter : public FrameworkAdapter {
 public:
  std::string name() const override { return "chainer"; }

  std::string dataset_path(const std::string& canonical_name,
                           ParamKind kind) const override {
    const auto [layer, leaf] = split_canonical(canonical_name);
    (void)leaf;
    std::string l;
    switch (kind) {
      case ParamKind::ConvW:
      case ParamKind::DenseW:
        l = "W";
        break;
      case ParamKind::Bias:
        l = "b";
        break;
      case ParamKind::Gamma:
        l = "gamma";
        break;
      case ParamKind::Beta:
        l = "beta";
        break;
      case ParamKind::RunningMean:
        l = "avg_mean";
        break;
      case ParamKind::RunningVar:
        l = "avg_var";
        break;
    }
    return "predictor/" + layer + "/" + l;
  }

  Shape stored_dims(const Shape& d, ParamKind kind) const override {
    if (kind == ParamKind::DenseW) return {d[1], d[0]};  // [out,in]
    return d;
  }
  std::uint64_t stored_index(std::uint64_t idx, const Shape& d,
                             ParamKind kind) const override {
    if (kind == ParamKind::DenseW) return transpose_fwd(idx, d);
    return idx;
  }
  std::uint64_t canonical_index(std::uint64_t sidx, const Shape& d,
                                ParamKind kind) const override {
    if (kind == ParamKind::DenseW) return transpose_inv(sidx, d);
    return sidx;
  }
};

class PyTorchAdapter : public FrameworkAdapter {
 public:
  std::string name() const override { return "pytorch"; }

  std::string dataset_path(const std::string& canonical_name,
                           ParamKind kind) const override {
    const auto [layer, leaf] = split_canonical(canonical_name);
    (void)leaf;
    std::string l;
    switch (kind) {
      case ParamKind::ConvW:
      case ParamKind::DenseW:
      case ParamKind::Gamma:
        l = "weight";
        break;
      case ParamKind::Bias:
      case ParamKind::Beta:
        l = "bias";
        break;
      case ParamKind::RunningMean:
        l = "running_mean";
        break;
      case ParamKind::RunningVar:
        l = "running_var";
        break;
    }
    // PyTorch state_dict keys are dotted; each key is one flat dataset name
    // (the paper stores state_dict tensors via h5py the same way).
    return "state_dict/" + layer + "." + l;
  }

  Shape stored_dims(const Shape& d, ParamKind kind) const override {
    if (kind == ParamKind::DenseW) return {d[1], d[0]};
    return d;
  }
  std::uint64_t stored_index(std::uint64_t idx, const Shape& d,
                             ParamKind kind) const override {
    if (kind == ParamKind::DenseW) return transpose_fwd(idx, d);
    return idx;
  }
  std::uint64_t canonical_index(std::uint64_t sidx, const Shape& d,
                                ParamKind kind) const override {
    if (kind == ParamKind::DenseW) return transpose_inv(sidx, d);
    return sidx;
  }
};

class TensorFlowAdapter : public FrameworkAdapter {
 public:
  std::string name() const override { return "tensorflow"; }

  std::string dataset_path(const std::string& canonical_name,
                           ParamKind kind) const override {
    const auto [layer, leaf] = split_canonical(canonical_name);
    (void)leaf;
    std::string l;
    switch (kind) {
      case ParamKind::ConvW:
      case ParamKind::DenseW:
        l = "kernel";
        break;
      case ParamKind::Bias:
        l = "bias";
        break;
      case ParamKind::Gamma:
        l = "gamma";
        break;
      case ParamKind::Beta:
        l = "beta";
        break;
      case ParamKind::RunningMean:
        l = "moving_mean";
        break;
      case ParamKind::RunningVar:
        l = "moving_variance";
        break;
    }
    return "model_weights/" + layer + "/" + l;
  }

  Shape stored_dims(const Shape& d, ParamKind kind) const override {
    if (kind == ParamKind::ConvW) return {d[2], d[3], d[1], d[0]};  // HWIO
    return d;  // dense kernel is [in,out] = canonical
  }
  std::uint64_t stored_index(std::uint64_t idx, const Shape& d,
                             ParamKind kind) const override {
    if (kind == ParamKind::ConvW) return oihw_to_hwio(idx, d);
    return idx;
  }
  std::uint64_t canonical_index(std::uint64_t sidx, const Shape& d,
                                ParamKind kind) const override {
    if (kind == ParamKind::ConvW) return hwio_to_oihw(sidx, d);
    return sidx;
  }
};

}  // namespace

std::unique_ptr<FrameworkAdapter> make_adapter(const std::string& name) {
  if (name == "chainer") return std::make_unique<ChainerAdapter>();
  if (name == "pytorch") return std::make_unique<PyTorchAdapter>();
  if (name == "tensorflow") return std::make_unique<TensorFlowAdapter>();
  throw InvalidArgument("make_adapter: unknown framework '" + name + "'");
}

const std::vector<std::string>& framework_names() {
  static const std::vector<std::string> names = {"chainer", "pytorch",
                                                 "tensorflow"};
  return names;
}

}  // namespace ckptfi::fw
