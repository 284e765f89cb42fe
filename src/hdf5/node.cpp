#include "hdf5/node.hpp"

#include <cstring>
#include <limits>

#include "obs/registry.hpp"
#include "util/bitops.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"

namespace ckptfi::mh5 {

std::uint64_t Dataset::payload_bytes(DType dtype,
                                     const std::vector<std::uint64_t>& dims) {
  // Dims come from file headers: multiply with overflow checks, so a header
  // cannot wrap its element count to something small and plausible.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t nelem = 1;  // also the scalar's count
  for (const std::uint64_t d : dims) {
    require(d > 0, "Dataset: zero-sized dimension");
    if (nelem > kMax / d)
      throw FormatError("Dataset: element count overflows 64 bits");
    nelem *= d;
  }
  const std::uint64_t esize = dtype_size(dtype);
  if (nelem > kMax / esize)
    throw FormatError("Dataset: byte count overflows 64 bits");
  return nelem * esize;
}

Dataset::Dataset(DType dtype, std::vector<std::uint64_t> dims)
    : Dataset(dtype, std::move(dims), DeferPayload{}) {
  raw_.assign(nelem_ * dtype_size(dtype_), 0);
  materialized_ = true;
}

Dataset::Dataset(DType dtype, std::vector<std::uint64_t> dims, DeferPayload)
    : dtype_(dtype),
      dims_(std::move(dims)),
      nelem_(payload_bytes(dtype_, dims_) / dtype_size(dtype_)),
      materialized_(false) {}

void Dataset::check_index(std::uint64_t i) const {
  if (i >= nelem_)
    throw InvalidArgument("Dataset: index " + std::to_string(i) +
                          " out of range (n=" + std::to_string(nelem_) + ")");
}

void Dataset::bind_source(std::shared_ptr<Source> source, std::uint64_t offset,
                          std::uint64_t nbytes, std::uint32_t crc) {
  require(source != nullptr, "Dataset::bind_source: null source");
  if (nbytes != nelem_ * dtype_size(dtype_))
    throw FormatError("mh5: dataset byte count mismatch");
  source_ = std::move(source);
  src_offset_ = offset;
  src_nbytes_ = nbytes;
  src_crc_ = crc;
  materialized_ = false;
  dirty_ = false;
  crc_cache_.reset();
  raw_.clear();
  raw_.shrink_to_fit();
}

void Dataset::ensure_materialized() const {
  if (materialized_) return;
  if (source_ == nullptr)
    throw Error("mh5: dataset payload was never bound to a source");
  raw_.resize(src_nbytes_);
  source_->read_at(src_offset_, raw_.data(), raw_.size());
  if (crc32(raw_.data(), raw_.size()) != src_crc_)
    throw FormatError("mh5: dataset CRC mismatch");
  // The bytes just verified against the stored CRC, so cache it directly.
  crc_cache_ = src_crc_;
  materialized_ = true;
  obs::counter_add("mh5.lazy_faults");
  obs::counter_add("mh5.bytes_faulted_in", raw_.size());
}

void Dataset::detach_source() {
  ensure_materialized();
  source_.reset();
}

std::uint64_t Dataset::element_bits(std::uint64_t i) const {
  check_index(i);
  ensure_materialized();
  const std::size_t sz = dtype_size(dtype_);
  std::uint64_t repr = 0;
  std::memcpy(&repr, raw_.data() + i * sz, sz);
  return repr;
}

void Dataset::set_element_bits(std::uint64_t i, std::uint64_t repr) {
  check_index(i);
  ensure_materialized();
  touch();
  const std::size_t sz = dtype_size(dtype_);
  std::memcpy(raw_.data() + i * sz, &repr, sz);
}

double Dataset::get_double(std::uint64_t i) const {
  const std::uint64_t repr = element_bits(i);
  switch (dtype_) {
    case DType::F16:
    case DType::F32:
    case DType::F64:
      return decode_float(repr, dtype_bits(dtype_));
    case DType::I32:
      return static_cast<double>(static_cast<std::int32_t>(repr));
    case DType::I64:
      return static_cast<double>(static_cast<std::int64_t>(repr));
    case DType::U8:
      return static_cast<double>(repr & 0xffu);
  }
  throw InvalidArgument("Dataset::get_double: bad dtype");
}

void Dataset::set_double(std::uint64_t i, double v) {
  switch (dtype_) {
    case DType::F16:
    case DType::F32:
    case DType::F64:
      set_element_bits(i, encode_float(v, dtype_bits(dtype_)));
      return;
    case DType::I32:
      set_element_bits(i, static_cast<std::uint32_t>(
                              static_cast<std::int32_t>(v)));
      return;
    case DType::I64:
      set_element_bits(
          i, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
      return;
    case DType::U8:
      set_element_bits(i, static_cast<std::uint64_t>(
                              static_cast<std::uint8_t>(v)));
      return;
  }
  throw InvalidArgument("Dataset::set_double: bad dtype");
}

std::int64_t Dataset::get_int(std::uint64_t i) const {
  const std::uint64_t repr = element_bits(i);
  switch (dtype_) {
    case DType::I32:
      return static_cast<std::int32_t>(repr);
    case DType::I64:
      return static_cast<std::int64_t>(repr);
    case DType::U8:
      return static_cast<std::int64_t>(repr & 0xffu);
    default:
      return static_cast<std::int64_t>(get_double(i));
  }
}

void Dataset::set_int(std::uint64_t i, std::int64_t v) {
  switch (dtype_) {
    case DType::I32:
      set_element_bits(i, static_cast<std::uint32_t>(
                              static_cast<std::int32_t>(v)));
      return;
    case DType::I64:
      set_element_bits(i, static_cast<std::uint64_t>(v));
      return;
    case DType::U8:
      set_element_bits(i, static_cast<std::uint64_t>(v) & 0xffu);
      return;
    default:
      set_double(i, static_cast<double>(v));
  }
}

namespace {

// Decode every Word-sized element of `raw` with `convert`. Same little-endian
// load as element_bits(), hoisted out of the per-element index/fault checks.
template <typename Word, typename Convert>
void decode_words(const std::uint8_t* raw, std::vector<double>& out,
                  Convert convert) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    Word w;
    std::memcpy(&w, raw + i * sizeof w, sizeof w);
    out[i] = convert(w);
  }
}

}  // namespace

std::vector<double> Dataset::read_doubles() const {
  // One fault-in (and CRC check) and one dtype dispatch per dataset; the
  // float decodes are get_double()'s, bit for bit.
  ensure_materialized();
  std::vector<double> out(nelem_);
  switch (dtype_) {
    case DType::F16:
      decode_words<std::uint16_t>(raw_.data(), out, [](std::uint16_t w) {
        return static_cast<double>(f16::from_bits(w).to_float());
      });
      break;
    case DType::F32:
      decode_words<std::uint32_t>(raw_.data(), out, [](std::uint32_t w) {
        return static_cast<double>(bits_to_f32(w));
      });
      break;
    case DType::F64:
      decode_words<std::uint64_t>(raw_.data(), out, bits_to_f64);
      break;
    default:  // integer datasets are metadata, never weights
      for (std::uint64_t i = 0; i < nelem_; ++i) out[i] = get_double(i);
  }
  return out;
}

void Dataset::write_doubles(const std::vector<double>& v) {
  require(v.size() == nelem_, "Dataset::write_doubles: size mismatch");
  for (std::uint64_t i = 0; i < nelem_; ++i) set_double(i, v[i]);
}

std::uint32_t Dataset::checksum() const {
  // A never-faulted-in lazy dataset answers from its TOC entry — no payload
  // read just to learn a checksum the file already stores.
  if (!materialized_) return src_crc_;
  if (!crc_cache_) crc_cache_ = crc32(raw_.data(), raw_.size());
  return *crc_cache_;
}

Dataset& Node::dataset() {
  require(is_dataset(), "Node: not a dataset");
  return *dataset_;
}

const Dataset& Node::dataset() const {
  require(is_dataset(), "Node: not a dataset");
  return *dataset_;
}

Node* Node::find(const std::string& name) {
  for (auto& [k, v] : children_) {
    if (k == name) return v.get();
  }
  return nullptr;
}

const Node* Node::find(const std::string& name) const {
  for (const auto& [k, v] : children_) {
    if (k == name) return v.get();
  }
  return nullptr;
}

Node& Node::add_child(const std::string& name, std::unique_ptr<Node> child) {
  require(is_group(), "Node::add_child: cannot add children to a dataset");
  require(!name.empty() && name.find('/') == std::string::npos,
          "Node::add_child: bad child name '" + name + "'");
  require(find(name) == nullptr,
          "Node::add_child: duplicate child '" + name + "'");
  children_.emplace_back(name, std::move(child));
  return *children_.back().second;
}

bool Node::remove_child(const std::string& name) {
  for (auto it = children_.begin(); it != children_.end(); ++it) {
    if (it->first == name) {
      children_.erase(it);
      return true;
    }
  }
  return false;
}

void Node::set_attr(const std::string& name, AttrValue v) {
  for (auto& [k, val] : attrs_) {
    if (k == name) {
      val = std::move(v);
      return;
    }
  }
  attrs_.emplace_back(name, std::move(v));
}

bool Node::has_attr(const std::string& name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return true;
  }
  return false;
}

const AttrValue& Node::attr(const std::string& name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return v;
  }
  throw InvalidArgument("Node: missing attribute '" + name + "'");
}

}  // namespace ckptfi::mh5
