// In-memory tree of an mh5 file: groups, datasets and attributes.
//
// This is the library's stand-in for HDF5 (see DESIGN.md): a hierarchical
// container of typed numeric arrays addressable by '/'-separated paths,
// with an h5py-flavoured API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "hdf5/dtype.hpp"
#include "hdf5/io.hpp"

namespace ckptfi::mh5 {

/// Attribute values: int, double or string (like HDF5 scalar attributes).
using AttrValue = std::variant<std::int64_t, double, std::string>;

/// A typed N-dimensional array. Elements are stored contiguously in row-major
/// order as raw little-endian bytes, so the fault injector can operate on the
/// exact on-disk bit representation.
///
/// A Dataset can be *lazy*: constructed from just its header (dtype/dims)
/// with the payload left in a Source (see bind_source). The bytes fault in
/// on first access, verifying the TOC CRC; metadata accessors (dtype, dims,
/// num_elements, checksum) never touch the payload. Fault-in mutates
/// `mutable` state from const accessors and is NOT thread-safe — share a
/// lazily loaded File across threads only after materializing it.
class Dataset {
 public:
  /// Tag for the header-only constructor used by the streaming reader.
  struct DeferPayload {};

  Dataset(DType dtype, std::vector<std::uint64_t> dims);

  /// Header-only: allocates no payload; the reader must bind_source()
  /// before the payload is accessed (access before binding throws).
  Dataset(DType dtype, std::vector<std::uint64_t> dims, DeferPayload);

  /// Payload size implied by `dtype` and `dims`. Throws FormatError when
  /// the element or byte count overflows 64 bits, so a reader can check a
  /// header's claim against the bytes it holds before allocating.
  static std::uint64_t payload_bytes(DType dtype,
                                     const std::vector<std::uint64_t>& dims);

  DType dtype() const { return dtype_; }
  const std::vector<std::uint64_t>& dims() const { return dims_; }
  std::size_t rank() const { return dims_.size(); }

  /// Product of dims (number of elements).
  std::uint64_t num_elements() const { return nelem_; }

  /// Raw storage (size = num_elements() * dtype_size(dtype)). The non-const
  /// overload assumes the caller mutates: it marks the dataset dirty and
  /// drops the cached checksum.
  std::vector<std::uint8_t>& raw() {
    ensure_materialized();
    touch();
    return raw_;
  }
  const std::vector<std::uint8_t>& raw() const {
    ensure_materialized();
    return raw_;
  }

  // --- lazy payload plumbing (used by the mh5 reader and writer) ---

  /// Back this dataset's payload by `nbytes` at `offset` inside `source`,
  /// releasing the in-memory bytes. `crc` is the stored CRC-32, verified at
  /// fault-in time. Throws FormatError when nbytes disagrees with the
  /// header-implied size.
  void bind_source(std::shared_ptr<Source> source, std::uint64_t offset,
                   std::uint64_t nbytes, std::uint32_t crc);

  /// Fault the payload in from the bound source (no-op when already in
  /// memory). Throws FormatError on CRC mismatch or short reads.
  void materialize() const { ensure_materialized(); }
  bool is_materialized() const { return materialized_; }

  /// True when the payload has (potentially) been mutated since it was
  /// bound to a source; save_patched() re-serializes only dirty datasets.
  bool is_dirty() const { return dirty_; }

  /// Source-range backing, if any: {offset, nbytes} inside source().
  bool has_source() const { return source_ != nullptr; }
  const std::shared_ptr<Source>& source() const { return source_; }
  std::uint64_t source_offset() const { return src_offset_; }
  std::uint64_t source_nbytes() const { return src_nbytes_; }

  /// Drop the source binding (payload must already be in memory).
  void detach_source();

  // --- bit-level element access (the injector's view) ---

  /// Bit representation of element i in the low dtype_bits() bits of a u64.
  std::uint64_t element_bits(std::uint64_t i) const;
  void set_element_bits(std::uint64_t i, std::uint64_t repr);

  // --- numeric element access ---

  /// Element i as double (floats decode; integers convert).
  double get_double(std::uint64_t i) const;
  /// Set element i from a double (floats encode with round-to-nearest;
  /// integers truncate).
  void set_double(std::uint64_t i, double v);

  std::int64_t get_int(std::uint64_t i) const;
  void set_int(std::uint64_t i, std::int64_t v);

  /// Bulk read into doubles.
  std::vector<double> read_doubles() const;
  /// Bulk write from doubles (size must equal num_elements()).
  void write_doubles(const std::vector<double>& v);

  /// CRC-32 of the raw bytes (used for file integrity, TOC emission and for
  /// skip-identical fast paths in core/diff). Cached: recomputed only after
  /// a mutation, and answered straight from the stored TOC CRC for lazy
  /// datasets that were never faulted in.
  std::uint32_t checksum() const;

 private:
  void check_index(std::uint64_t i) const;
  void ensure_materialized() const;
  /// Mark mutated: drop the cached checksum and set the dirty flag.
  void touch() {
    crc_cache_.reset();
    dirty_ = true;
  }

  DType dtype_;
  std::vector<std::uint64_t> dims_;
  std::uint64_t nelem_;
  mutable std::vector<std::uint8_t> raw_;
  // Source backing (lazy payloads + verbatim copy in save_patched).
  std::shared_ptr<Source> source_;
  std::uint64_t src_offset_ = 0;
  std::uint64_t src_nbytes_ = 0;
  std::uint32_t src_crc_ = 0;
  mutable bool materialized_ = true;
  bool dirty_ = false;
  mutable std::optional<std::uint32_t> crc_cache_;
};

/// A tree node: either a group (with ordered children) or a dataset. Both
/// kinds carry attributes.
class Node {
 public:
  /// Construct a group node.
  Node() = default;
  /// Construct a dataset node.
  explicit Node(Dataset ds) : dataset_(std::make_unique<Dataset>(std::move(ds))) {}

  bool is_group() const { return dataset_ == nullptr; }
  bool is_dataset() const { return dataset_ != nullptr; }

  Dataset& dataset();
  const Dataset& dataset() const;

  /// Ordered children (groups only). Keys are single path segments.
  const std::vector<std::pair<std::string, std::unique_ptr<Node>>>& children()
      const {
    return children_;
  }

  /// Child lookup; nullptr if absent (or if this is a dataset).
  Node* find(const std::string& name);
  const Node* find(const std::string& name) const;

  /// Add a child; throws on duplicates or if this is a dataset.
  Node& add_child(const std::string& name, std::unique_ptr<Node> child);

  /// Remove a child by name; returns false if absent.
  bool remove_child(const std::string& name);

  // Attributes.
  void set_attr(const std::string& name, AttrValue v);
  bool has_attr(const std::string& name) const;
  const AttrValue& attr(const std::string& name) const;
  const std::vector<std::pair<std::string, AttrValue>>& attrs() const {
    return attrs_;
  }

 private:
  std::unique_ptr<Dataset> dataset_;  // null => group
  std::vector<std::pair<std::string, std::unique_ptr<Node>>> children_;
  std::vector<std::pair<std::string, AttrValue>> attrs_;
};

}  // namespace ckptfi::mh5
