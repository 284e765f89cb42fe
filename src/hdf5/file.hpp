// mh5 file: a rooted Node tree plus binary (de)serialization.
//
// One on-disk format, version 2 (byte-level spec in docs/MH5_FORMAT.md): the
// tree holds only headers; payloads follow sequentially and a trailing
// table-of-contents maps each dataset path to {offset, nbytes, crc32}, so
// datasets can be loaded lazily and rewritten by save() without touching
// clean payloads. Every reader refuses any other version with FormatError.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "hdf5/io.hpp"
#include "hdf5/node.hpp"

namespace ckptfi::mh5 {

/// One table-of-contents row: where a dataset's payload lives.
struct TocEntry {
  std::string path;           ///< full dataset path ("predictor/conv1_1/W")
  std::uint64_t offset = 0;   ///< absolute payload offset in the container
  std::uint64_t nbytes = 0;   ///< payload length
  std::uint32_t crc = 0;      ///< CRC-32 of the payload bytes
};

/// An open mh5 document. Unlike HDF5 the whole *tree* lives in memory;
/// dataset payloads live in memory too unless the file was opened with
/// load_lazy()/deserialize_lazy(), in which case they fault in from the
/// backing Source on first access. save() writes back atomically
/// (temp file + rename).
class File {
 public:
  static constexpr std::uint32_t kVersionV2 = 2;

  File() : root_(std::make_unique<Node>()) {}

  /// Load from disk, eagerly decoding every dataset; throws FormatError on
  /// corruption (CRC mismatch, bad magic or version, truncation).
  static File load(const std::string& path);

  /// Open a container without reading dataset payloads: the returned File's
  /// Datasets fault their bytes in from the file on first access
  /// (CRC-verified then; a mismatch throws FormatError at that point).
  static File load_lazy(const std::string& path);

  /// Serialize to disk (streamed through a FileSink; atomic temp + rename).
  /// Payloads of clean source-backed datasets (loaded via
  /// load_lazy()/deserialize_lazy() and never mutated) are block-copied
  /// verbatim from the backing source — never decoded, re-encoded or even
  /// faulted into memory. After a corruption run that touched one dataset,
  /// the rewrite cost is proportional to the bytes actually dirtied.
  void save(const std::string& path) const;

  /// Stream the container into an arbitrary Sink — the zero-copy writer
  /// underneath save()/serialize(). Callers that already hold a Sink
  /// (sockets, files, hashers) avoid materializing the intermediate byte
  /// vector entirely. Observes mh5.serialize_time and the
  /// mh5.bytes_serialized / mh5.bytes_copied_verbatim counters.
  void serialize_into(Sink& sink) const;

  // In-memory (de)serialization, used by save/load and by tests.
  std::vector<std::uint8_t> serialize() const;
  static File deserialize(const std::vector<std::uint8_t>& bytes);

  /// Lazy in-memory variant: shares ownership of `bytes` and faults
  /// datasets in on demand — cloning a cached checkpoint costs O(tree), not
  /// O(payload).
  static File deserialize_lazy(
      std::shared_ptr<const std::vector<std::uint8_t>> bytes);

  /// Integrity-check every dataset payload of a container against its
  /// stored CRC; returns one "path: reason" line per failure (empty = ok).
  /// Structural corruption (bad magic/TOC/truncation) still throws.
  static std::vector<std::string> verify(const std::string& path);

  /// The table of contents this File was loaded from. Empty for in-memory
  /// trees; cleared when the tree shape changes.
  const std::vector<TocEntry>& toc() const { return toc_; }

  Node& root() { return *root_; }
  const Node& root() const { return *root_; }

  // --- path API (h5py-flavoured) ---

  /// Create (or return existing) groups along "a/b/c".
  Node& create_group(const std::string& path);

  /// Create a dataset at `path` (parent groups are created as needed).
  /// Throws if the path already exists.
  Dataset& create_dataset(const std::string& path, DType dtype,
                          std::vector<std::uint64_t> dims);

  /// Node lookup; nullptr when absent.
  Node* find(const std::string& path);
  const Node* find(const std::string& path) const;

  bool exists(const std::string& path) const { return find(path) != nullptr; }

  /// Dataset at `path`; throws if absent or a group.
  Dataset& dataset(const std::string& path);
  const Dataset& dataset(const std::string& path) const;

  /// Remove the node at `path`; returns false if absent.
  bool remove(const std::string& path);

  /// Depth-first visit of every node; fn(path, node). Root is visited with
  /// the empty path.
  void visit(
      const std::function<void(const std::string&, const Node&)>& fn) const;

  /// Full paths of all datasets, in tree order (the corrupter's location
  /// universe when use_random_locations is set).
  std::vector<std::string> dataset_paths() const;

  /// Total number of corruptible entries (sum of num_elements over all
  /// datasets) — the denominator for percentage-type injection budgets.
  std::uint64_t total_entries() const;

 private:
  static File parse_v2(std::shared_ptr<Source> src, bool lazy);
  void write_v2(Sink& sink) const;

  std::unique_ptr<Node> root_;
  std::vector<TocEntry> toc_;  ///< as loaded; empty for in-memory trees
};

}  // namespace ckptfi::mh5
