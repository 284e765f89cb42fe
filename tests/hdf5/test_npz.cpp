#include "hdf5/npz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "support/address_space_cap.hpp"
#include "util/common.hpp"

namespace ckptfi::mh5 {
namespace {

using test::with_address_space_cap;

File sample() {
  File f;
  Dataset& w = f.create_dataset("predictor/conv1/W", DType::F32, {2, 3, 3, 3});
  for (std::uint64_t i = 0; i < w.num_elements(); ++i)
    w.set_double(i, 0.01 * static_cast<double>(i) - 0.25);
  f.create_dataset("predictor/conv1/b", DType::F64, {2})
      .write_doubles({0.5, -0.5});
  f.create_dataset("meta/iters", DType::I64, {1}).set_int(0, 777);
  f.create_dataset("meta/half", DType::F16, {4}).write_doubles({1, 2, 3, 4});
  return f;
}

/// A v1.0 NPY file holding `header` verbatim and no payload.
std::vector<std::uint8_t> npy_with_header(const std::string& header) {
  const std::string file = std::string("\x93NUMPY\x01\x00", 8) +
                           static_cast<char>(header.size() & 0xff) +
                           static_cast<char>(header.size() >> 8) + header;
  return std::vector<std::uint8_t>(file.begin(), file.end());
}

TEST(Npy, SingleArrayRoundTrip) {
  Dataset ds(DType::F64, {3, 4});
  for (std::uint64_t i = 0; i < 12; ++i)
    ds.set_double(i, static_cast<double>(i) * 1.5);
  const Dataset back = npy_deserialize(npy_serialize(ds));
  EXPECT_EQ(back.dtype(), DType::F64);
  EXPECT_EQ(back.dims(), ds.dims());
  EXPECT_EQ(back.raw(), ds.raw());
}

TEST(Npy, OneDimensionalShapeTupleHasTrailingComma) {
  // numpy writes "(5,)" for 1-d shapes; our writer must produce a header a
  // numpy-compatible parser (ours) reads back as rank 1.
  Dataset ds(DType::I32, {5});
  const Dataset back = npy_deserialize(npy_serialize(ds));
  EXPECT_EQ(back.dims(), (std::vector<std::uint64_t>{5}));
}

TEST(Npy, AllDtypesRoundTrip) {
  for (DType t : {DType::F16, DType::F32, DType::F64, DType::I32, DType::I64,
                  DType::U8}) {
    Dataset ds(t, {2, 2});
    ds.set_element_bits(0, 0x1au);
    ds.set_element_bits(3, 0x01u);
    const Dataset back = npy_deserialize(npy_serialize(ds));
    EXPECT_EQ(back.dtype(), t) << dtype_name(t);
    EXPECT_EQ(back.raw(), ds.raw());
  }
}

TEST(Npy, HeaderIs64ByteAligned) {
  const auto bytes = npy_serialize(Dataset(DType::F32, {7}));
  const std::uint16_t hlen =
      static_cast<std::uint16_t>(bytes[8] | (bytes[9] << 8));
  EXPECT_EQ((10 + hlen) % 64, 0u);
  EXPECT_EQ(bytes[10 + hlen - 1], '\n');
}

TEST(Npy, RejectsBadInput) {
  EXPECT_THROW(npy_deserialize({1, 2, 3}), FormatError);
  auto bytes = npy_serialize(Dataset(DType::F32, {2}));
  bytes[6] = 3;  // unsupported version
  EXPECT_THROW(npy_deserialize(bytes), FormatError);
  auto truncated = npy_serialize(Dataset(DType::F32, {2}));
  truncated.pop_back();
  EXPECT_THROW(npy_deserialize(truncated), FormatError);
  // Shapes no payload can back: 2^62 f8 elements wrap the byte count to 0,
  // a 21-digit dim does not fit 64 bits, and 2^27 elements (1 GiB) must be
  // refused before the dataset is allocated.
  for (const std::string shape :
       {"(4611686018427387904,)", "(123456789012345678901,)", "(134217728,)"}) {
    const std::vector<std::uint8_t> header_only = npy_with_header(
        "{'descr': '<f8', 'fortran_order': False, 'shape': " + shape + ", }");
    EXPECT_THROW(
        with_address_space_cap([&] { npy_deserialize(header_only); }),
        FormatError)
        << shape;
  }
}

TEST(Npz, RoundTripPreservesDatasets) {
  const File f = sample();
  const File back = npz_deserialize(npz_serialize(f));
  EXPECT_EQ(back.dataset_paths(), f.dataset_paths());
  for (const auto& path : f.dataset_paths()) {
    EXPECT_EQ(back.dataset(path).dtype(), f.dataset(path).dtype()) << path;
    EXPECT_EQ(back.dataset(path).raw(), f.dataset(path).raw()) << path;
  }
}

TEST(Npz, GroupsRebuiltFromEntryNames) {
  const File back = npz_deserialize(npz_serialize(sample()));
  EXPECT_TRUE(back.find("predictor")->is_group());
  EXPECT_TRUE(back.find("predictor/conv1")->is_group());
  EXPECT_TRUE(back.find("predictor/conv1/W")->is_dataset());
}

TEST(Npz, DiskRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ckpt.npz").string();
  save_npz(sample(), path);
  const File back = load_npz(path);
  EXPECT_EQ(back.dataset("meta/iters").get_int(0), 777);
  std::filesystem::remove(path);
}

TEST(Npz, CrcDetectsCorruptedEntry) {
  auto bytes = npz_serialize(sample());
  // Flip a byte inside the first entry's payload (after local header+name:
  // 30 + len("predictor/conv1/W.npy") + npy header 64/128...). Flip well
  // into the file but before the central directory.
  bytes[200] ^= 0x40;
  EXPECT_THROW(npz_deserialize(bytes), FormatError);
}

TEST(Npz, RejectsNonZipBytes) {
  EXPECT_THROW(npz_deserialize(std::vector<std::uint8_t>(100, 0)),
               FormatError);
}

TEST(Npz, EmptyFileRoundTrips) {
  const File back = npz_deserialize(npz_serialize(File{}));
  EXPECT_TRUE(back.dataset_paths().empty());
}

/// `bytes` with every occurrence of entry name `from` (the local header and
/// the central directory) respelled as `to`, which has the same length.
std::vector<std::uint8_t> rename_entry(std::vector<std::uint8_t> bytes,
                                       const std::string& from,
                                       const std::string& to) {
  EXPECT_EQ(from.size(), to.size());
  std::size_t hits = 0;
  for (auto at = bytes.begin();
       (at = std::search(at, bytes.end(), from.begin(), from.end())) !=
       bytes.end();
       ++hits) {
    at = std::copy(to.begin(), to.end(), at);
  }
  EXPECT_EQ(hits, 2u) << from;
  return bytes;
}

File two_datasets(const std::string& first, const std::string& second) {
  File f;
  f.create_dataset(first, DType::F64, {2});
  f.create_dataset(second, DType::F64, {2});
  return f;
}

TEST(Npz, EntryUnderADatasetIsAFormatError) {
  // a.npy, then a/b.npy: the second entry would need dataset `a` as a group.
  const auto bytes = rename_entry(npz_serialize(two_datasets("a", "x/b")),
                                  "x/b.npy", "a/b.npy");
  EXPECT_THROW(npz_deserialize(bytes), FormatError);
}

TEST(Npz, DuplicateEntryIsAFormatError) {
  const auto twice = rename_entry(npz_serialize(two_datasets("a", "b")),
                                  "b.npy", "a.npy");
  EXPECT_THROW(npz_deserialize(twice), FormatError);
  // a/b.npy, then a.npy: the path is taken, here by a group.
  const auto over_group = rename_entry(
      npz_serialize(two_datasets("x/b", "a")), "x/b.npy", "a/b.npy");
  EXPECT_THROW(npz_deserialize(over_group), FormatError);
}

TEST(Npz, LoadMissingFileThrows) {
  EXPECT_THROW(load_npz("/nonexistent/ckpt.npz"), Error);
}

}  // namespace
}  // namespace ckptfi::mh5
