// Streaming I/O layer: Sink/Source units, lazy fault-in semantics, checksum
// caching, patched rewrites and malformed-v2 rejection (length fields are
// checked before anything is allocated).
#include "hdf5/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "hdf5/file.hpp"
#include "obs/registry.hpp"
#include "support/address_space_cap.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"

namespace ckptfi::mh5 {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

File make_sample() {
  File f;
  f.root().set_attr("epoch", std::int64_t{20});
  Dataset& w = f.create_dataset("predictor/conv1_1/W", DType::F64, {2, 3});
  w.write_doubles({1, 2, 3, 4, 5, 6});
  Dataset& b = f.create_dataset("predictor/conv1_1/b", DType::F32, {3});
  b.write_doubles({0.5, -0.5, 0.0});
  f.create_dataset("meta/steps", DType::I64, {1}).set_int(0, 1234);
  return f;
}

/// RAII metrics switch: tests that assert on obs counters flip the registry
/// on for their own scope only.
class ScopedMetrics {
 public:
  ScopedMetrics() : was_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
  }
  ~ScopedMetrics() { obs::set_metrics_enabled(was_); }
  std::uint64_t value(const char* name) const {
    return obs::Registry::global().counter(name).value();
  }

 private:
  bool was_;
};

// --- Sink units --------------------------------------------------------------

TEST(BufferSink, AppendsAndTells) {
  std::vector<std::uint8_t> out;
  BufferSink sink(out);
  sink.write("ab", 2);
  EXPECT_EQ(sink.tell(), 2u);
  sink.write("cde", 3);
  EXPECT_EQ(sink.tell(), 5u);
  EXPECT_EQ(std::string(out.begin(), out.end()), "abcde");
}

TEST(SinkWriter, LittleEndianEncoding) {
  std::vector<std::uint8_t> out;
  BufferSink sink(out);
  SinkWriter w(sink);
  w.u8(0xAB);
  w.u32(0x01020304u);
  w.str("hi");
  ASSERT_EQ(out.size(), 1u + 4u + 4u + 2u);
  EXPECT_EQ(out[0], 0xAB);
  EXPECT_EQ(out[1], 0x04);  // u32 low byte first
  EXPECT_EQ(out[4], 0x01);
  EXPECT_EQ(out[5], 0x02);  // str length prefix, LE
  EXPECT_EQ(out[9], 'h');
  EXPECT_EQ(w.tell(), out.size());
}

TEST(FileSink, CommitWritesAtomically) {
  const std::string path = temp_path("mh5_io_sink.bin");
  std::remove(path.c_str());
  {
    FileSink sink(path);
    sink.write("hello", 5);
    EXPECT_EQ(sink.tell(), 5u);
    // Nothing visible at the destination until commit.
    EXPECT_FALSE(std::filesystem::exists(path));
    sink.commit();
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(std::filesystem::file_size(path), 5u);
  std::remove(path.c_str());
}

TEST(FileSink, UncommittedSinkLeavesNothingBehind) {
  const std::string path = temp_path("mh5_io_sink_abandoned.bin");
  std::remove(path.c_str());
  {
    FileSink sink(path);
    sink.write("partial", 7);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FileSink, LargeWritesBypassTheBuffer) {
  const std::string path = temp_path("mh5_io_sink_large.bin");
  // A 3-byte buffer forces both the coalescing path and the bypass path.
  FileSink sink(path, /*buffer_cap=*/3);
  sink.write("ab", 2);
  const std::vector<std::uint8_t> big(1000, 0x5A);
  sink.write(big.data(), big.size());
  sink.write("z", 1);
  sink.commit();
  ASSERT_EQ(std::filesystem::file_size(path), 1003u);
  FileSource src(path);
  std::uint8_t probe[3];
  src.read_at(0, probe, 2);
  src.read_at(1002, probe + 2, 1);
  EXPECT_EQ(probe[0], 'a');
  EXPECT_EQ(probe[1], 'b');
  EXPECT_EQ(probe[2], 'z');
  std::remove(path.c_str());
}

TEST(FileSink, UnwritableDirectoryThrows) {
  EXPECT_THROW(FileSink("/nonexistent_dir_xyz/file.bin"), Error);
}

// --- Source units ------------------------------------------------------------

TEST(MemorySource, ReadAtAndBounds) {
  const std::uint8_t data[4] = {1, 2, 3, 4};
  MemorySource src(data, 4);
  EXPECT_EQ(src.size(), 4u);
  std::uint8_t out[2];
  src.read_at(2, out, 2);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 4);
  EXPECT_THROW(src.read_at(3, out, 2), FormatError);
  EXPECT_THROW(src.read_at(5, out, 1), FormatError);
}

TEST(SharedBufferSource, KeepsBufferAlive) {
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{9, 8, 7});
  SharedBufferSource src(bytes);
  bytes.reset();  // the source holds the only reference now
  std::uint8_t out;
  src.read_at(1, &out, 1);
  EXPECT_EQ(out, 8);
}

TEST(FileSource, ReadAtAndBounds) {
  const std::string path = temp_path("mh5_io_source.bin");
  {
    FileSink sink(path);
    sink.write("0123456789", 10);
    sink.commit();
  }
  FileSource src(path);
  EXPECT_EQ(src.size(), 10u);
  EXPECT_EQ(src.path(), path);
  char out[4] = {};
  src.read_at(6, out, 3);
  EXPECT_EQ(std::string(out), "678");
  EXPECT_THROW(src.read_at(8, out, 3), FormatError);
  std::remove(path.c_str());
}

TEST(FileSource, MissingFileThrows) {
  EXPECT_THROW(FileSource("/nonexistent/file.bin"), Error);
}

// --- lazy fault-in -----------------------------------------------------------

TEST(LazyLoad, PayloadsDeferUntilFirstAccess) {
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      make_sample().serialize());
  File f = File::deserialize_lazy(bytes);
  EXPECT_FALSE(f.dataset("predictor/conv1_1/W").is_materialized());
  EXPECT_FALSE(f.dataset("meta/steps").is_materialized());
  // Metadata never touches the payload.
  EXPECT_EQ(f.dataset("predictor/conv1_1/W").num_elements(), 6u);
  EXPECT_FALSE(f.dataset("predictor/conv1_1/W").is_materialized());
  // First element access faults in exactly this dataset.
  EXPECT_DOUBLE_EQ(f.dataset("predictor/conv1_1/W").get_double(2), 3.0);
  EXPECT_TRUE(f.dataset("predictor/conv1_1/W").is_materialized());
  EXPECT_FALSE(f.dataset("predictor/conv1_1/b").is_materialized());
}

TEST(LazyLoad, FaultInCountsBytesInObsCounters) {
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      make_sample().serialize());
  ScopedMetrics metrics;
  const auto faults0 = metrics.value("mh5.lazy_faults");
  const auto bytes0 = metrics.value("mh5.bytes_faulted_in");
  File f = File::deserialize_lazy(bytes);
  f.dataset("predictor/conv1_1/b").materialize();
  EXPECT_EQ(metrics.value("mh5.lazy_faults") - faults0, 1u);
  EXPECT_EQ(metrics.value("mh5.bytes_faulted_in") - bytes0, 3u * 4u);
}

TEST(LazyLoad, ChecksumAnswersFromTocWithoutFaultIn) {
  const File orig = make_sample();
  const std::uint32_t expected =
      orig.dataset("predictor/conv1_1/W").checksum();
  auto bytes =
      std::make_shared<const std::vector<std::uint8_t>>(orig.serialize());
  File f = File::deserialize_lazy(bytes);
  EXPECT_EQ(f.dataset("predictor/conv1_1/W").checksum(), expected);
  EXPECT_FALSE(f.dataset("predictor/conv1_1/W").is_materialized());
}

TEST(LazyLoad, FileBackedFaultInSurvivesFileHandleSharing) {
  const std::string path = temp_path("mh5_io_lazy.h5");
  make_sample().save(path);
  File f = File::load_lazy(path);
  // All datasets share one FileSource; fault them in out of order.
  EXPECT_EQ(f.dataset("meta/steps").get_int(0), 1234);
  EXPECT_DOUBLE_EQ(f.dataset("predictor/conv1_1/W").get_double(5), 6.0);
  EXPECT_DOUBLE_EQ(f.dataset("predictor/conv1_1/b").get_double(1), -0.5);
  std::remove(path.c_str());
}

TEST(LazyLoad, UnboundDeferredDatasetThrowsOnAccess) {
  Dataset ds(DType::F32, {4}, Dataset::DeferPayload{});
  EXPECT_FALSE(ds.is_materialized());
  EXPECT_THROW(ds.get_double(0), Error);
}

TEST(LazyLoad, BindSourceRejectsWrongByteCount) {
  Dataset ds(DType::F32, {4}, Dataset::DeferPayload{});
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>(64));
  auto src = std::make_shared<SharedBufferSource>(bytes);
  EXPECT_THROW(ds.bind_source(src, 0, 15, 0), FormatError);  // needs 16
}

// --- checksum caching --------------------------------------------------------

TEST(Checksum, CachedAndInvalidatedOnMutation) {
  File f = make_sample();
  Dataset& w = f.dataset("predictor/conv1_1/W");
  const std::uint32_t before = w.checksum();
  EXPECT_EQ(w.checksum(), before);  // cached path
  w.set_element_bits(0, w.element_bits(0) ^ 1u);
  const std::uint32_t after = w.checksum();
  EXPECT_NE(after, before);
  EXPECT_EQ(after, crc32(w.raw().data(), w.raw().size()));
}

TEST(Checksum, InvalidatedByWriteDoublesAndMutableRaw) {
  File f = make_sample();
  Dataset& b = f.dataset("predictor/conv1_1/b");
  const std::uint32_t before = b.checksum();
  b.write_doubles({7.0, 8.0, 9.0});
  EXPECT_NE(b.checksum(), before);
  const std::uint32_t mid = b.checksum();
  b.raw()[0] ^= 0xFF;  // non-const raw() must drop the cache too
  EXPECT_NE(b.checksum(), mid);
}

// --- save_patched ------------------------------------------------------------

TEST(SavePatched, RewritesOnlyDirtyPayloads) {
  const std::string in_path = temp_path("mh5_io_patch_in.h5");
  const std::string out_path = temp_path("mh5_io_patch_out.h5");
  make_sample().save(in_path);

  File f = File::load_lazy(in_path);
  f.dataset("predictor/conv1_1/b").set_double(0, 42.0);

  ScopedMetrics metrics;
  const auto verbatim0 = metrics.value("mh5.bytes_copied_verbatim");
  const auto faults0 = metrics.value("mh5.lazy_faults");
  f.save_patched(out_path);
  // W (48 bytes) and steps (8 bytes) stream verbatim; only b re-serializes,
  // and the clean payloads were never faulted into memory to do it.
  EXPECT_EQ(metrics.value("mh5.bytes_copied_verbatim") - verbatim0, 56u);
  EXPECT_EQ(metrics.value("mh5.lazy_faults") - faults0, 0u);
  EXPECT_FALSE(f.dataset("predictor/conv1_1/W").is_materialized());

  const File g = File::load(out_path);
  EXPECT_DOUBLE_EQ(g.dataset("predictor/conv1_1/b").get_double(0), 42.0);
  EXPECT_EQ(g.dataset("predictor/conv1_1/W").read_doubles(),
            (std::vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(g.dataset("meta/steps").get_int(0), 1234);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(SavePatched, UntouchedFileRoundTripsByteIdentically) {
  const std::string in_path = temp_path("mh5_io_patch_same_in.h5");
  const std::string out_path = temp_path("mh5_io_patch_same_out.h5");
  make_sample().save(in_path);
  File::load_lazy(in_path).save_patched(out_path);
  std::ifstream a(in_path, std::ios::binary), b(out_path, std::ios::binary);
  const std::vector<char> ba((std::istreambuf_iterator<char>(a)),
                             std::istreambuf_iterator<char>());
  const std::vector<char> bb((std::istreambuf_iterator<char>(b)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(ba, bb);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

// --- malformed v2 containers -------------------------------------------------

/// Offset of the first TOC entry's payload-offset field: the TOC starts with
/// u32 count, then per entry {u32 len | path | u64 offset | ...}.
std::size_t first_toc_entry_offset_pos(const std::vector<std::uint8_t>& bytes,
                                       std::uint64_t toc_offset) {
  std::uint32_t path_len;
  std::memcpy(&path_len, bytes.data() + toc_offset + 4, 4);
  return static_cast<std::size_t>(toc_offset) + 4 + 4 + path_len;
}

TEST(MalformedV2, TruncatedTocRejected) {
  auto bytes = make_sample().serialize();
  // Drop bytes out of the middle of the TOC region but keep the 8-byte
  // footer, whose toc_offset now points past what remains.
  std::uint64_t toc_offset;
  std::memcpy(&toc_offset, bytes.data() + bytes.size() - 8, 8);
  const auto footer(std::vector<std::uint8_t>(bytes.end() - 8, bytes.end()));
  bytes.resize(static_cast<std::size_t>(toc_offset) + 6);  // partial TOC
  bytes.insert(bytes.end(), footer.begin(), footer.end());
  EXPECT_THROW(File::deserialize(bytes), FormatError);
  auto shared = std::make_shared<const std::vector<std::uint8_t>>(bytes);
  EXPECT_THROW(File::deserialize_lazy(shared), FormatError);
}

TEST(MalformedV2, FooterOffsetPastEofRejected) {
  auto bytes = make_sample().serialize();
  const std::uint64_t bogus = bytes.size() + 1000;
  std::memcpy(bytes.data() + bytes.size() - 8, &bogus, 8);
  EXPECT_THROW(File::deserialize(bytes), FormatError);
}

TEST(MalformedV2, PayloadOffsetPastEofRejected) {
  auto bytes = make_sample().serialize();
  std::uint64_t toc_offset;
  std::memcpy(&toc_offset, bytes.data() + bytes.size() - 8, 8);
  const std::size_t pos = first_toc_entry_offset_pos(bytes, toc_offset);
  const std::uint64_t bogus = bytes.size() + (1ull << 30);
  std::memcpy(bytes.data() + pos, &bogus, 8);
  EXPECT_THROW(File::deserialize(bytes), FormatError);
  auto shared = std::make_shared<const std::vector<std::uint8_t>>(bytes);
  EXPECT_THROW(File::deserialize_lazy(shared), FormatError);
}

TEST(MalformedV2, CrcMismatchThrowsAtFaultInNotAtOpen) {
  auto raw = make_sample().serialize();
  // Flip one bit inside the F64 payload of W (the LE encoding of 3.0).
  const unsigned char three[8] = {0, 0, 0, 0, 0, 0, 8, 0x40};
  std::size_t pos = std::string::npos;
  for (std::size_t i = 0; i + 8 <= raw.size(); ++i) {
    if (std::equal(three, three + 8, raw.begin() + static_cast<long>(i))) {
      pos = i;
      break;
    }
  }
  ASSERT_NE(pos, std::string::npos);
  raw[pos] ^= 0x01;
  auto shared = std::make_shared<const std::vector<std::uint8_t>>(raw);

  // Lazy open parses headers + TOC without noticing the damage...
  File f = File::deserialize_lazy(shared);
  // ...the clean dataset still faults in fine...
  EXPECT_DOUBLE_EQ(f.dataset("predictor/conv1_1/b").get_double(0), 0.5);
  // ...and the damaged one throws FormatError at fault-in, not a crash.
  EXPECT_THROW(f.dataset("predictor/conv1_1/W").get_double(0), FormatError);
  // The eager paths reject the container outright.
  EXPECT_THROW(File::deserialize(raw), FormatError);
}

TEST(MalformedV2, VerifyReportsPerDatasetCrcFailures) {
  const std::string path = temp_path("mh5_io_verify.h5");
  make_sample().save(path);
  EXPECT_TRUE(File::verify(path).empty());

  // Corrupt the b payload on disk via its TOC entry.
  File probe = File::load_lazy(path);
  std::uint64_t off = 0;
  for (const auto& e : probe.toc()) {
    if (e.path == "predictor/conv1_1/b") off = e.offset;
  }
  ASSERT_NE(off, 0u);
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }();
  bytes[static_cast<std::size_t>(off)] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto errors = File::verify(path);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("predictor/conv1_1/b"), std::string::npos);
  std::remove(path.c_str());
}

/// Offset of the `{u32 ndim, u64 dims[ndim]}` header field that spells
/// `dims` in serialized `bytes`; the field must occur exactly once.
std::size_t dims_field_pos(const std::vector<std::uint8_t>& bytes,
                           const std::vector<std::uint64_t>& dims) {
  std::vector<std::uint8_t> field(4 + 8 * dims.size());
  const auto ndim = static_cast<std::uint32_t>(dims.size());
  std::memcpy(field.data(), &ndim, 4);
  std::memcpy(field.data() + 4, dims.data(), 8 * dims.size());
  const auto at = std::search(bytes.begin(), bytes.end(), field.begin(),
                              field.end());
  if (at == bytes.end()) {
    ADD_FAILURE() << "no dims field spells the given dims";
    return 0;
  }
  EXPECT_EQ(std::search(at + 1, bytes.end(), field.begin(), field.end()),
            bytes.end());
  return static_cast<std::size_t>(at - bytes.begin());
}

/// Both v2 readers must refuse `bytes` with a FormatError, allocating no
/// more than the input justifies.
void expect_v2_refused(const std::vector<std::uint8_t>& bytes) {
  const auto shared = std::make_shared<const std::vector<std::uint8_t>>(bytes);
  EXPECT_THROW(test::with_address_space_cap(
                   [&] { File::deserialize_lazy(shared); }),
               FormatError);
  EXPECT_THROW(
      test::with_address_space_cap([&] { File::deserialize(bytes); }),
      FormatError);
}

TEST(MalformedV2, GigabyteDimensionRejectedBeforeAllocating) {
  // W's {2, 3} f64 becomes {2^27, 3}: 3 GiB claimed by a 48-byte payload.
  const std::vector<std::uint64_t> dims = {2, 3};
  const std::uint64_t huge = 1ull << 27;
  auto v2 = make_sample().serialize();
  std::memcpy(v2.data() + dims_field_pos(v2, dims) + 4, &huge, 8);
  expect_v2_refused(v2);
  // v1 inlines the payload after the dims: the same claim, eagerly read.
  auto v1 = make_sample().serialize_v1();
  std::memcpy(v1.data() + dims_field_pos(v1, dims) + 4, &huge, 8);
  EXPECT_THROW(test::with_address_space_cap([&] { File::deserialize(v1); }),
               FormatError);
}

TEST(MalformedV2, WrappingDimensionProductRejected) {
  // {2^60 + 1, 16} multiplies to 2^64 + 16, which wraps to the 16 elements
  // the {4, 4} payload holds: only an overflow check tells them apart.
  File f;
  f.create_dataset("w", DType::F64, {4, 4});
  auto bytes = f.serialize();
  const std::uint64_t wrapped[2] = {(1ull << 60) + 1, 16};
  std::memcpy(bytes.data() + dims_field_pos(bytes, {4, 4}) + 4, wrapped, 16);
  expect_v2_refused(bytes);
}

TEST(MalformedV2, RankPastTheInputRejectedBeforeAllocating) {
  auto bytes = make_sample().serialize();
  const std::uint32_t ndim = 0xFFFFFFF0u;  // 32 GiB of dims
  std::memcpy(bytes.data() + dims_field_pos(bytes, {2, 3}), &ndim, 4);
  expect_v2_refused(bytes);
}

TEST(MalformedV2, TocCountPastTheInputRejectedBeforeAllocating) {
  auto bytes = make_sample().serialize();
  std::uint64_t toc_offset;
  std::memcpy(&toc_offset, bytes.data() + bytes.size() - 8, 8);
  const std::uint32_t count = 0xFFFFFFF0u;
  std::memcpy(bytes.data() + toc_offset, &count, 4);
  expect_v2_refused(bytes);
}

// --- malformed trees: typed errors where the in-memory API would throw
// InvalidArgument or the reader would recurse off the stack ----------------

/// Both readers, lazy and eager, must refuse `bytes` (mh5 v1 or v2) with a
/// FormatError.
void expect_format_error(const std::vector<std::uint8_t>& bytes) {
  const auto shared = std::make_shared<const std::vector<std::uint8_t>>(bytes);
  EXPECT_THROW(File::deserialize_lazy(shared), FormatError);
  EXPECT_THROW(File::deserialize(bytes), FormatError);
}

/// A group with no attributes and `children` children, which must follow
/// as (name, node) pairs.
void put_group(SinkWriter& w, std::uint32_t children) {
  w.u8(0);   // kind: group
  w.u32(0);  // attributes
  w.u32(children);
}

/// An mh5 file of `version` around the tree `put_tree` writes. The tree
/// holds no dataset, so v2 gets an empty TOC.
template <typename PutTree>
std::vector<std::uint8_t> groups_file(std::uint32_t version,
                                      PutTree put_tree) {
  std::vector<std::uint8_t> out;
  BufferSink sink(out);
  SinkWriter w(sink);
  w.raw("MH5F", 4);
  w.u32(version);
  put_tree(w);
  if (version == File::kVersionV2) {
    const std::uint64_t toc_offset = w.tell();
    w.u32(0);  // TOC entries
    w.u64(toc_offset);
  }
  return out;
}

/// `depth` groups, each the only child "g" of the one above.
std::vector<std::uint8_t> nested_groups(std::uint32_t version,
                                        std::size_t depth) {
  return groups_file(version, [&](SinkWriter& w) {
    for (std::size_t level = 1; level < depth; ++level) {
      put_group(w, 1);
      w.str("g");
    }
    put_group(w, 0);
  });
}

/// A root group whose children are empty groups named `names`.
std::vector<std::uint8_t> named_children(
    std::uint32_t version, const std::vector<std::string>& names) {
  return groups_file(version, [&](SinkWriter& w) {
    put_group(w, static_cast<std::uint32_t>(names.size()));
    for (const std::string& name : names) {
      w.str(name);
      put_group(w, 0);
    }
  });
}

TEST(MalformedV2, NestingPastTheDepthCapIsAFormatError) {
  for (const std::uint32_t version : {File::kVersionV1, File::kVersionV2}) {
    // 256 levels (the Json::parse limit) still load...
    EXPECT_NO_THROW(File::deserialize(nested_groups(version, 256)));
    // ...one more is refused, and so is a 420 KB tower that recursed the
    // readers off the stack.
    expect_format_error(nested_groups(version, 257));
    expect_format_error(nested_groups(version, 30000));
  }
}

TEST(MalformedV2, ChildNamesTheTreeCannotHoldAreFormatErrors) {
  for (const std::uint32_t version : {File::kVersionV1, File::kVersionV2}) {
    EXPECT_NO_THROW(File::deserialize(named_children(version, {"a", "b"})));
    expect_format_error(named_children(version, {"a", ""}));
    expect_format_error(named_children(version, {"a/b"}));
    expect_format_error(named_children(version, {"a", "a"}));
  }
}

TEST(MalformedV2, DtypeBytePastU8IsAFormatError) {
  for (auto bytes : {make_sample().serialize(), make_sample().serialize_v1()}) {
    const std::size_t dtype_pos = dims_field_pos(bytes, {2, 3}) - 1;
    ASSERT_EQ(bytes[dtype_pos], static_cast<std::uint8_t>(DType::F64));
    bytes[dtype_pos] = static_cast<std::uint8_t>(DType::U8) + 1;
    expect_format_error(bytes);
  }
}

TEST(MalformedV2, ZeroDimensionIsAFormatError) {
  for (auto bytes : {make_sample().serialize(), make_sample().serialize_v1()}) {
    const std::uint64_t zero = 0;
    std::memcpy(bytes.data() + dims_field_pos(bytes, {2, 3}) + 4, &zero, 8);
    expect_format_error(bytes);
  }
}

TEST(LazyLoad, DeferredDatasetAllocatesNoPayload) {
  // Every lazy open (and so every per-trial checkpoint clone) builds its
  // datasets header-only: a 1 TiB claim costs nothing until fault-in.
  test::with_address_space_cap([] {
    const Dataset ds(DType::F64, {1ull << 37}, Dataset::DeferPayload{});
    EXPECT_FALSE(ds.is_materialized());
    EXPECT_EQ(ds.num_elements(), 1ull << 37);
  });
}

// --- format probing ----------------------------------------------------------

TEST(ProbeVersion, DistinguishesV1AndV2) {
  const std::string p1 = temp_path("mh5_io_probe_v1.h5");
  const std::string p2 = temp_path("mh5_io_probe_v2.h5");
  const File f = make_sample();
  {
    const auto v1 = f.serialize_v1();
    std::ofstream out(p1, std::ios::binary);
    out.write(reinterpret_cast<const char*>(v1.data()),
              static_cast<std::streamsize>(v1.size()));
  }
  f.save(p2);
  EXPECT_EQ(File::probe_version(p1), File::kVersionV1);
  EXPECT_EQ(File::probe_version(p2), File::kVersionV2);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Toc, LoadedTocMatchesDatasetsAndClearsOnMutation) {
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      make_sample().serialize());
  File f = File::deserialize_lazy(bytes);
  ASSERT_EQ(f.toc().size(), 3u);
  EXPECT_EQ(f.toc()[0].path, "predictor/conv1_1/W");
  EXPECT_EQ(f.toc()[0].nbytes, 48u);
  EXPECT_EQ(f.toc()[0].crc, f.dataset("predictor/conv1_1/W").checksum());
  f.create_dataset("extra/x", DType::F32, {1});
  EXPECT_TRUE(f.toc().empty());  // tree changed; the TOC no longer describes it
}

}  // namespace
}  // namespace ckptfi::mh5
