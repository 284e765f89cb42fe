#include "hdf5/npz.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>

#include "util/common.hpp"
#include "util/crc32.hpp"
#include "util/strings.hpp"

namespace ckptfi::mh5 {
namespace {

// --- NPY v1.0 ---------------------------------------------------------------

const char kNpyMagic[6] = {'\x93', 'N', 'U', 'M', 'P', 'Y'};

std::string descr_for(DType t) {
  switch (t) {
    case DType::F16:
      return "<f2";
    case DType::F32:
      return "<f4";
    case DType::F64:
      return "<f8";
    case DType::I32:
      return "<i4";
    case DType::I64:
      return "<i8";
    case DType::U8:
      return "|u1";
  }
  throw InvalidArgument("npy: bad dtype");
}

DType dtype_for_descr(const std::string& d) {
  if (d == "<f2") return DType::F16;
  if (d == "<f4") return DType::F32;
  if (d == "<f8") return DType::F64;
  if (d == "<i4") return DType::I32;
  if (d == "<i8") return DType::I64;
  if (d == "|u1" || d == "<u1") return DType::U8;
  throw FormatError("npy: unsupported descr '" + d + "'");
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::vector<std::uint8_t> npy_serialize(const Dataset& ds) {
  std::string header = "{'descr': '" + descr_for(ds.dtype()) +
                       "', 'fortran_order': False, 'shape': (";
  for (std::size_t i = 0; i < ds.dims().size(); ++i) {
    header += std::to_string(ds.dims()[i]);
    if (ds.dims().size() == 1 || i + 1 < ds.dims().size()) header += ",";
    if (i + 1 < ds.dims().size()) header += " ";
  }
  header += "), }";
  // Pad with spaces so that magic(6)+version(2)+hlen(2)+header is a
  // multiple of 64, ending in '\n' (the NPY spec).
  const std::size_t base = 6 + 2 + 2;
  std::size_t total = base + header.size() + 1;
  const std::size_t pad = (64 - (total % 64)) % 64;
  header += std::string(pad, ' ');
  header += '\n';

  // Sized once, filled by offset: the incremental insert/push_back shape
  // trips GCC 12's -Wstringop-overflow on the reallocating growth path.
  const std::vector<std::uint8_t>& raw = ds.raw();
  std::vector<std::uint8_t> out(base + header.size() + raw.size());
  std::memcpy(out.data(), kNpyMagic, 6);
  out[6] = 1;  // major
  out[7] = 0;  // minor
  out[8] = static_cast<std::uint8_t>(header.size() & 0xff);
  out[9] = static_cast<std::uint8_t>(header.size() >> 8);
  std::memcpy(out.data() + base, header.data(), header.size());
  if (!raw.empty())
    std::memcpy(out.data() + base + header.size(), raw.data(), raw.size());
  return out;
}

Dataset npy_deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 10 || std::memcmp(bytes.data(), kNpyMagic, 6) != 0)
    throw FormatError("npy: bad magic");
  if (bytes[6] != 1)
    throw FormatError("npy: unsupported version " + std::to_string(bytes[6]));
  const std::uint16_t hlen = get_u16(bytes.data() + 8);
  if (bytes.size() < 10u + hlen) throw FormatError("npy: truncated header");
  const std::string header(reinterpret_cast<const char*>(bytes.data() + 10),
                           hlen);

  auto extract = [&](const std::string& key) -> std::string {
    const auto kpos = header.find("'" + key + "'");
    if (kpos == std::string::npos)
      throw FormatError("npy: header missing '" + key + "'");
    auto pos = header.find(':', kpos);
    if (pos == std::string::npos) throw FormatError("npy: bad header");
    ++pos;
    while (pos < header.size() && header[pos] == ' ') ++pos;
    return header.substr(pos);
  };

  // descr
  std::string descr_tail = extract("descr");
  if (descr_tail.empty() || descr_tail[0] != '\'')
    throw FormatError("npy: bad descr");
  const auto dq = descr_tail.find('\'', 1);
  const DType dtype = dtype_for_descr(descr_tail.substr(1, dq - 1));

  // fortran_order
  const std::string fo = extract("fortran_order");
  if (fo.rfind("False", 0) != 0)
    throw FormatError("npy: fortran_order arrays unsupported");

  // shape
  std::string shape_tail = extract("shape");
  if (shape_tail.empty() || shape_tail[0] != '(')
    throw FormatError("npy: bad shape");
  const auto close = shape_tail.find(')');
  if (close == std::string::npos) throw FormatError("npy: bad shape");
  // Every digit run inside the parentheses is one dimension. The element
  // count is checked against the payload bytes before anything is
  // allocated, so a header cannot claim more than the input holds.
  std::vector<std::uint64_t> dims;
  std::uint64_t nelem = 1;
  const char* p = shape_tail.data() + 1;
  const char* const end = shape_tail.data() + close;
  while (p < end) {
    if (*p < '0' || *p > '9') {
      ++p;
      continue;
    }
    std::uint64_t dim = 0;
    const auto [next, ec] = std::from_chars(p, end, dim);
    if (ec != std::errc()) throw FormatError("npy: shape dimension too large");
    if (dim == 0) throw FormatError("npy: zero-sized dimension");
    if (nelem > std::numeric_limits<std::uint64_t>::max() / dim)
      throw FormatError("npy: shape element count overflows");
    nelem *= dim;
    dims.push_back(dim);
    p = next;
  }

  const std::size_t data_off = 10 + hlen;
  const std::size_t payload = bytes.size() - data_off;
  const std::size_t esize = dtype_size(dtype);
  if (nelem > payload / esize || nelem * esize != payload)
    throw FormatError("npy: payload size mismatch");
  Dataset ds(dtype, std::move(dims));
  std::memcpy(ds.raw().data(), bytes.data() + data_off, payload);
  return ds;
}

// --- ZIP (stored entries only) ----------------------------------------------

namespace {

struct ZipEntry {
  std::string name;
  std::vector<std::uint8_t> data;
};

std::vector<std::uint8_t> zip_build(const std::vector<ZipEntry>& entries) {
  std::vector<std::uint8_t> out;
  struct CentralRecord {
    std::string name;
    std::uint32_t crc, size, offset;
  };
  std::vector<CentralRecord> central;

  for (const auto& e : entries) {
    const auto offset = static_cast<std::uint32_t>(out.size());
    const std::uint32_t crc = crc32(e.data.data(), e.data.size());
    const auto size = static_cast<std::uint32_t>(e.data.size());
    put_u32(out, 0x04034b50);           // local file header
    put_u16(out, 20);                   // version needed
    put_u16(out, 0);                    // flags
    put_u16(out, 0);                    // method: stored
    put_u16(out, 0);                    // mod time
    put_u16(out, 0);                    // mod date
    put_u32(out, crc);
    put_u32(out, size);                 // compressed
    put_u32(out, size);                 // uncompressed
    put_u16(out, static_cast<std::uint16_t>(e.name.size()));
    put_u16(out, 0);                    // extra len
    out.insert(out.end(), e.name.begin(), e.name.end());
    out.insert(out.end(), e.data.begin(), e.data.end());
    central.push_back({e.name, crc, size, offset});
  }

  const auto cd_start = static_cast<std::uint32_t>(out.size());
  for (const auto& c : central) {
    put_u32(out, 0x02014b50);           // central directory header
    put_u16(out, 20);                   // version made by
    put_u16(out, 20);                   // version needed
    put_u16(out, 0);
    put_u16(out, 0);                    // method
    put_u16(out, 0);
    put_u16(out, 0);
    put_u32(out, c.crc);
    put_u32(out, c.size);
    put_u32(out, c.size);
    put_u16(out, static_cast<std::uint16_t>(c.name.size()));
    put_u16(out, 0);                    // extra
    put_u16(out, 0);                    // comment
    put_u16(out, 0);                    // disk
    put_u16(out, 0);                    // internal attrs
    put_u32(out, 0);                    // external attrs
    put_u32(out, c.offset);
    out.insert(out.end(), c.name.begin(), c.name.end());
  }
  const auto cd_size = static_cast<std::uint32_t>(out.size()) - cd_start;

  put_u32(out, 0x06054b50);             // end of central directory
  put_u16(out, 0);
  put_u16(out, 0);
  put_u16(out, static_cast<std::uint16_t>(central.size()));
  put_u16(out, static_cast<std::uint16_t>(central.size()));
  put_u32(out, cd_size);
  put_u32(out, cd_start);
  put_u16(out, 0);                      // comment length
  return out;
}

std::vector<ZipEntry> zip_parse(const std::vector<std::uint8_t>& bytes) {
  // Find EOCD (no archive comment is written by us, but tolerate one).
  if (bytes.size() < 22) throw FormatError("npz: too small for a zip");
  std::size_t eocd = std::string::npos;
  const std::size_t scan_start =
      bytes.size() >= 22 + 65535 ? bytes.size() - 22 - 65535 : 0;
  for (std::size_t i = bytes.size() - 22 + 1; i-- > scan_start;) {
    if (get_u32(bytes.data() + i) == 0x06054b50) {
      eocd = i;
      break;
    }
  }
  if (eocd == std::string::npos)
    throw FormatError("npz: end-of-central-directory not found");
  const std::uint16_t count = get_u16(bytes.data() + eocd + 10);
  const std::uint32_t cd_start = get_u32(bytes.data() + eocd + 16);

  std::vector<ZipEntry> entries;
  std::size_t pos = cd_start;
  for (std::uint16_t n = 0; n < count; ++n) {
    if (pos + 46 > bytes.size()) throw FormatError("npz: truncated central dir");
    if (get_u32(bytes.data() + pos) != 0x02014b50)
      throw FormatError("npz: bad central directory signature");
    const std::uint16_t method = get_u16(bytes.data() + pos + 10);
    if (method != 0)
      throw FormatError("npz: compressed entries unsupported (stored only)");
    const std::uint32_t crc = get_u32(bytes.data() + pos + 16);
    const std::uint32_t size = get_u32(bytes.data() + pos + 24);
    const std::uint16_t name_len = get_u16(bytes.data() + pos + 28);
    const std::uint16_t extra_len = get_u16(bytes.data() + pos + 30);
    const std::uint16_t comment_len = get_u16(bytes.data() + pos + 32);
    const std::uint32_t offset = get_u32(bytes.data() + pos + 42);
    if (pos + 46 + name_len > bytes.size())
      throw FormatError("npz: truncated entry name");
    ZipEntry e;
    e.name.assign(reinterpret_cast<const char*>(bytes.data() + pos + 46),
                  name_len);
    // Local header: skip to payload.
    if (offset + 30 > bytes.size()) throw FormatError("npz: bad local offset");
    if (get_u32(bytes.data() + offset) != 0x04034b50)
      throw FormatError("npz: bad local header signature");
    const std::uint16_t lname = get_u16(bytes.data() + offset + 26);
    const std::uint16_t lextra = get_u16(bytes.data() + offset + 28);
    const std::size_t data_off = offset + 30 + lname + lextra;
    if (data_off + size > bytes.size())
      throw FormatError("npz: truncated entry data");
    e.data.assign(bytes.begin() + static_cast<long>(data_off),
                  bytes.begin() + static_cast<long>(data_off + size));
    if (crc32(e.data.data(), e.data.size()) != crc)
      throw FormatError("npz: CRC mismatch in entry '" + e.name + "'");
    entries.push_back(std::move(e));
    pos += 46u + name_len + extra_len + comment_len;
  }
  return entries;
}

}  // namespace

std::vector<std::uint8_t> npz_serialize(const File& file) {
  std::vector<ZipEntry> entries;
  for (const auto& path : file.dataset_paths()) {
    entries.push_back({path + ".npy", npy_serialize(file.dataset(path))});
  }
  return zip_build(entries);
}

namespace {

/// An entry's dataset path must name a new leaf below groups only, checked
/// up front so a bad archive is a FormatError, not create_dataset's
/// InvalidArgument.
void check_entry_path(const File& f, const std::string& path) {
  const std::vector<std::string> parts = split_path(path);
  if (parts.empty()) throw FormatError("npz: empty entry name");
  const Node* cur = &f.root();
  for (const std::string& seg : parts) {
    if (!cur->is_group())
      throw FormatError("npz: entry '" + path + "' lies under a dataset");
    cur = cur->find(seg);
    if (cur == nullptr) return;
  }
  throw FormatError("npz: duplicate entry '" + path + "'");
}

}  // namespace

File npz_deserialize(const std::vector<std::uint8_t>& bytes) {
  File f;
  for (const auto& e : zip_parse(bytes)) {
    std::string path = e.name;
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".npy") == 0) {
      path.resize(path.size() - 4);
    }
    check_entry_path(f, path);
    Dataset ds = npy_deserialize(e.data);
    Dataset& placed =
        f.create_dataset(path, ds.dtype(),
                         ds.dims().empty() ? std::vector<std::uint64_t>{1}
                                           : ds.dims());
    if (ds.dims().empty()) {
      placed.set_element_bits(0, ds.element_bits(0));
    } else {
      placed.raw() = ds.raw();
    }
  }
  return f;
}

void save_npz(const File& file, const std::string& path) {
  const auto bytes = npz_serialize(file);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("npz: cannot write '" + path + "'");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("npz: write failed for '" + path + "'");
}

File load_npz(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("npz: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return npz_deserialize(bytes);
}

}  // namespace ckptfi::mh5
