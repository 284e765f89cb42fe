#include "hdf5/file.hpp"

#include <algorithm>
#include <cstring>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"
#include "util/strings.hpp"

namespace ckptfi::mh5 {
namespace {

constexpr char kMagic[4] = {'M', 'H', '5', 'F'};

// --- byte stream reading over an in-memory buffer ---

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, 8);
    return v;
  }
  double f64() {
    double v;
    raw(&v, 8);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }
  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

  /// A u32 count of items at least `min_item_bytes` long each, checked
  /// against the bytes that remain before anything is sized by it.
  std::uint32_t count(std::size_t min_item_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_item_bytes)
      throw FormatError("mh5: count " + std::to_string(n) +
                        " exceeds the bytes that remain");
    return n;
  }

 private:
  void need(std::size_t n) {
    if (pos_ + n > size_) throw FormatError("mh5: truncated file");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_attrs(SinkWriter& w, const Node& node) {
  w.u32(static_cast<std::uint32_t>(node.attrs().size()));
  for (const auto& [name, value] : node.attrs()) {
    w.str(name);
    if (std::holds_alternative<std::int64_t>(value)) {
      w.u8(0);
      w.i64(std::get<std::int64_t>(value));
    } else if (std::holds_alternative<double>(value)) {
      w.u8(1);
      w.f64(std::get<double>(value));
    } else {
      w.u8(2);
      w.str(std::get<std::string>(value));
    }
  }
}

void read_attrs(Reader& r, Node& node) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::uint8_t type = r.u8();
    switch (type) {
      case 0:
        node.set_attr(name, r.i64());
        break;
      case 1:
        node.set_attr(name, r.f64());
        break;
      case 2:
        node.set_attr(name, r.str());
        break;
      default:
        throw FormatError("mh5: bad attribute type");
    }
  }
}

/// A dataset header's dtype and dims (the payload size is checked apart).
std::pair<DType, std::vector<std::uint64_t>> read_dataset_header(Reader& r) {
  const std::uint8_t code = r.u8();
  if (code > static_cast<std::uint8_t>(DType::U8))
    throw FormatError("mh5: bad dtype " + std::to_string(code));
  std::vector<std::uint64_t> dims(r.count(sizeof(std::uint64_t)));
  for (auto& d : dims) {
    d = r.u64();
    if (d == 0) throw FormatError("mh5: zero-sized dimension");
  }
  return {static_cast<DType>(code), std::move(dims)};
}

/// Trees may nest this many levels deep, the Json::parse limit: the readers
/// recurse once per level, so deeper input would overflow the stack.
constexpr int kMaxDepth = 256;

void check_depth(int depth) {
  if (depth > kMaxDepth)
    throw FormatError("mh5: tree nested deeper than " +
                      std::to_string(kMaxDepth) + " levels");
}

/// A group's next child name, held to Node::add_child's rules up front so a
/// bad file is a FormatError, not the API's InvalidArgument.
std::string read_child_name(Reader& r, const Node& group) {
  std::string name = r.str();
  if (name.empty() || name.find('/') != std::string::npos)
    throw FormatError("mh5: bad child name '" + name + "'");
  if (group.find(name) != nullptr)
    throw FormatError("mh5: duplicate child '" + name + "'");
  return name;
}

// --- the tree holds headers only; payloads + TOC follow ---

void write_tree_v2(SinkWriter& w, const Node& node) {
  if (node.is_group()) {
    w.u8(0);
    write_attrs(w, node);
    w.u32(static_cast<std::uint32_t>(node.children().size()));
    for (const auto& [name, child] : node.children()) {
      w.str(name);
      write_tree_v2(w, *child);
    }
  } else {
    w.u8(1);
    write_attrs(w, node);
    const Dataset& ds = node.dataset();
    w.u8(static_cast<std::uint8_t>(ds.dtype()));
    w.u32(static_cast<std::uint32_t>(ds.rank()));
    for (auto d : ds.dims()) w.u64(d);
  }
}

std::unique_ptr<Node> read_tree_node_v2(Reader& r, int depth) {
  check_depth(depth);
  const std::uint8_t kind = r.u8();
  if (kind == 0) {
    auto node = std::make_unique<Node>();
    read_attrs(r, *node);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = read_child_name(r, *node);
      node->add_child(name, read_tree_node_v2(r, depth + 1));
    }
    return node;
  }
  if (kind == 1) {
    Node attr_holder;
    read_attrs(r, attr_holder);
    auto [dtype, dims] = read_dataset_header(r);
    auto node = std::make_unique<Node>(
        Dataset(dtype, std::move(dims), Dataset::DeferPayload{}));
    for (const auto& [k, v] : attr_holder.attrs()) node->set_attr(k, v);
    return node;
  }
  throw FormatError("mh5: bad node kind");
}

/// Copy `nbytes` at `offset` from source to sink in bounded chunks, so
/// save never stages a clean multi-MB payload in memory.
void copy_range(const Source& src, std::uint64_t offset, std::uint64_t nbytes,
                SinkWriter& w) {
  constexpr std::size_t kChunk = 1u << 18;  // 256 KiB
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(std::min<std::uint64_t>(nbytes, kChunk)));
  while (nbytes > 0) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(nbytes, kChunk));
    src.read_at(offset, buf.data(), n);
    w.raw(buf.data(), n);
    offset += n;
    nbytes -= n;
  }
}

/// The 8-byte header: the magic, then the one version the readers accept.
void check_header(const Source& src) {
  if (src.size() < 8) throw FormatError("mh5: truncated file");
  std::uint8_t header[8];
  src.read_at(0, header, 8);
  if (std::memcmp(header, kMagic, 4) != 0)
    throw FormatError("mh5: bad magic (not an mh5 file)");
  std::uint32_t version;
  std::memcpy(&version, header + 4, 4);
  if (version != File::kVersionV2)
    throw FormatError("mh5: unsupported version " + std::to_string(version));
}

}  // namespace

void File::write_v2(Sink& sink) const {
  SinkWriter w(sink);
  const std::uint64_t base = w.tell();
  w.raw(kMagic, 4);
  w.u32(kVersionV2);
  write_tree_v2(w, *root_);

  // Payloads in tree order. Clean source-backed payloads stream through
  // verbatim (their CRC is already known); everything else serializes fresh.
  std::uint64_t verbatim = 0;
  std::vector<TocEntry> toc;
  visit([&](const std::string& path, const Node& node) {
    if (!node.is_dataset()) return;
    const Dataset& ds = node.dataset();
    TocEntry e;
    e.path = path;
    e.offset = w.tell() - base;
    if (ds.has_source() && !ds.is_dirty()) {
      e.nbytes = ds.source_nbytes();
      copy_range(*ds.source(), ds.source_offset(), e.nbytes, w);
      verbatim += e.nbytes;
    } else {
      e.nbytes = ds.raw().size();
      w.raw(ds.raw().data(), ds.raw().size());
    }
    e.crc = ds.checksum();
    toc.push_back(std::move(e));
  });

  const std::uint64_t toc_offset = w.tell() - base;
  w.u32(static_cast<std::uint32_t>(toc.size()));
  for (const auto& e : toc) {
    w.str(e.path);
    w.u64(e.offset);
    w.u64(e.nbytes);
    w.u32(e.crc);
  }
  w.u64(toc_offset);
  obs::counter_add("mh5.bytes_serialized", w.tell() - base - verbatim);
  obs::counter_add("mh5.bytes_copied_verbatim", verbatim);
}

void File::serialize_into(Sink& sink) const {
  obs::Span span("mh5.serialize", "io", "mh5.serialize_time");
  write_v2(sink);
}

std::vector<std::uint8_t> File::serialize() const {
  std::vector<std::uint8_t> out;
  BufferSink sink(out);
  serialize_into(sink);
  return out;
}

File File::parse_v2(std::shared_ptr<Source> src, bool lazy) {
  check_header(*src);
  const std::uint64_t size = src->size();
  if (size < 8 + 4 + 8)  // header + empty TOC + footer
    throw FormatError("mh5: truncated file");

  std::uint64_t toc_offset;
  src->read_at(size - 8, &toc_offset, 8);
  if (toc_offset < 8 || toc_offset > size - 8 - 4)
    throw FormatError("mh5: bad TOC offset");

  // TOC region: [toc_offset, size - 8).
  std::vector<std::uint8_t> toc_buf(
      static_cast<std::size_t>(size - 8 - toc_offset));
  src->read_at(toc_offset, toc_buf.data(), toc_buf.size());
  Reader tr(toc_buf.data(), toc_buf.size());
  // An entry is at least {u32 path length, u64 offset, u64 nbytes, u32 crc}.
  const std::uint32_t count = tr.count(4 + 8 + 8 + 4);
  std::vector<TocEntry> toc;
  toc.reserve(count);
  std::uint64_t tree_end = toc_offset;
  for (std::uint32_t i = 0; i < count; ++i) {
    TocEntry e;
    e.path = tr.str();
    e.offset = tr.u64();
    e.nbytes = tr.u64();
    e.crc = tr.u32();
    if (e.offset < 8 || e.offset > toc_offset ||
        e.nbytes > toc_offset - e.offset)
      throw FormatError("mh5: TOC payload range out of bounds for '" +
                        e.path + "'");
    tree_end = std::min(tree_end, e.offset);
    toc.push_back(std::move(e));
  }
  if (!tr.at_end()) throw FormatError("mh5: trailing bytes after TOC");

  // Tree region: [8, tree_end) — headers only, always read eagerly.
  std::vector<std::uint8_t> tree_buf(static_cast<std::size_t>(tree_end - 8));
  src->read_at(8, tree_buf.data(), tree_buf.size());
  Reader r(tree_buf.data(), tree_buf.size());
  auto root = read_tree_node_v2(r, 1);
  if (!r.at_end()) throw FormatError("mh5: trailing bytes after tree");

  File f;
  f.root() = std::move(*root);
  for (const auto& e : toc) {
    Node* n = f.find(e.path);
    if (n == nullptr || !n->is_dataset())
      throw FormatError("mh5: TOC references missing dataset '" + e.path +
                        "'");
    n->dataset().bind_source(src, e.offset, e.nbytes, e.crc);
  }
  // Every dataset must be payload-backed, or the container lied about it.
  f.visit([](const std::string& path, const Node& node) {
    if (node.is_dataset() && !node.dataset().has_source())
      throw FormatError("mh5: dataset missing from TOC: '" + path + "'");
  });
  f.toc_ = std::move(toc);

  if (!lazy) {
    // Materialize in payload order (sequential reads), then drop the source
    // handles so an eager load never pins the file open.
    std::vector<Dataset*> by_offset;
    f.visit([&](const std::string&, const Node& node) {
      if (node.is_dataset())
        by_offset.push_back(const_cast<Dataset*>(&node.dataset()));
    });
    std::sort(by_offset.begin(), by_offset.end(),
              [](const Dataset* a, const Dataset* b) {
                return a->source_offset() < b->source_offset();
              });
    for (Dataset* ds : by_offset) {
      ds->materialize();
      ds->detach_source();
    }
  }
  return f;
}

File File::deserialize(const std::vector<std::uint8_t>& bytes) {
  obs::Span span("mh5.deserialize", "io", "mh5.deserialize_time");
  obs::counter_add("mh5.bytes_deserialized", bytes.size());
  // Eager parse fully materializes before the non-owning source dies.
  return parse_v2(std::make_shared<MemorySource>(bytes.data(), bytes.size()),
                  /*lazy=*/false);
}

File File::deserialize_lazy(
    std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  require(bytes != nullptr, "mh5: deserialize_lazy: null buffer");
  obs::Span span("mh5.deserialize", "io", "mh5.deserialize_time");
  return parse_v2(std::make_shared<SharedBufferSource>(std::move(bytes)),
                  /*lazy=*/true);
}

File File::load(const std::string& path) {
  obs::Span span("mh5.load", "io", "mh5.read_time");
  auto src = std::make_shared<FileSource>(path);
  obs::counter_add("mh5.bytes_read", src->size());
  return parse_v2(std::move(src), /*lazy=*/false);
}

File File::load_lazy(const std::string& path) {
  obs::Span span("mh5.load_lazy", "io", "mh5.read_time");
  auto src = std::make_shared<FileSource>(path);
  obs::counter_add("mh5.lazy_opens");
  return parse_v2(std::move(src), /*lazy=*/true);
}

void File::save(const std::string& path) const {
  obs::Span span("mh5.save", "io", "mh5.write_time");
  FileSink sink(path);
  serialize_into(sink);
  obs::counter_add("mh5.bytes_written", sink.tell());
  sink.commit();
}

std::vector<std::string> File::verify(const std::string& path) {
  std::vector<std::string> errors;
  const File f = load_lazy(path);
  for (const auto& p : f.dataset_paths()) {
    try {
      f.dataset(p).materialize();
    } catch (const std::exception& e) {
      errors.push_back(p + ": " + e.what());
    }
  }
  return errors;
}

Node& File::create_group(const std::string& path) {
  Node* cur = root_.get();
  for (const auto& seg : split_path(path)) {
    Node* next = cur->find(seg);
    if (next == nullptr) {
      next = &cur->add_child(seg, std::make_unique<Node>());
    }
    require(next->is_group(),
            "mh5: '" + seg + "' in '" + path + "' is a dataset");
    cur = next;
  }
  return *cur;
}

Dataset& File::create_dataset(const std::string& path, DType dtype,
                              std::vector<std::uint64_t> dims) {
  auto parts = split_path(path);
  require(!parts.empty(), "mh5: empty dataset path");
  const std::string leaf = parts.back();
  parts.pop_back();
  Node& parent = create_group(join_path(parts));
  require(parent.find(leaf) == nullptr,
          "mh5: path already exists: '" + path + "'");
  Node& node =
      parent.add_child(leaf, std::make_unique<Node>(Dataset(dtype, dims)));
  toc_.clear();  // the loaded TOC no longer describes this tree
  return node.dataset();
}

Node* File::find(const std::string& path) {
  Node* cur = root_.get();
  for (const auto& seg : split_path(path)) {
    if (!cur->is_group()) return nullptr;
    cur = cur->find(seg);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

const Node* File::find(const std::string& path) const {
  return const_cast<File*>(this)->find(path);
}

Dataset& File::dataset(const std::string& path) {
  Node* n = find(path);
  require(n != nullptr, "mh5: no such path '" + path + "'");
  return n->dataset();
}

const Dataset& File::dataset(const std::string& path) const {
  const Node* n = find(path);
  require(n != nullptr, "mh5: no such path '" + path + "'");
  return n->dataset();
}

bool File::remove(const std::string& path) {
  auto parts = split_path(path);
  if (parts.empty()) return false;
  const std::string leaf = parts.back();
  parts.pop_back();
  Node* parent = find(join_path(parts));
  if (parent == nullptr || !parent->is_group()) return false;
  const bool removed = parent->remove_child(leaf);
  if (removed) toc_.clear();
  return removed;
}

void File::visit(
    const std::function<void(const std::string&, const Node&)>& fn) const {
  std::function<void(const std::string&, const Node&)> rec =
      [&](const std::string& path, const Node& node) {
        fn(path, node);
        if (node.is_group()) {
          for (const auto& [name, child] : node.children()) {
            rec(path.empty() ? name : path + "/" + name, *child);
          }
        }
      };
  rec("", *root_);
}

std::vector<std::string> File::dataset_paths() const {
  std::vector<std::string> out;
  visit([&](const std::string& path, const Node& node) {
    if (node.is_dataset()) out.push_back(path);
  });
  return out;
}

std::uint64_t File::total_entries() const {
  std::uint64_t total = 0;
  visit([&](const std::string&, const Node& node) {
    if (node.is_dataset()) total += node.dataset().num_elements();
  });
  return total;
}

}  // namespace ckptfi::mh5
