// ckpt_inspect: h5ls-style inspector for mh5 / npz checkpoint files.
//
//   $ ./ckpt_inspect <file.h5|file.npz> [--nev] [--check]
//
// Prints the container format, the tree (groups, datasets with dtype/shape,
// attributes) and — for mh5 containers — the dataset TOC with each
// payload's offset, byte count and CRC-32. With --nev it adds
// a NaN/Inf/extreme-value scan per dataset (the first thing one wants to
// know about a possibly-corrupted checkpoint); with --check it verifies
// every dataset payload against its stored CRC and exits non-zero on any
// mismatch.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/nev.hpp"
#include "hdf5/npz.hpp"
#include "util/bitops.hpp"

using namespace ckptfi;

namespace {

std::string attr_to_string(const mh5::AttrValue& v) {
  if (std::holds_alternative<std::int64_t>(v))
    return std::to_string(std::get<std::int64_t>(v));
  if (std::holds_alternative<double>(v))
    return std::to_string(std::get<double>(v));
  return "\"" + std::get<std::string>(v) + "\"";
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool scan_nev = false, check_crcs = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nev") == 0) {
      scan_nev = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check_crcs = true;
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      path.clear();
      break;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: %s <file.h5|file.npz> [--nev] [--check]\n",
                 argv[0]);
    return 2;
  }
  try {
    const bool is_npz = ends_with(path, ".npz");
    // Lazy open: tree/TOC printing works even when a payload is corrupt —
    // --check then names the bad dataset instead of dying at open.
    const mh5::File file =
        is_npz ? mh5::load_npz(path) : mh5::File::load_lazy(path);

    std::printf("%s  (%llu entries in %zu datasets)\n", path.c_str(),
                static_cast<unsigned long long>(file.total_entries()),
                file.dataset_paths().size());
    if (!is_npz) std::printf("format: mh5 v%u\n", mh5::File::kVersionV2);
    file.visit([&](const std::string& p, const mh5::Node& node) {
      const std::string display = p.empty() ? "/" : p;
      if (node.is_group()) {
        std::printf("%-52s group\n", display.c_str());
      } else {
        const mh5::Dataset& ds = node.dataset();
        std::string shape = "[";
        for (std::size_t i = 0; i < ds.dims().size(); ++i) {
          if (i) shape += ",";
          shape += std::to_string(ds.dims()[i]);
        }
        shape += "]";
        std::printf("%-52s %-4s %s", display.c_str(),
                    mh5::dtype_name(ds.dtype()).c_str(), shape.c_str());
        if (scan_nev && mh5::dtype_is_float(ds.dtype())) {
          std::uint64_t nan = 0, inf = 0, extreme = 0;
          double min_v = 0, max_v = 0;
          bool first = true;
          for (std::uint64_t i = 0; i < ds.num_elements(); ++i) {
            const double v = ds.get_double(i);
            if (std::isnan(v)) {
              ++nan;
            } else if (std::isinf(v)) {
              ++inf;
            } else {
              if (std::fabs(v) > kExtremeThreshold) ++extreme;
              if (first || v < min_v) min_v = v;
              if (first || v > max_v) max_v = v;
              first = false;
            }
          }
          std::printf("  range [%.4g, %.4g]", min_v, max_v);
          if (nan + inf + extreme > 0) {
            std::printf("  ** N-EV: %llu NaN, %llu Inf, %llu extreme",
                        static_cast<unsigned long long>(nan),
                        static_cast<unsigned long long>(inf),
                        static_cast<unsigned long long>(extreme));
          }
        }
        std::printf("\n");
      }
      for (const auto& [name, value] : node.attrs()) {
        std::printf("%-52s   @%s = %s\n", "", name.c_str(),
                    attr_to_string(value).c_str());
      }
    });
    if (!file.toc().empty()) {
      std::printf("\nTOC (%zu payloads):\n", file.toc().size());
      std::printf("%-52s %10s %10s %10s\n", "dataset", "offset", "nbytes",
                  "crc32");
      for (const auto& e : file.toc()) {
        std::printf("%-52s %10llu %10llu 0x%08x\n", e.path.c_str(),
                    static_cast<unsigned long long>(e.offset),
                    static_cast<unsigned long long>(e.nbytes), e.crc);
      }
    }
    if (scan_nev) {
      const core::NevScan scan = core::scan_checkpoint(file);
      std::printf("\ntotal: %llu/%llu float entries are N-EV\n",
                  static_cast<unsigned long long>(scan.nev()),
                  static_cast<unsigned long long>(scan.total));
    }
    if (check_crcs) {
      if (is_npz) {
        std::fprintf(stderr, "--check: not supported for npz archives\n");
        return 2;
      }
      const auto errors = mh5::File::verify(path);
      if (errors.empty()) {
        std::printf("\ncheck: all dataset CRCs verify\n");
      } else {
        std::printf("\ncheck: %zu dataset(s) FAILED verification\n",
                    errors.size());
        for (const auto& e : errors) std::printf("  %s\n", e.c_str());
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
