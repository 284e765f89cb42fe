// Microbenchmarks of the mh5 container and float encode/decode paths.
//
// The save/load benchmarks come in pairs contrasting two ways through the
// container (see docs/MH5_FORMAT.md):
//   - a materialized byte vector written out vs a save() streamed through a
//     Sink,
//   - eager load (every payload decoded up front) vs lazy load (headers +
//     TOC only; payloads fault in on first access).
// Each mode also reports the mh5 obs counters it moved (mh5.bytes_serialized,
// mh5.serialize_time, mh5.bytes_faulted_in, ...) as benchmark counters, from
// one untimed probe run so the instrumentation never sits in the hot loop.
//
// Pass --json-out=PATH (stripped before Google Benchmark sees the args) to
// enable the metrics registry for the whole run and dump its snapshot as
// JSON at exit — the EXPERIMENTS.md before/after numbers come from that.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/micro_common.hpp"
#include "hdf5/file.hpp"
#include "obs/obs.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

using namespace ckptfi;

namespace {

mh5::File make_tree(std::size_t groups, std::size_t datasets_per_group,
                    std::uint64_t elems) {
  mh5::File f;
  Rng rng(3);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t d = 0; d < datasets_per_group; ++d) {
      auto& ds = f.create_dataset("g" + std::to_string(g) + "/layer" +
                                      std::to_string(d) + "/W",
                                  mh5::DType::F32, {elems});
      for (std::uint64_t i = 0; i < elems; ++i)
        ds.set_double(i, rng.normal());
    }
  }
  return f;
}

/// Run `fn` once with metrics forced on and publish the deltas of the named
/// mh5 counters (plus the mh5.serialize_time histogram, in seconds) on the
/// benchmark. Restores the previous metrics switch, so a --json-out run's
/// registry keeps accumulating and a plain run stays uninstrumented.
template <typename Fn>
void probe_obs_counters(benchmark::State& state,
                        const std::vector<std::string>& names, Fn&& fn) {
  auto& reg = obs::Registry::global();
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  std::vector<std::uint64_t> before;
  before.reserve(names.size());
  for (const auto& n : names) before.push_back(reg.counter(n).value());
  const double time_before = reg.histogram("mh5.serialize_time").sum();
  fn();
  for (std::size_t i = 0; i < names.size(); ++i) {
    state.counters[names[i]] = static_cast<double>(
        reg.counter(names[i]).value() - before[i]);
  }
  state.counters["mh5.serialize_time"] =
      reg.histogram("mh5.serialize_time").sum() - time_before;
  obs::set_metrics_enabled(was_enabled);
}

/// The streaming writer — tree section, sequential payloads, TOC — through a
/// BufferSink.
void BM_Serialize(benchmark::State& state) {
  const mh5::File f =
      make_tree(8, 4, static_cast<std::uint64_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto buf = f.serialize();
    bytes = buf.size();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  probe_obs_counters(state, {"mh5.bytes_serialized"},
                     [&] { benchmark::DoNotOptimize(f.serialize()); });
}
BENCHMARK(BM_Serialize)->Arg(256)->Arg(4096)->Arg(65536);

/// To-disk "before": materialize the full byte vector, then write it out.
/// This is the intermediate copy File::serialize_into() exists to remove.
void BM_SaveMaterialized(benchmark::State& state) {
  const mh5::File f =
      make_tree(8, 4, static_cast<std::uint64_t>(state.range(0)));
  const std::string path = "bench_micro_mh5_save.mh5";
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto buf = f.serialize();
    bytes = buf.size();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  probe_obs_counters(state, {"mh5.bytes_serialized"}, [&] {
    const auto buf = f.serialize();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  });
  std::remove(path.c_str());
}
BENCHMARK(BM_SaveMaterialized)->Arg(256)->Arg(4096)->Arg(65536);

/// To-disk "after": save() streams through serialize_into(FileSink) — no
/// intermediate vector, atomic temp + rename included.
void BM_SaveStreamed(benchmark::State& state) {
  const mh5::File f =
      make_tree(8, 4, static_cast<std::uint64_t>(state.range(0)));
  const std::string path = "bench_micro_mh5_save.mh5";
  for (auto _ : state) {
    f.save(path);
  }
  probe_obs_counters(state, {"mh5.bytes_serialized", "mh5.bytes_written"},
                     [&] { f.save(path); });
  std::remove(path.c_str());
}
BENCHMARK(BM_SaveStreamed)->Arg(256)->Arg(4096)->Arg(65536);

void BM_Deserialize(benchmark::State& state) {
  const auto bytes =
      make_tree(8, 4, static_cast<std::uint64_t>(state.range(0))).serialize();
  for (auto _ : state) {
    mh5::File f = mh5::File::deserialize(bytes);
    benchmark::DoNotOptimize(f.root().children().size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Deserialize)->Arg(256)->Arg(4096)->Arg(65536);

/// Eager load: every payload in the container is decoded and CRC-checked.
void BM_LoadEager(benchmark::State& state) {
  const auto bytes =
      make_tree(8, 4, static_cast<std::uint64_t>(state.range(0))).serialize();
  const auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(bytes);
  for (auto _ : state) {
    mh5::File f = mh5::File::deserialize(*shared);
    benchmark::DoNotOptimize(f.dataset("g0/layer0/W").get_double(0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shared->size()));
  probe_obs_counters(state, {"mh5.bytes_faulted_in", "mh5.lazy_faults"}, [&] {
    mh5::File f = mh5::File::deserialize(*shared);
    benchmark::DoNotOptimize(f.dataset("g0/layer0/W").get_double(0));
  });
}
BENCHMARK(BM_LoadEager)->Arg(256)->Arg(4096)->Arg(65536);

/// Lazy load touching ONE of the 32 datasets: the parse reads headers + TOC
/// only, and exactly one payload faults in. The gap to BM_LoadEager is the
/// cost the corrupter no longer pays per injection cycle.
void BM_LoadLazyTouchOne(benchmark::State& state) {
  const auto shared = std::make_shared<const std::vector<std::uint8_t>>(
      make_tree(8, 4, static_cast<std::uint64_t>(state.range(0))).serialize());
  for (auto _ : state) {
    mh5::File f = mh5::File::deserialize_lazy(shared);
    benchmark::DoNotOptimize(f.dataset("g0/layer0/W").get_double(0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shared->size()));
  probe_obs_counters(state, {"mh5.bytes_faulted_in", "mh5.lazy_faults"}, [&] {
    mh5::File f = mh5::File::deserialize_lazy(shared);
    benchmark::DoNotOptimize(f.dataset("g0/layer0/W").get_double(0));
  });
}
BENCHMARK(BM_LoadLazyTouchOne)->Arg(256)->Arg(4096)->Arg(65536);

/// save() after dirtying one dataset of a lazy open: 31 of 32 payloads
/// stream verbatim from the source file, only the dirty one re-encodes.
void BM_SavePatchedOneDirty(benchmark::State& state) {
  const std::string in_path = "bench_micro_mh5_in.mh5";
  const std::string out_path = "bench_micro_mh5_out.mh5";
  make_tree(8, 4, static_cast<std::uint64_t>(state.range(0))).save(in_path);
  for (auto _ : state) {
    mh5::File f = mh5::File::load_lazy(in_path);
    f.dataset("g0/layer0/W").set_element_bits(0, 0x3f800000u);
    f.save(out_path);
  }
  probe_obs_counters(
      state, {"mh5.bytes_serialized", "mh5.bytes_copied_verbatim"}, [&] {
        mh5::File f = mh5::File::load_lazy(in_path);
        f.dataset("g0/layer0/W").set_element_bits(0, 0x3f800000u);
        f.save(out_path);
      });
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}
BENCHMARK(BM_SavePatchedOneDirty)->Arg(256)->Arg(4096)->Arg(65536);

void BM_Visit(benchmark::State& state) {
  const mh5::File f = make_tree(32, 8, 16);
  for (auto _ : state) {
    std::size_t count = 0;
    f.visit([&](const std::string&, const mh5::Node&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_Visit);

void BM_DatasetPaths(benchmark::State& state) {
  const mh5::File f = make_tree(32, 8, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.dataset_paths().size());
  }
}
BENCHMARK(BM_DatasetPaths);

void BM_ElementBitsAccess(benchmark::State& state) {
  mh5::File f = make_tree(1, 1, 65536);
  auto& ds = f.dataset("g0/layer0/W");
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t repr = ds.element_bits(i % ds.num_elements());
    ds.set_element_bits(i % ds.num_elements(), repr ^ 1u);
    ++i;
  }
}
BENCHMARK(BM_ElementBitsAccess);

void BM_F16Conversion(benchmark::State& state) {
  Rng rng(5);
  std::vector<float> values(4096);
  for (auto& v : values) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    float sum = 0;
    for (float v : values) sum += f16::from_float(v).to_float();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_F16Conversion);

void BM_EncodeDecode(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<double> values(4096);
  for (auto& v : values) v = rng.normal();
  for (auto _ : state) {
    double sum = 0;
    for (double v : values) sum += decode_float(encode_float(v, bits), bits);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_EncodeDecode)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return ckptfi::bench_micro::run_main(argc, argv, "bench_micro_mh5");
}
