// Per-thread bump-allocator arena for kernel scratch memory.
//
// The kernels (see ops.hpp) need transient buffers on every call:
// im2col/col2im matrices, fp16/fp32 GEMM panels, per-image gradient partials.
// Allocating those from the heap per batch is exactly the allocation spike
// behind the trainer.batch_time p99-vs-p50 spread, so they come from a
// thread-local arena instead:
//
//   - alloc() is a pointer bump; a Scope rewinds to its entry offset on
//     destruction, so nested kernel calls compose with strict LIFO
//     discipline and nothing is ever freed mid-batch;
//   - capacity grows to the high-water mark and then stays: an allocation
//     that does not fit the primary buffer is served from a one-off
//     overflow block, and the primary buffer is regrown to the high-water
//     mark the next time the arena is quiescent (empty) — after warm-up a
//     steady-state training loop performs zero heap allocations here
//     (asserted by tests/tensor/test_kernels.cpp);
//   - the arena is thread-local, so pool workers running per-image conv
//     chunks never contend — each worker's arena warms up once and is
//     reused for the lifetime of the worker.
//
// Observability: growth publishes the `arena.bytes_reserved` and
// `arena.high_water` gauges (calling thread's arena; last writer wins).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ckptfi {

class Workspace {
 public:
  /// The calling thread's arena.
  static Workspace& tls();

  /// `n` doubles of scratch, valid until the enclosing Scope (or reset()).
  /// Never returns nullptr; n == 0 yields a valid one-past pointer.
  double* alloc(std::size_t n);

  /// `n` floats of scratch carved from the same arena (two per double slot,
  /// 8-byte aligned). The mixed-precision GEMM path keeps its fp32
  /// accumulator panels here so the zero-steady-state-allocation contract
  /// extends to fp16 compute.
  float* alloc_f32(std::size_t n) {
    return reinterpret_cast<float*>(alloc((n + 1) / 2));
  }

  /// `n` uint16 slots (four per double slot) — fp16 storage panels packed
  /// via util/float16.
  std::uint16_t* alloc_u16(std::size_t n) {
    return reinterpret_cast<std::uint16_t*>(alloc((n + 3) / 4));
  }

  /// Rewind to empty and coalesce: the primary buffer is regrown to the
  /// high-water mark so the next cycle runs allocation-free. The trainer
  /// calls this at batch boundaries.
  void reset();

  /// Doubles currently handed out (primary + live overflow blocks).
  std::size_t used() const { return used_ + overflow_live_; }

  /// Bytes currently backed by heap memory.
  std::size_t bytes_reserved() const;

  /// Largest concurrent footprint ever observed, in bytes.
  std::size_t high_water() const { return high_water_ * sizeof(double); }

  /// Heap allocations performed so far (primary growth + overflow blocks).
  /// Flat across steady-state batches — the reuse contract tests pin.
  std::size_t allocations() const { return allocations_; }

  /// RAII rewind: restores the arena to its state at construction. Kernel
  /// entry points open one Scope per call, so scratch nests LIFO.
  class Scope {
   public:
    explicit Scope(Workspace& ws)
        : ws_(ws), used_(ws.used_), overflow_count_(ws.overflow_.size()) {}
    ~Scope() { ws_.rewind(used_, overflow_count_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t used_;
    std::size_t overflow_count_;
  };

 private:
  void rewind(std::size_t used, std::size_t overflow_count);
  void note_high_water();
  void publish_gauges() const;

  std::vector<double> buf_;                    ///< primary bump buffer
  std::size_t used_ = 0;                       ///< bump offset into buf_
  std::vector<std::vector<double>> overflow_;  ///< out-of-capacity blocks
  std::size_t overflow_live_ = 0;              ///< doubles in overflow_
  std::size_t high_water_ = 0;                 ///< max concurrent doubles
  std::size_t allocations_ = 0;
};

}  // namespace ckptfi
