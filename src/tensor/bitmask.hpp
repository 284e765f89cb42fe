// BitMask: one bit per tensor element, the train-mode masks ReLU and the
// Residual join keep for backward. Bit i lives in word i / 64 at position
// i % 64, so a kernel fills a whole word from 64 compares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ckptfi {

class BitMask {
 public:
  static constexpr std::size_t kWordBits = 64;

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    return ((words_[i / kWordBits] >> (i % kWordBits)) & 1u) != 0;
  }

  /// Take n bits, all clear, keeping the heap block when capacity suffices.
  void reset(std::size_t n) {
    size_ = n;
    words_.assign((n + kWordBits - 1) / kWordBits, 0);
  }

  /// Drop every bit (size 0): the state after an eval forward.
  void clear() {
    size_ = 0;
    words_.clear();
  }

  /// (size() + 63) / 64 words; bits past size() are zero.
  std::uint64_t* words() { return words_.data(); }
  const std::uint64_t* words() const { return words_.data(); }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ckptfi
