// with_address_space_cap: runs a parser probe under a bounded address space,
// so an allocation the input cannot justify throws bad_alloc (and fails the
// probe's typed-error expectation) instead of quietly succeeding.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstddef>
#include <fstream>

namespace ckptfi::test {

/// Runs `fn` with the address space capped 512 MiB above what the process
/// maps now. ASan reserves terabytes of shadow memory up front, so its
/// builds run uncapped.
template <typename Fn>
void with_address_space_cap(Fn&& fn) {
#if defined(__SANITIZE_ADDRESS__)
  fn();
#else
  std::size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  rlimit old{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &old), 0);
  rlimit capped = old;
  capped.rlim_cur = pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) +
                    (std::size_t{512} << 20);
  if (old.rlim_cur != RLIM_INFINITY && old.rlim_cur < capped.rlim_cur)
    capped.rlim_cur = old.rlim_cur;
  ASSERT_EQ(setrlimit(RLIMIT_AS, &capped), 0);
  try {
    fn();
  } catch (...) {
    setrlimit(RLIMIT_AS, &old);
    throw;
  }
  setrlimit(RLIMIT_AS, &old);
#endif
}

}  // namespace ckptfi::test
