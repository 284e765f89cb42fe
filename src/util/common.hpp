// Common error handling and small helpers shared by every ckptfi module.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ckptfi {

/// Base exception for all library errors. Every throwing API in ckptfi
/// throws this (or a subclass) so callers can catch one type.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown on malformed files / parse failures.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// Thrown when a caller violates an API precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Throw InvalidArgument unless `cond` holds.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}

/// The same for a literal message, which builds its std::string only when
/// it throws, so a passing check never allocates.
inline void require(bool cond, const char* msg) {
  if (!cond) throw InvalidArgument(msg);
}

}  // namespace ckptfi
