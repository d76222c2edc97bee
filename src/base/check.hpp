// Lightweight precondition / invariant checking used across all sfsearch
// libraries.
//
// Policy: public API entry points validate their preconditions with
// SFS_REQUIRE, which throws std::invalid_argument so that misuse is
// diagnosable in release builds; internal invariants use SFS_CHECK, which
// throws std::logic_error. Neither is compiled out: the library is a
// research instrument and silent corruption of an experiment is worse than
// the (negligible) branch cost.
#pragma once

#include <cstddef>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sfs::detail {

[[noreturn]] inline void throw_require_failure(const char* expr,
                                               const char* file, int line,
                                               const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_check_failure(const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}

}  // namespace sfs::detail

// Validates a caller-facing precondition; throws std::invalid_argument.
#define SFS_REQUIRE(expr, msg)                                          \
  do {                                                                  \
    if (!(expr))                                                        \
      ::sfs::detail::throw_require_failure(#expr, __FILE__, __LINE__,   \
                                           std::string(msg));           \
  } while (false)

namespace sfs {

/// a * b with wrap-around detection; throws std::invalid_argument (tagged
/// with `context`) instead of silently wrapping. Used for size arithmetic
/// that feeds reserve()/resize() calls, where a wrapped product would
/// either under-reserve or pass a bogus "fits" check.
[[nodiscard]] inline std::size_t checked_mul(std::size_t a, std::size_t b,
                                             const char* context) {
  if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b) {
    detail::throw_require_failure("a * b does not overflow", __FILE__,
                                  __LINE__, std::string(context));
  }
  return a * b;
}

/// a + b with wrap-around detection; throws std::invalid_argument.
[[nodiscard]] inline std::size_t checked_add(std::size_t a, std::size_t b,
                                             const char* context) {
  if (a > std::numeric_limits<std::size_t>::max() - b) {
    detail::throw_require_failure("a + b does not overflow", __FILE__,
                                  __LINE__, std::string(context));
  }
  return a + b;
}

}  // namespace sfs

// Validates an internal invariant; throws std::logic_error.
#define SFS_CHECK(expr, msg)                                            \
  do {                                                                  \
    if (!(expr))                                                        \
      ::sfs::detail::throw_check_failure(#expr, __FILE__, __LINE__,     \
                                         std::string(msg));             \
  } while (false)
