// Lightweight logging and invariant-checking helpers.
//
// The simulator is deterministic; CHECK failures indicate a programming error
// (broken invariant), not a recoverable condition, so they abort. Run-level
// conditions of one job (verify miss, hang-guard overrun, bad user config,
// injected fault) are NOT checks — they throw the typed, catchable SimError
// (common/sim_error.hpp) instead. Both kinds of diagnostic, and every log
// line, are prefixed with the calling thread's run-context tag
// (common/run_context.hpp) so failures from sweep workers identify the job
// that died.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace saris {

namespace detail {
void warn(const std::string& msg);
[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& msg);
}  // namespace detail

}  // namespace saris

/// One `[saris:WARN]` line on stderr.
#define SARIS_WARN(...)                           \
  do {                                            \
    std::ostringstream saris_warn_oss_;           \
    saris_warn_oss_ << __VA_ARGS__;               \
    ::saris::detail::warn(saris_warn_oss_.str()); \
  } while (0)

/// Hard invariant check, enabled in all build types: the simulator's
/// correctness claims rest on these. The failure branch is a cold,
/// out-of-line lambda, so formatting the message adds no code to the cycle
/// loop's inline accessors that check on every call.
#define SARIS_CHECK(expr, ...)                                              \
  do {                                                                      \
    if (!(expr)) [[unlikely]] {                                             \
      [&]() __attribute__((cold, noinline, noreturn)) {                     \
        std::ostringstream saris_chk_oss_;                                  \
        saris_chk_oss_ << __VA_ARGS__;                                      \
        ::saris::detail::check_failed(__FILE__, __LINE__, #expr,            \
                                      saris_chk_oss_.str());                \
      }();                                                                  \
    }                                                                       \
  } while (0)
