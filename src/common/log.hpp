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

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global log threshold; messages below it are suppressed.
LogLevel log_threshold();
void set_log_threshold(LogLevel level);

namespace detail {
void log_message(LogLevel level, const std::string& msg);
[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& msg);
}  // namespace detail

}  // namespace saris

#define SARIS_LOG(level, ...)                                       \
  do {                                                              \
    if (static_cast<int>(level) >=                                  \
        static_cast<int>(::saris::log_threshold())) {               \
      std::ostringstream saris_log_oss_;                            \
      saris_log_oss_ << __VA_ARGS__;                                \
      ::saris::detail::log_message(level, saris_log_oss_.str());    \
    }                                                               \
  } while (0)

#define SARIS_DEBUG(...) SARIS_LOG(::saris::LogLevel::kDebug, __VA_ARGS__)
#define SARIS_INFO(...) SARIS_LOG(::saris::LogLevel::kInfo, __VA_ARGS__)
#define SARIS_WARN(...) SARIS_LOG(::saris::LogLevel::kWarn, __VA_ARGS__)

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
