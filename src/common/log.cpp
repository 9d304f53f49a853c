#include "common/log.hpp"

#include "common/run_context.hpp"

namespace saris {

namespace detail {

void warn(const std::string& msg) {
  // Prefix the thread's run-context tag (the job a sweep worker or System
  // cluster is simulating) so interleaved worker output is attributable.
  std::string job = run_context_tag();
  if (!job.empty()) job = "[" + job + "] ";
  std::fprintf(stderr, "[saris:WARN] %s%s\n", job.c_str(), msg.c_str());
}

void check_failed(const char* file, int line, const char* expr,
                  const std::string& msg) {
  // The job tag identifies which sweep job / cluster died when a worker
  // thread takes the whole process down.
  std::string job = run_context_tag();
  if (job.empty()) {
    std::fprintf(stderr, "[saris:CHECK] %s:%d: check `%s` failed: %s\n",
                 file, line, expr, msg.c_str());
  } else {
    std::fprintf(stderr, "[saris:CHECK] [%s] %s:%d: check `%s` failed: %s\n",
                 job.c_str(), file, line, expr, msg.c_str());
  }
  std::abort();
}

}  // namespace detail
}  // namespace saris
