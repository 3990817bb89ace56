#include "src/common/logging.h"

#include <atomic>
#include <cstdio>

namespace strom {

namespace {
std::atomic<FatalHook> g_fatal_hook{nullptr};
std::atomic<bool> g_in_fatal{false};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}
}  // namespace

void SetFatalHook(FatalHook hook) { g_fatal_hook.store(hook, std::memory_order_relaxed); }

namespace logging_internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  if (level_ == LogLevel::kFatal) {
    std::fflush(stderr);
    // exchange() so a fatal error inside the hook cannot recurse into it.
    if (!g_in_fatal.exchange(true, std::memory_order_acq_rel)) {
      if (FatalHook hook = g_fatal_hook.load(std::memory_order_relaxed)) {
        hook();
      }
    }
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace logging_internal
}  // namespace strom
