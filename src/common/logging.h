// Minimal leveled logging + CHECK macros for the simulator.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace strom {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarning, kError, kFatal };

// Messages below this level are discarded at compile time, so tests,
// benches and examples print only warnings and errors.
inline constexpr LogLevel kMinLogLevel = LogLevel::kWarning;

// Called once, right before abort(), when a kFatal message (STROM_CHECK
// failure, paranoid-mode divergence) is emitted. The flight recorder uses
// this to dump a post-mortem bundle of the crashing run. The hook runs at
// most once per process even if it fails fatally itself.
using FatalHook = void (*)();
void SetFatalHook(FatalHook hook);

namespace logging_internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Null sink used when the level is disabled.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace logging_internal

#define STROM_LOG_IS_ON(level) (::strom::LogLevel::level >= ::strom::kMinLogLevel)

#define STROM_LOG(level)                                                                \
  !STROM_LOG_IS_ON(level)                                                               \
      ? (void)0                                                                         \
      : ::strom::logging_internal::Voidify() &                                          \
            ::strom::logging_internal::LogMessage(::strom::LogLevel::level, __FILE__,   \
                                                  __LINE__)                             \
                .stream()

#define STROM_CHECK(cond)                                                                     \
  (cond) ? (void)0                                                                            \
         : ::strom::logging_internal::Voidify() &                                             \
               ::strom::logging_internal::LogMessage(::strom::LogLevel::kFatal, __FILE__,     \
                                                     __LINE__)                                \
                   .stream()                                                                  \
               << "Check failed: " #cond " "

#define STROM_CHECK_EQ(a, b) STROM_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define STROM_CHECK_NE(a, b) STROM_CHECK((a) != (b))
#define STROM_CHECK_LT(a, b) STROM_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define STROM_CHECK_LE(a, b) STROM_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define STROM_CHECK_GT(a, b) STROM_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define STROM_CHECK_GE(a, b) STROM_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

}  // namespace strom

#endif  // SRC_COMMON_LOGGING_H_
