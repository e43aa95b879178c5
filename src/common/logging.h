// Minimal leveled logging to stderr.
//
// The engine code logs sparingly (scheduling decisions at kDebug, lifecycle
// at kInfo, recoverable failures at kWarning). Benchmarks and tests default
// to kWarning so their stdout stays machine-parseable.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace prefillonly {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Process-wide minimum level. Not synchronized: set it once at startup.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

// Each macro is the head of an if/else whose else arm is the log statement,
// so `if (x) PO_LOG_INFO << "..."; else ...` keeps its else bound to the
// caller's if (a bare `if` would capture it).
#define PO_LOG_DEBUG                                                        \
  if (static_cast<int>(::prefillonly::GetLogLevel()) >                      \
      static_cast<int>(::prefillonly::LogLevel::kDebug)) {                  \
  } else                                                                    \
    ::prefillonly::internal::LogMessage(::prefillonly::LogLevel::kDebug,    \
                                        __FILE__, __LINE__)                 \
        .stream()
#define PO_LOG_INFO                                                         \
  if (static_cast<int>(::prefillonly::GetLogLevel()) >                      \
      static_cast<int>(::prefillonly::LogLevel::kInfo)) {                   \
  } else                                                                    \
    ::prefillonly::internal::LogMessage(::prefillonly::LogLevel::kInfo,     \
                                        __FILE__, __LINE__)                 \
        .stream()
#define PO_LOG_WARNING                                                      \
  if (static_cast<int>(::prefillonly::GetLogLevel()) >                      \
      static_cast<int>(::prefillonly::LogLevel::kWarning)) {                \
  } else                                                                    \
    ::prefillonly::internal::LogMessage(::prefillonly::LogLevel::kWarning,  \
                                        __FILE__, __LINE__)                 \
        .stream()
#define PO_LOG_ERROR                                                        \
  if (static_cast<int>(::prefillonly::GetLogLevel()) >                      \
      static_cast<int>(::prefillonly::LogLevel::kError)) {                  \
  } else                                                                    \
    ::prefillonly::internal::LogMessage(::prefillonly::LogLevel::kError,    \
                                        __FILE__, __LINE__)                 \
        .stream()

}  // namespace prefillonly

#endif  // SRC_COMMON_LOGGING_H_
