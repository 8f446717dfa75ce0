// Leveled logging. Off by default above kWarn so simulation hot paths
// stay quiet; examples turn on kInfo to narrate protocol activity.
//
// Thread safety: the level is atomic and each line is emitted under a
// mutex, so interleaved parallel sweep runs never tear lines. A worker
// running one sweep point installs a LogContext; every line it logs is
// then prefixed with the point's label so parallel output stays
// attributable. A parallel sweep also collects each point's lines in a
// buffer and writes them in spec order, whatever order the points
// finish in.
#pragma once

#include <sstream>
#include <string>

namespace vlease {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global threshold; messages below it are discarded.
void setLogLevel(LogLevel level);
LogLevel logLevel();

/// Scoped, thread-local log label. While alive, every log line emitted
/// from this thread carries "[label]" after the level and, when
/// `capture` is given, is appended to it instead of written to stderr.
/// Nested contexts restore the enclosing label and capture on
/// destruction.
class LogContext {
 public:
  explicit LogContext(std::string label, std::string* capture = nullptr);
  ~LogContext();

  LogContext(const LogContext&) = delete;
  LogContext& operator=(const LogContext&) = delete;

  /// The calling thread's current label ("" when none is installed).
  static const std::string& current();

 private:
  std::string previous_;
  std::string* previousCapture_;
};

/// Write lines a capturing LogContext collected to stderr, under the
/// same lock as live lines.
void emitCapturedLog(const std::string& lines);

namespace detail {
void logLine(LogLevel level, const std::string& msg);

class LogMessage {
 public:
  LogMessage(LogLevel level, bool enabled) : level_(level), enabled_(enabled) {}
  ~LogMessage() {
    if (enabled_) logLine(level_, stream_.str());
  }
  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogMessage logAt(LogLevel level) {
  return detail::LogMessage(level, level >= logLevel());
}

namespace detail {
/// Swallows a finished stream chain; operator& binds looser than <<.
struct LogVoidify {
  void operator&(const LogMessage&) {}
};
}  // namespace detail

// Disabled levels short-circuit before the LogMessage (and, crucially,
// before the streamed operands) are even constructed: hot paths can log
// formatted state without paying a string allocation when the level is
// off. The ternary keeps the macro a single expression, safe in
// unbraced if/else.
#define VL_LOG_AT(level)                     \
  ((level) < ::vlease::logLevel())           \
      ? (void)0                              \
      : ::vlease::detail::LogVoidify() &     \
            ::vlease::detail::LogMessage(level, true)

#define VL_LOG_DEBUG VL_LOG_AT(::vlease::LogLevel::kDebug)
#define VL_LOG_INFO VL_LOG_AT(::vlease::LogLevel::kInfo)
#define VL_LOG_WARN VL_LOG_AT(::vlease::LogLevel::kWarn)
#define VL_LOG_ERROR VL_LOG_AT(::vlease::LogLevel::kError)

}  // namespace vlease
