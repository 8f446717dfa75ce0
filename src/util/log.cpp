#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

namespace vlease {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_sinkMutex;
thread_local std::string t_context;
thread_local std::string* t_capture = nullptr;

const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void setLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel logLevel() { return g_level.load(std::memory_order_relaxed); }

LogContext::LogContext(std::string label, std::string* capture)
    : previous_(std::move(t_context)), previousCapture_(t_capture) {
  t_context = std::move(label);
  if (capture != nullptr) t_capture = capture;
}

LogContext::~LogContext() {
  t_context = std::move(previous_);
  t_capture = previousCapture_;
}

const std::string& LogContext::current() { return t_context; }

void emitCapturedLog(const std::string& lines) {
  if (lines.empty()) return;
  std::lock_guard<std::mutex> lock(g_sinkMutex);
  std::fputs(lines.c_str(), stderr);
}

namespace detail {
void logLine(LogLevel level, const std::string& msg) {
  std::string line = std::string("[") + levelName(level) + "] ";
  if (!t_context.empty()) line += "[" + t_context + "] ";
  line += msg;
  line += '\n';
  if (t_capture != nullptr) {
    *t_capture += line;
    return;
  }
  std::lock_guard<std::mutex> lock(g_sinkMutex);
  std::fputs(line.c_str(), stderr);
}
}  // namespace detail

}  // namespace vlease
