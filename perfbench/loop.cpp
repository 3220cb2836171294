// perfbench_loop — the benchmark's closed-loop request client.
//
//   perfbench_loop            serve requests read from stdin
//   perfbench_loop --fingerprint
//
// Each stdin line is one request, tab-separated:
//
//   <stdout_path> <stderr_path> <argv0> <argv1> ...
//
// The client spawns it through util::Subprocess, waits for it, and answers
// with one stdout line before reading the next request (one request at a
// time, so the caller is a closed loop):
//
//   <exit_code> <wall_ns> <cpu_us> <maxrss_kb>
//
// wall_ns spans spawn to reap. cpu_us is user+sys CPU of the request
// process and every descendant it reaped (worker processes included), taken
// as the RUSAGE_CHILDREN delta around the request. maxrss_kb is the peak RSS
// of the largest process reaped so far. The client is small, so forked
// children do not inherit a large high-water mark from it. A request killed
// by a signal reports exit code 128 + signal.
//
// --fingerprint prints the build fingerprint of this binary as one JSON
// object; it is compiled with the same flags as the tools it drives.
#include <sys/resource.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "util/simd.h"
#include "util/subprocess.h"

namespace {

using namespace tgi;

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

long long children_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<long long>(tv.tv_sec) * 1000000LL + tv.tv_usec;
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

long children_maxrss_kb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return usage.ru_maxrss;
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

void print_fingerprint() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::cout << "{\"compiler\": \"" << compiler
            << "\", \"optimized\": " << (optimized ? "true" : "false")
            << ", \"sanitized\": " << (sanitized() ? "true" : "false")
            << ", \"dtype\": \""
            << (sizeof(util::simd::Real) == sizeof(float) ? "float"
                                                          : "double")
            << "\"}\n";
}

int serve_requests() {
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::vector<std::string> fields = split_tabs(line);
    if (fields.size() < 3) {
      std::cerr << "perfbench_loop: malformed request line\n";
      return 2;
    }
    util::SubprocessOptions options;
    options.stdout_path = fields[0];
    options.stderr_path = fields[1];
    const std::vector<std::string> argv(fields.begin() + 2, fields.end());

    const long long cpu_before = children_cpu_us();
    const auto start = std::chrono::steady_clock::now();
    util::Subprocess child(argv, options);
    const util::ExitStatus status = child.wait();
    const auto wall = std::chrono::steady_clock::now() - start;
    const long long cpu_us = children_cpu_us() - cpu_before;

    const int code = status.exited ? status.code : 128 + status.signal;
    std::cout << code << ' '
              << std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                     .count()
              << ' ' << cpu_us << ' ' << children_maxrss_kb() << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--fingerprint") {
      print_fingerprint();
      return 0;
    }
    if (argc != 1) {
      std::cerr << "usage: perfbench_loop [--fingerprint]\n";
      return 2;
    }
    return serve_requests();
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_loop: error: " << ex.what() << "\n";
    return 1;
  }
}
