#include "common/env.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace helios {

namespace {

/// After errno = 0 and strto*(v, &end): reject a value that has no digits,
/// a trailing suffix, or is out of range (ERANGE).
void require_whole_number(const char* name, const char* v, const char* end) {
  if (end == v || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(name) + "=\"" + v +
                                "\" is not a valid number");
  }
}

}  // namespace

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  require_whole_number(name, v, end);
  return parsed;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  require_whole_number(name, v, end);
  return static_cast<std::int64_t>(parsed);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

}  // namespace helios
