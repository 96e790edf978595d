// FNV-1a digest over the raw bytes of result fields, for golden tests that
// pin a computation's full-width output to a recorded hex string.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "forecast/series.h"

namespace helios::golden {

class Fnv {
 public:
  template <typename T>
  Fnv& add(T v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Fnv& add(const forecast::TimeSeries& s) {
    add(s.begin).add(s.step).add(s.values.size());
    for (double v : s.values) add(v);
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace helios::golden
