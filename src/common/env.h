// Environment-variable knobs shared by benches/examples (e.g. HELIOS_SCALE).
#pragma once

#include <cstdint>
#include <string>

namespace helios {

/// Value of an environment variable parsed as double, or `fallback` when the
/// variable is unset or empty. A value that is not one whole in-range number
/// ("0.1x", "1e999") throws std::invalid_argument naming the variable.
[[nodiscard]] double env_double(const char* name, double fallback);

/// Same for integers: "8x", "1.5" and out-of-range values throw.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// Same for strings (any non-empty value is accepted).
[[nodiscard]] std::string env_string(const char* name, const std::string& fallback);

}  // namespace helios
