#include "trace/job.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>

namespace helios::trace {

std::string_view to_string(JobState s) noexcept {
  switch (s) {
    case JobState::kCompleted:
      return "completed";
    case JobState::kCanceled:
      return "canceled";
    case JobState::kFailed:
      return "failed";
  }
  return "failed";
}

JobState job_state_from_string(std::string_view s) {
  const auto is = [s](std::string_view lower) {
    return std::equal(s.begin(), s.end(), lower.begin(), lower.end(),
                      [](char a, char b) {
                        return std::tolower(static_cast<unsigned char>(a)) == b;
                      });
  };
  if (is("completed")) return JobState::kCompleted;
  if (is("canceled") || is("cancelled")) return JobState::kCanceled;
  if (is("failed") || is("timeout") || is("node_fail") || is("out_of_memory")) {
    return JobState::kFailed;
  }
  throw std::runtime_error("trace CSV: state '" + std::string(s) +
                           "' is not a known job state");
}

}  // namespace helios::trace
