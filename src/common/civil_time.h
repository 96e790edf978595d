// Civil (proleptic Gregorian) calendar arithmetic on Unix timestamps.
//
// The trace substrate timestamps jobs as seconds since the Unix epoch (UTC).
// The characterization and forecasting layers need calendar decomposition
// (month, day-of-week, hour, ...) and the reverse mapping. The conversions
// use Howard Hinnant's branchless civil-from-days / days-from-civil
// algorithms, valid over the full proleptic Gregorian calendar.
#pragma once

#include <cstdint>
#include <string>

namespace helios {

/// Seconds since the Unix epoch, UTC. Signed to allow pre-1970 math in tests.
using UnixTime = std::int64_t;

inline constexpr std::int64_t kSecondsPerMinute = 60;
inline constexpr std::int64_t kSecondsPerHour = 3600;
inline constexpr std::int64_t kSecondsPerDay = 86400;
inline constexpr std::int64_t kSecondsPerWeek = 7 * kSecondsPerDay;

/// Calendar decomposition of a UnixTime in UTC.
struct CivilTime {
  int year = 1970;
  int month = 1;    ///< 1..12
  int day = 1;      ///< 1..31
  int hour = 0;     ///< 0..23
  int minute = 0;   ///< 0..59
  int second = 0;   ///< 0..59
  int weekday = 4;  ///< 0 = Monday .. 6 = Sunday (1970-01-01 was a Thursday)
  int yday = 0;     ///< 0-based day of year

  [[nodiscard]] bool is_weekend() const noexcept { return weekday >= 5; }
};

/// Days since 1970-01-01 for a civil date (Hinnant's days_from_civil).
[[nodiscard]] std::int64_t days_from_civil(int year, int month, int day) noexcept;

/// Civil date for a count of days since 1970-01-01 (Hinnant's civil_from_days).
void civil_from_days(std::int64_t days, int& year, int& month, int& day) noexcept;

/// Full decomposition of a timestamp.
[[nodiscard]] CivilTime to_civil(UnixTime t) noexcept;

/// Timestamp of a civil date-time (UTC).
[[nodiscard]] UnixTime from_civil(int year, int month, int day, int hour = 0,
                                  int minute = 0, int second = 0) noexcept;

/// Hour of day 0..23.
[[nodiscard]] int hour_of(UnixTime t) noexcept;

/// Minute within day, 0..1439.
[[nodiscard]] int minute_of_day(UnixTime t) noexcept;

/// Truncate a timestamp to the start of its UTC day.
[[nodiscard]] UnixTime floor_day(UnixTime t) noexcept;

/// True for Saturdays, Sundays, and the 2020 mainland-China public holidays
/// that fall inside the Helios trace window (Labour Day May 1-5, Dragon Boat
/// June 25-27, Mid-Autumn/National Day Oct 1-8). Used as a forecast feature,
/// mirroring the paper's "binary holiday indicators".
[[nodiscard]] bool is_holiday(UnixTime t) noexcept;

/// "YYYY-MM-DD HH:MM:SS" (UTC).
[[nodiscard]] std::string format_time(UnixTime t);

}  // namespace helios
