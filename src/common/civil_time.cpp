#include "common/civil_time.h"

#include <array>
#include <cstdio>

namespace helios {

std::int64_t days_from_civil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& year, int& month, int& day) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);            // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);            // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                 // [0, 11]
  day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  year = static_cast<int>(y + (month <= 2));
}

CivilTime to_civil(UnixTime t) noexcept {
  CivilTime c;
  std::int64_t days = t / kSecondsPerDay;
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    --days;
  }
  civil_from_days(days, c.year, c.month, c.day);
  c.hour = static_cast<int>(rem / kSecondsPerHour);
  c.minute = static_cast<int>((rem % kSecondsPerHour) / kSecondsPerMinute);
  c.second = static_cast<int>(rem % kSecondsPerMinute);
  // 1970-01-01 (day 0) was a Thursday; Monday-based index of Thursday is 3.
  c.weekday = static_cast<int>(((days % 7) + 7 + 3) % 7);
  c.yday = static_cast<int>(days - days_from_civil(c.year, 1, 1));
  return c;
}

UnixTime from_civil(int year, int month, int day, int hour, int minute,
                    int second) noexcept {
  return days_from_civil(year, month, day) * kSecondsPerDay +
         hour * kSecondsPerHour + minute * kSecondsPerMinute + second;
}

int hour_of(UnixTime t) noexcept {
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) rem += kSecondsPerDay;
  return static_cast<int>(rem / kSecondsPerHour);
}

int minute_of_day(UnixTime t) noexcept {
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) rem += kSecondsPerDay;
  return static_cast<int>(rem / kSecondsPerMinute);
}

UnixTime floor_day(UnixTime t) noexcept {
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) rem += kSecondsPerDay;
  return t - rem;
}

bool is_holiday(UnixTime t) noexcept {
  const CivilTime c = to_civil(t);
  if (c.is_weekend()) return true;
  if (c.year != 2020) return false;
  const int md = c.month * 100 + c.day;
  // 2020 mainland-China public holidays overlapping Apr-Dec.
  return (md >= 501 && md <= 505) ||   // Labour Day
         (md >= 625 && md <= 627) ||   // Dragon Boat Festival
         (md >= 1001 && md <= 1008);   // National Day / Mid-Autumn
}

std::string format_time(UnixTime t) {
  const CivilTime c = to_civil(t);
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%04d-%02d-%02d %02d:%02d:%02d", c.year,
                c.month, c.day, c.hour, c.minute, c.second);
  return buf.data();
}

}  // namespace helios
