#include <gtest/gtest.h>

#include "common/civil_time.h"

namespace helios {
namespace {

TEST(CivilTime, EpochDecomposition) {
  const CivilTime c = to_civil(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
  EXPECT_EQ(c.hour, 0);
  EXPECT_EQ(c.weekday, 3);  // Thursday, Monday-based
  EXPECT_EQ(c.yday, 0);
}

TEST(CivilTime, RoundTripKnownDates) {
  struct Case {
    int y, m, d, h, min, s;
  };
  const Case cases[] = {
      {2020, 4, 1, 0, 0, 0},   {2020, 9, 27, 23, 59, 59}, {2017, 10, 1, 12, 0, 0},
      {2000, 2, 29, 6, 30, 15}, {1999, 12, 31, 23, 59, 59}, {2038, 1, 19, 3, 14, 7},
  };
  for (const auto& c : cases) {
    const UnixTime t = from_civil(c.y, c.m, c.d, c.h, c.min, c.s);
    const CivilTime back = to_civil(t);
    EXPECT_EQ(back.year, c.y);
    EXPECT_EQ(back.month, c.m);
    EXPECT_EQ(back.day, c.d);
    EXPECT_EQ(back.hour, c.h);
    EXPECT_EQ(back.minute, c.min);
    EXPECT_EQ(back.second, c.s);
  }
}

TEST(CivilTime, RoundTripSweep) {
  // Every 7h13m over ~3 years crosses DST-irrelevant UTC boundaries,
  // month ends, and a leap day.
  for (UnixTime t = from_civil(2019, 12, 1); t < from_civil(2022, 3, 1);
       t += 7 * 3600 + 13 * 60) {
    const CivilTime c = to_civil(t);
    EXPECT_EQ(from_civil(c.year, c.month, c.day, c.hour, c.minute, c.second), t);
  }
}

TEST(CivilTime, WeekdayProgression) {
  // 2020-04-01 was a Wednesday (index 2).
  const UnixTime apr1 = from_civil(2020, 4, 1);
  EXPECT_EQ(to_civil(apr1).weekday, 2);
  EXPECT_EQ(to_civil(apr1 + 4 * kSecondsPerDay).weekday, 6);  // Sunday
  EXPECT_EQ(to_civil(apr1 + 5 * kSecondsPerDay).weekday, 0);  // Monday
}

TEST(CivilTime, FloorDayAndHour) {
  const UnixTime t = from_civil(2020, 6, 15, 13, 45, 30);
  EXPECT_EQ(floor_day(t), from_civil(2020, 6, 15));
  EXPECT_EQ(hour_of(t), 13);
  EXPECT_EQ(minute_of_day(t), 13 * 60 + 45);
}

TEST(CivilTime, NegativeTimesDecodeCorrectly) {
  const UnixTime t = from_civil(1969, 12, 31, 23, 0, 0);
  EXPECT_LT(t, 0);
  const CivilTime c = to_civil(t);
  EXPECT_EQ(c.year, 1969);
  EXPECT_EQ(c.month, 12);
  EXPECT_EQ(c.day, 31);
  EXPECT_EQ(c.hour, 23);
}

TEST(CivilTime, HolidaysIncludeWeekendsAndCnHolidays) {
  EXPECT_TRUE(is_holiday(from_civil(2020, 4, 4)));   // Saturday
  EXPECT_TRUE(is_holiday(from_civil(2020, 4, 5)));   // Sunday
  EXPECT_FALSE(is_holiday(from_civil(2020, 4, 6)));  // Monday
  EXPECT_TRUE(is_holiday(from_civil(2020, 5, 1)));   // Labour Day (Friday)
  EXPECT_TRUE(is_holiday(from_civil(2020, 5, 4)));   // Labour Day holiday Monday
  EXPECT_TRUE(is_holiday(from_civil(2020, 6, 25)));  // Dragon Boat (Thursday)
  EXPECT_FALSE(is_holiday(from_civil(2020, 6, 24)));
}

TEST(CivilTime, Format) {
  EXPECT_EQ(format_time(from_civil(2020, 4, 1, 9, 5, 3)), "2020-04-01 09:05:03");
}

TEST(CivilTime, LeapYearHandling) {
  EXPECT_EQ(days_from_civil(2020, 3, 1) - days_from_civil(2020, 2, 1), 29);
  EXPECT_EQ(days_from_civil(2021, 3, 1) - days_from_civil(2021, 2, 1), 28);
  EXPECT_EQ(days_from_civil(2000, 3, 1) - days_from_civil(2000, 2, 1), 29);
  EXPECT_EQ(days_from_civil(1900, 3, 1) - days_from_civil(1900, 2, 1), 28);
}

}  // namespace
}  // namespace helios
