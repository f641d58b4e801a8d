#include "fadewich/rf/office_builder.hpp"

#include <cmath>
#include <string>

#include "fadewich/common/error.hpp"

namespace fadewich::rf {

namespace {

/// Point at arc length `s` along the room perimeter, measured
/// counter-clockwise from the bottom-left corner.
Point perimeter_point(double width, double height, double s) {
  const double perimeter = 2.0 * (width + height);
  s = std::fmod(s, perimeter);
  if (s < 0.0) s += perimeter;
  if (s < width) return {s, 0.0};
  s -= width;
  if (s < height) return {width, s};
  s -= height;
  if (s < width) return {width - s, height};
  s -= width;
  return {0.0, height - s};
}

}  // namespace

FloorPlan build_office(const OfficeSpec& spec) {
  FADEWICH_EXPECTS(spec.width >= 3.0);
  FADEWICH_EXPECTS(spec.height >= 2.5);
  FADEWICH_EXPECTS(spec.workstations >= 1);
  FADEWICH_EXPECTS(spec.sensors >= 2);

  FloorPlan plan;
  plan.width = spec.width;
  plan.height = spec.height;
  plan.door = {spec.width - 0.4, 0.0};
  plan.corridor = {spec.width / 2.0, spec.height / 2.0 - 0.1};

  // Sensors: equal arc spacing around the walls, phase-shifted so the
  // first sensor lands on the wall opposite the door.
  const double perimeter = 2.0 * (spec.width + spec.height);
  const double phase = spec.width + spec.height + spec.width / 2.0;
  for (std::size_t i = 0; i < spec.sensors; ++i) {
    const double s = phase + perimeter * static_cast<double>(i) /
                                 static_cast<double>(spec.sensors);
    plan.sensors.push_back(perimeter_point(spec.width, spec.height, s));
  }

  // Desks: top wall first (facing down), then the left wall.
  const double desk_pitch = 1.6;  // metres of wall per desk
  const auto top_capacity = static_cast<std::size_t>(
      std::floor((spec.width - 1.0) / desk_pitch));
  const auto left_capacity = static_cast<std::size_t>(
      std::floor((spec.height - 1.0) / desk_pitch));
  if (spec.workstations > top_capacity + left_capacity) {
    throw Error("office too small for " +
                std::to_string(spec.workstations) + " workstations");
  }
  for (std::size_t i = 0; i < spec.workstations; ++i) {
    Workstation ws;
    ws.name = "w";
    ws.name += std::to_string(i + 1);
    if (i < top_capacity) {
      const double x = 0.8 + desk_pitch * static_cast<double>(i);
      ws.seat = {x, spec.height - 0.5};
      ws.stand_point = {x, spec.height - 1.1};
    } else {
      const double y =
          0.8 + desk_pitch * static_cast<double>(i - top_capacity);
      ws.seat = {0.5, y};
      ws.stand_point = {1.1, y};
    }
    plan.workstations.push_back(ws);
  }
  return plan;
}

}  // namespace fadewich::rf
