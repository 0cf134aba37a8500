#include "geo/latlon.h"

namespace insight {
namespace geo {

double HaversineMeters(const LatLon& a, const LatLon& b) {
  double lat1 = DegToRad(a.lat);
  double lat2 = DegToRad(b.lat);
  double dlat = DegToRad(b.lat - a.lat);
  double dlon = DegToRad(b.lon - a.lon);
  double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
             std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                 std::sin(dlon / 2);
  return 2.0 * kEarthRadiusMeters * std::asin(std::sqrt(h));
}

double BearingDegrees(const LatLon& a, const LatLon& b) {
  double lat1 = DegToRad(a.lat);
  double lat2 = DegToRad(b.lat);
  double dlon = DegToRad(b.lon - a.lon);
  double y = std::sin(dlon) * std::cos(lat2);
  double x = std::cos(lat1) * std::sin(lat2) -
             std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  double deg = RadToDeg(std::atan2(y, x));
  if (deg < 0) deg += 360.0;
  return deg;
}

double AngleDifference(double deg_a, double deg_b) {
  double d = std::fabs(deg_a - deg_b);
  while (d >= 360.0) d -= 360.0;
  return d > 180.0 ? 360.0 - d : d;
}

LocalProjection::LocalProjection(const LatLon& o) : origin(o) {
  meters_per_deg_lat = 111132.954 - 559.822 * std::cos(2 * DegToRad(o.lat)) +
                       1.175 * std::cos(4 * DegToRad(o.lat));
  meters_per_deg_lon = 111132.954 * std::cos(DegToRad(o.lat));
}

void LocalProjection::ToXY(const LatLon& p, double* x, double* y) const {
  *x = (p.lon - origin.lon) * meters_per_deg_lon;
  *y = (p.lat - origin.lat) * meters_per_deg_lat;
}

LatLon LocalProjection::FromXY(double x, double y) const {
  return {origin.lat + y / meters_per_deg_lat, origin.lon + x / meters_per_deg_lon};
}

}  // namespace geo
}  // namespace insight
