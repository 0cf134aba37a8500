#ifndef INSIGHT_GEO_LATLON_H_
#define INSIGHT_GEO_LATLON_H_

#include <cmath>

namespace insight {
namespace geo {

/// WGS84 coordinate in degrees. Dublin city spans roughly
/// lat [53.28, 53.42], lon [-6.45, -6.05].
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  bool operator==(const LatLon& o) const { return lat == o.lat && lon == o.lon; }
};

/// Mean Earth radius used by HaversineMeters.
constexpr double kEarthRadiusMeters = 6371000.0;

inline double DegToRad(double deg) { return deg * 3.14159265358979323846 / 180.0; }
inline double RadToDeg(double rad) { return rad * 180.0 / 3.14159265358979323846; }

/// Great-circle distance in meters (haversine, mean Earth radius).
double HaversineMeters(const LatLon& a, const LatLon& b);

/// Initial bearing from `a` to `b` in degrees, [0, 360).
double BearingDegrees(const LatLon& a, const LatLon& b);

/// Smallest absolute difference between two bearings in degrees, [0, 180].
double AngleDifference(double deg_a, double deg_b);

/// Local flat-earth projection around an origin; adequate at city scale
/// (errors < 0.1% over ~20 km). Used by the DENCLUE clustering, which works
/// in meters.
struct LocalProjection {
  explicit LocalProjection(const LatLon& origin);

  /// Meters east (x) / north (y) of the origin.
  void ToXY(const LatLon& p, double* x, double* y) const;
  LatLon FromXY(double x, double y) const;

  LatLon origin;
  double meters_per_deg_lat;
  double meters_per_deg_lon;
};

/// Axis-aligned geographic rectangle. Contains() uses the half-open
/// convention [min, max) so adjacent quadtree cells never both claim a point;
/// the quadtree root is expanded slightly so the true max edge stays inside.
struct BoundingBox {
  double min_lat = 0.0;
  double min_lon = 0.0;
  double max_lat = 0.0;
  double max_lon = 0.0;

  bool Contains(const LatLon& p) const {
    return p.lat >= min_lat && p.lat < max_lat && p.lon >= min_lon &&
           p.lon < max_lon;
  }

  bool Intersects(const BoundingBox& o) const {
    return min_lat < o.max_lat && o.min_lat < max_lat && min_lon < o.max_lon &&
           o.min_lon < max_lon;
  }

  LatLon Center() const {
    return {(min_lat + max_lat) / 2.0, (min_lon + max_lon) / 2.0};
  }
};

}  // namespace geo
}  // namespace insight

#endif  // INSIGHT_GEO_LATLON_H_
