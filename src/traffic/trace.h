#ifndef INSIGHT_TRAFFIC_TRACE_H_
#define INSIGHT_TRAFFIC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "geo/latlon.h"

namespace insight {
namespace traffic {

/// One bus observation, matching Table 1 of the paper (timestamp, line,
/// direction, GPS position, delay, congestion, bus stop, vehicle id) plus
/// the enrichments computed by the pre-processing bolts: speed and "actual
/// delay" (the change in delay since the previous report, Section 3.1), the
/// hour / day-type used for threshold lookup, and the spatial annotations
/// added by the Area Tracker and BusStops Tracker bolts.
struct BusTrace {
  // ---- raw fields (Table 1) ----
  MicrosT timestamp = 0;          // microseconds since the day's 00:00
  int line_id = 0;
  bool direction = false;
  geo::LatLon position;
  double delay_seconds = 0.0;     // seconds behind (+) / ahead (-) of schedule
  bool congestion = false;
  int64_t reported_stop_id = -1;  // noisy id reported by the bus, -1 = moving
  int vehicle_id = 0;

  // ---- enrichments (PreProcess bolt) ----
  double speed_kmh = 0.0;
  double actual_delay = 0.0;      // delay delta vs previous report
  int hour = 0;                   // 0-23 local hour
  std::string date_type = "weekday";  // "weekday" | "weekend"

  // ---- spatial annotations (Area Tracker / BusStops Tracker bolts) ----
  int64_t area_leaf = -1;         // quadtree leaf region id
  int64_t bus_stop = -1;          // canonical bus stop id

  /// CSV round trip. Raw+enriched format, 15 columns; see column constants.
  std::vector<std::string> ToCsvRow() const;
  /// Appends the CsvWriter line of ToCsvRow() (newline included) to *out,
  /// formatting in place instead of building a string per column.
  void AppendCsvLine(std::string* out) const;
  static Result<BusTrace> FromCsvRow(const std::vector<std::string>& row);

  std::string ToString() const;
};

/// Column indexes of the enriched CSV format (the records the system stores
/// to the DFS for the statistics job).
struct TraceCsv {
  static constexpr int kTimestamp = 0;
  static constexpr int kLine = 1;
  static constexpr int kDirection = 2;
  static constexpr int kLon = 3;
  static constexpr int kLat = 4;
  static constexpr int kDelay = 5;
  static constexpr int kCongestion = 6;
  static constexpr int kReportedStop = 7;
  static constexpr int kVehicle = 8;
  static constexpr int kSpeed = 9;
  static constexpr int kActualDelay = 10;
  static constexpr int kHour = 11;
  static constexpr int kDateType = 12;
  static constexpr int kAreaLeaf = 13;
  static constexpr int kBusStop = 14;
  static constexpr int kNumColumns = 15;
};

/// The attribute names of Table 6 as used in rules and statistics tables.
inline constexpr const char* kAttrDelay = "delay";
inline constexpr const char* kAttrActualDelay = "actual_delay";
inline constexpr const char* kAttrSpeed = "speed";
inline constexpr const char* kAttrCongestion = "congestion";

}  // namespace traffic
}  // namespace insight

#endif  // INSIGHT_TRAFFIC_TRACE_H_
