#include "traffic/trace.h"

#include <charconv>

#include "common/csv.h"
#include "common/strings.h"

namespace insight {
namespace traffic {

namespace {

template <typename Int>
void AppendInt(Int value, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// printf's "%.<precision>f": both round the exact binary value half to even.
void AppendFixed(double value, int precision, std::string* out) {
  char buf[400];  // DBL_MAX has 309 integer digits
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, precision)
                       .ptr);
}

}  // namespace

std::vector<std::string> BusTrace::ToCsvRow() const {
  std::vector<std::string> row(TraceCsv::kNumColumns);
  row[TraceCsv::kTimestamp] = std::to_string(timestamp);
  row[TraceCsv::kLine] = std::to_string(line_id);
  row[TraceCsv::kDirection] = direction ? "1" : "0";
  row[TraceCsv::kLon] = StrFormat("%.6f", position.lon);
  row[TraceCsv::kLat] = StrFormat("%.6f", position.lat);
  row[TraceCsv::kDelay] = StrFormat("%.2f", delay_seconds);
  row[TraceCsv::kCongestion] = congestion ? "1" : "0";
  row[TraceCsv::kReportedStop] = std::to_string(reported_stop_id);
  row[TraceCsv::kVehicle] = std::to_string(vehicle_id);
  row[TraceCsv::kSpeed] = StrFormat("%.2f", speed_kmh);
  row[TraceCsv::kActualDelay] = StrFormat("%.2f", actual_delay);
  row[TraceCsv::kHour] = std::to_string(hour);
  row[TraceCsv::kDateType] = date_type;
  row[TraceCsv::kAreaLeaf] = std::to_string(area_leaf);
  row[TraceCsv::kBusStop] = std::to_string(bus_stop);
  return row;
}

void BusTrace::AppendCsvLine(std::string* out) const {
  // Column order of TraceCsv, formats of ToCsvRow().
  AppendInt(timestamp, out);
  out->push_back(',');
  AppendInt(line_id, out);
  out->push_back(',');
  out->push_back(direction ? '1' : '0');
  out->push_back(',');
  AppendFixed(position.lon, 6, out);
  out->push_back(',');
  AppendFixed(position.lat, 6, out);
  out->push_back(',');
  AppendFixed(delay_seconds, 2, out);
  out->push_back(',');
  out->push_back(congestion ? '1' : '0');
  out->push_back(',');
  AppendInt(reported_stop_id, out);
  out->push_back(',');
  AppendInt(vehicle_id, out);
  out->push_back(',');
  AppendFixed(speed_kmh, 2, out);
  out->push_back(',');
  AppendFixed(actual_delay, 2, out);
  out->push_back(',');
  AppendInt(hour, out);
  out->push_back(',');
  AppendCsvField(date_type, out);
  out->push_back(',');
  AppendInt(area_leaf, out);
  out->push_back(',');
  AppendInt(bus_stop, out);
  out->push_back('\n');
}

Result<BusTrace> BusTrace::FromCsvRow(const std::vector<std::string>& row) {
  if (row.size() < static_cast<size_t>(TraceCsv::kNumColumns)) {
    return Status::ParseError(
        StrFormat("trace row has %zu columns, expected %d", row.size(),
                  TraceCsv::kNumColumns));
  }
  BusTrace t;
  INSIGHT_ASSIGN_OR_RETURN(t.timestamp, ParseInt(row[TraceCsv::kTimestamp]));
  INSIGHT_ASSIGN_OR_RETURN(long long line, ParseInt(row[TraceCsv::kLine]));
  t.line_id = static_cast<int>(line);
  INSIGHT_ASSIGN_OR_RETURN(t.direction, ParseBool(row[TraceCsv::kDirection]));
  INSIGHT_ASSIGN_OR_RETURN(t.position.lon, ParseDouble(row[TraceCsv::kLon]));
  INSIGHT_ASSIGN_OR_RETURN(t.position.lat, ParseDouble(row[TraceCsv::kLat]));
  INSIGHT_ASSIGN_OR_RETURN(t.delay_seconds, ParseDouble(row[TraceCsv::kDelay]));
  INSIGHT_ASSIGN_OR_RETURN(t.congestion, ParseBool(row[TraceCsv::kCongestion]));
  INSIGHT_ASSIGN_OR_RETURN(t.reported_stop_id,
                           ParseInt(row[TraceCsv::kReportedStop]));
  INSIGHT_ASSIGN_OR_RETURN(long long vehicle, ParseInt(row[TraceCsv::kVehicle]));
  t.vehicle_id = static_cast<int>(vehicle);
  INSIGHT_ASSIGN_OR_RETURN(t.speed_kmh, ParseDouble(row[TraceCsv::kSpeed]));
  INSIGHT_ASSIGN_OR_RETURN(t.actual_delay,
                           ParseDouble(row[TraceCsv::kActualDelay]));
  INSIGHT_ASSIGN_OR_RETURN(long long hour, ParseInt(row[TraceCsv::kHour]));
  t.hour = static_cast<int>(hour);
  t.date_type = row[TraceCsv::kDateType];
  INSIGHT_ASSIGN_OR_RETURN(t.area_leaf, ParseInt(row[TraceCsv::kAreaLeaf]));
  INSIGHT_ASSIGN_OR_RETURN(t.bus_stop, ParseInt(row[TraceCsv::kBusStop]));
  return t;
}

std::string BusTrace::ToString() const {
  return StrFormat(
      "BusTrace{t=%lld line=%d veh=%d pos=(%.4f,%.4f) delay=%.1f speed=%.1f "
      "hour=%d %s area=%lld stop=%lld}",
      static_cast<long long>(timestamp), line_id, vehicle_id, position.lat,
      position.lon, delay_seconds, speed_kmh, hour, date_type.c_str(),
      static_cast<long long>(area_leaf), static_cast<long long>(bus_stop));
}

}  // namespace traffic
}  // namespace insight
