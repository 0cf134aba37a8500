#include "common/csv.h"

#include <algorithm>

namespace insight {

namespace {

/// Appends a parsed field list from `line` into *fields. Returns false on a
/// quoting error.
bool ParseLineInto(const std::string& line, std::vector<std::string>* fields,
                   std::string* error) {
  fields->clear();
  std::string field;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        *error = "quote in the middle of an unquoted field";
        return false;
      }
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == ',') {
      fields->push_back(std::move(field));
      field.clear();
      ++i;
      continue;
    }
    field.push_back(c);
    ++i;
  }
  if (in_quotes) {
    *error = "unterminated quoted field";
    return false;
  }
  fields->push_back(std::move(field));
  return true;
}

bool NeedsQuoting(std::string_view field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

bool CsvReader::Next(std::vector<std::string>* fields) {
  if (!status_.ok()) return false;
  std::string line;
  if (!std::getline(*in_, line)) return false;
  ++line_;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::string error;
  if (!ParseLineInto(line, fields, &error)) {
    status_ = Status::ParseError("csv line " + std::to_string(line_) + ": " + error);
    return false;
  }
  return true;
}

void CsvWriter::Write(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    AppendCsvField(fields[i], &line);
  }
  line += '\n';
  *out_ << line;
}

void AppendCsvField(std::string_view field, std::string* out) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

Result<std::vector<std::string>> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string error;
  if (!ParseLineInto(line, &fields, &error)) return Status::ParseError(error);
  return fields;
}

// Mirrors ParseLineInto state for state; runs of plain bytes are copied in
// one append. A line without quotes is split on its commas directly.
bool CsvFields::Parse(std::string_view line) {
  buffer_.clear();
  ends_.clear();
  if (line.find('"') == std::string_view::npos) {
    buffer_.assign(line);
    for (size_t comma = buffer_.find(','); comma != std::string::npos;
         comma = buffer_.find(',', comma + 1)) {
      ends_.push_back(comma);
      buffer_[comma] = '\0';
    }
    EndField();
    return true;
  }
  size_t field_start = 0;  // where the current field begins in buffer_
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          buffer_.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      size_t quote = std::min(line.find('"', i), line.size());
      buffer_.append(line.substr(i, quote - i));
      i = quote;
      continue;
    }
    if (c == '"') {
      if (buffer_.size() != field_start) return false;
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == ',') {
      EndField();
      field_start = buffer_.size();
      ++i;
      continue;
    }
    size_t stop = std::min(line.find_first_of(",\"", i), line.size());
    buffer_.append(line.substr(i, stop - i));
    i = stop;
  }
  if (in_quotes) return false;
  EndField();
  return true;
}

void CsvFields::EndField() {
  ends_.push_back(buffer_.size());
  buffer_.push_back('\0');
}

}  // namespace insight
