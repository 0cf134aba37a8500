#ifndef INSIGHT_COMMON_CSV_H_
#define INSIGHT_COMMON_CSV_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace insight {

/// RFC-4180-ish CSV: comma separated, double-quote quoting with "" escapes.
/// The bus traces the system ingests are stored as CSV files (Section 4.3.2:
/// "the traces are stored in csv files so we use this spout for reading").
class CsvReader {
 public:
  /// Reads from a caller-owned stream; the stream must outlive the reader.
  explicit CsvReader(std::istream* in) : in_(in) {}

  /// Reads the next record into *fields. Returns false at end of input.
  /// Malformed quoting yields a ParseError through `last_status()`.
  bool Next(std::vector<std::string>* fields);

  const Status& last_status() const { return status_; }
  size_t line_number() const { return line_; }

 private:
  std::istream* in_;
  Status status_;
  size_t line_ = 0;
};

/// Writes records with minimal quoting (only when a field contains a comma,
/// quote, or newline).
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream* out) : out_(out) {}
  void Write(const std::vector<std::string>& fields);

 private:
  std::ostream* out_;
};

/// Parses one CSV line (no embedded newlines) into fields.
Result<std::vector<std::string>> ParseCsvLine(const std::string& line);

/// Appends `field` to *out with CsvWriter's quoting.
void AppendCsvField(std::string_view field, std::string* out);

/// ParseCsvLine for tight loops: the same fields, accepted and rejected
/// exactly as ParseCsvLine does, held in one reused buffer instead of a
/// string per field.
class CsvFields {
 public:
  /// Splits `line`; returns false where ParseCsvLine returns an error. The
  /// fields stay valid until the next call.
  bool Parse(std::string_view line);

  size_t size() const { return ends_.size(); }
  std::string_view operator[](size_t i) const {
    return std::string_view(c_str(i), ends_[i] - Begin(i));
  }
  /// Field i followed by a NUL byte, for C parsers such as strtod.
  const char* c_str(size_t i) const { return buffer_.c_str() + Begin(i); }

 private:
  size_t Begin(size_t i) const { return i == 0 ? 0 : ends_[i - 1] + 1; }
  void EndField();

  std::string buffer_;
  std::vector<size_t> ends_;  // field i occupies [Begin(i), ends_[i])
};

}  // namespace insight

#endif  // INSIGHT_COMMON_CSV_H_
