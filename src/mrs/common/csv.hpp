// Tiny CSV writer/reader pair used by the bench harness and result/trace
// persistence, plus the record and number parsing the CSV input loaders
// share. The reader inverts CsvWriter::escape exactly: quoted fields may
// contain commas, doubled quotes and embedded newlines.
#pragma once

#include <fstream>
#include <initializer_list>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mrs {

/// Streams rows to a CSV file. Quotes/escapes fields when needed.
/// The file is flushed and closed on destruction (RAII).
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row; must have exactly as many fields as the header.
  void row(const std::vector<std::string>& fields);

  /// Convenience: formats arithmetic values with %.6g.
  void row_values(std::initializer_list<double> values);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t rows_written() const { return rows_; }

  static std::string escape(std::string_view field);

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

/// Streaming CSV reader for files written by CsvWriter. Unlike a
/// getline-then-split loop it parses records, not physical lines, so a
/// quoted field may span lines (embedded '\n'). '\r' outside quotes is
/// ignored, making CRLF input equivalent to LF.
class CsvReader {
 public:
  /// Reads from `in`, which must outlive the reader.
  explicit CsvReader(std::istream& in) : in_(&in) {}

  /// Parses the next record into `fields` (replacing its content).
  /// Returns false once the input is exhausted.
  bool row(std::vector<std::string>& fields);

 private:
  std::istream* in_;
};

/// The data records of a CSV input with a header: skips blank records,
/// comment records (first field starting with '#') and the first record
/// left (the header). Tracks the physical line each record starts on —
/// a quoted field may span lines — for `path:line` error messages.
class CsvDataRows {
 public:
  /// Reads from `in`, which must outlive this object.
  explicit CsvDataRows(std::istream& in) : reader_(in) {}

  /// Parses the next data record into `fields`; false at end of input.
  bool next(std::vector<std::string>& fields);

  /// Physical line on which the last record next() returned starts.
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  CsvReader reader_;
  std::size_t line_ = 0;
  std::size_t next_line_ = 1;
  bool header_skipped_ = false;
};

/// Whole-field number parsers for CSV inputs: the value when all of
/// `field` is a finite number (parse_finite) or a non-negative integer
/// that fits std::size_t (parse_count), nullopt otherwise — so "12abc",
/// "1e9" as a count, "-1", "inf" and "nan" are all rejected.
[[nodiscard]] std::optional<double> parse_finite(std::string_view field);
[[nodiscard]] std::optional<std::size_t> parse_count(std::string_view field);

}  // namespace mrs
