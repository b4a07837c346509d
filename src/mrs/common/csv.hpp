// Tiny CSV writer/reader pair used by the bench harness and result/trace
// persistence. The reader inverts CsvWriter::escape exactly: quoted fields
// may contain commas, doubled quotes and embedded newlines.
#pragma once

#include <fstream>
#include <initializer_list>
#include <istream>
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

}  // namespace mrs
