#include "mrs/common/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "mrs/common/check.hpp"
#include "mrs/common/strfmt.hpp"

namespace mrs {

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : path_(path), out_(path), columns_(header.size()) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
  MRS_REQUIRE(!header.empty());
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(header[i]);
  }
  out_ << '\n';
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  MRS_REQUIRE(fields.size() == columns_);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::row_values(std::initializer_list<double> values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (double v : values) fields.push_back(strf("%.6g", v));
  row(fields);
}

bool CsvReader::row(std::vector<std::string>& fields) {
  fields.clear();
  std::string field;
  bool quoted = false;
  bool any = false;
  int c;
  while ((c = in_->get()) != std::istream::traits_type::eof()) {
    const char ch = static_cast<char>(c);
    any = true;
    if (quoted) {
      if (ch == '"') {
        if (in_->peek() == '"') {
          in_->get();
          field += '"';  // doubled quote -> literal quote
        } else {
          quoted = false;
        }
      } else {
        field += ch;  // commas and newlines are data inside quotes
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (ch == '\n') {
      fields.push_back(std::move(field));
      return true;
    } else if (ch != '\r') {
      field += ch;
    }
  }
  if (!any) return false;  // exhausted (or final trailing newline)
  fields.push_back(std::move(field));
  return true;
}

bool CsvDataRows::next(std::vector<std::string>& fields) {
  while (reader_.row(fields)) {
    line_ = next_line_;
    for (const std::string& field : fields) {
      next_line_ += static_cast<std::size_t>(
          std::count(field.begin(), field.end(), '\n'));
    }
    ++next_line_;
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (!fields[0].empty() && fields[0][0] == '#') continue;  // comment
    if (!header_skipped_) {
      header_skipped_ = true;
      continue;
    }
    return true;
  }
  return false;
}

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view field) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<double> parse_finite(std::string_view field) {
  const std::optional<double> value = parse_whole<double>(field);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::optional<std::size_t> parse_count(std::string_view field) {
  return parse_whole<std::size_t>(field);
}

}  // namespace mrs
