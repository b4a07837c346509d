// Small statistics toolkit: running moments, percentiles, and empirical CDFs.
// Used by the metrics module and by the figure renderers.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mrs {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolated percentile of an unsorted sample; q in [0, 1].
/// Requires a non-empty sample.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// One point of an empirical CDF: P(X <= value) = fraction.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;
};

/// Empirical distribution over a collected sample.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> sample);

  void add(double x);

  /// Full step-function: one point per sample, sorted by value.
  [[nodiscard]] std::vector<CdfPoint> points() const;

  /// CDF resampled at `n` evenly spaced fractions (1/n .. 1), for plotting.
  [[nodiscard]] std::vector<CdfPoint> resampled(std::size_t n) const;

  /// Fraction of the sample <= x.
  [[nodiscard]] double fraction_at_or_below(double x) const;

  /// Value at fraction q (inverse CDF).
  [[nodiscard]] double value_at(double q) const;

  [[nodiscard]] std::size_t count() const { return sample_.size(); }
  [[nodiscard]] bool empty() const { return sample_.empty(); }
  [[nodiscard]] const std::vector<double>& sample() const { return sample_; }

 private:
  void ensure_sorted() const;

  std::vector<double> sample_;
  mutable bool sorted_ = true;
};

/// Render one or more CDFs as a fixed-width ASCII chart (x = value,
/// y = cumulative fraction), one glyph per series. Used by bench_paper's
/// figure rows so their output is readable without plotting tools.
[[nodiscard]] std::string render_cdf_ascii(
    std::span<const std::pair<std::string, const Cdf*>> series, int width = 72,
    int height = 20, const std::string& x_label = "value");

}  // namespace mrs
