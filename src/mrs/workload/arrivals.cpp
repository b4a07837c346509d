#include "mrs/workload/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "mrs/common/check.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"

namespace mrs::workload {

using mapreduce::JobKind;

bool operator==(const Arrival& a, const Arrival& b) {
  return a.time == b.time && a.job.job_id == b.job.job_id &&
         a.job.name == b.job.name && a.job.kind == b.job.kind &&
         a.job.nominal_gb == b.job.nominal_gb &&
         a.job.map_count == b.job.map_count &&
         a.job.reduce_count == b.job.reduce_count &&
         a.job.weight == b.job.weight && a.job.tenant == b.job.tenant;
}

namespace {

/// Apply the mix's deterministic scaling and stochastic size jitter to a
/// catalog entry. Counts are floored at 1 (a job always has work).
JobDescription shape_job(const JobDescription& base, const JobMixConfig& mix,
                         double size_multiplier) {
  JobDescription d = base;
  const double maps = static_cast<double>(base.map_count) *
                      mix.map_count_scale * size_multiplier;
  const double reduces =
      static_cast<double>(base.reduce_count) * mix.reduce_count_scale;
  d.map_count = static_cast<std::size_t>(std::max(1.0, std::round(maps)));
  d.reduce_count =
      static_cast<std::size_t>(std::max(1.0, std::round(reduces)));
  d.nominal_gb = base.nominal_gb * mix.map_count_scale * size_multiplier;
  return d;
}

}  // namespace

JobDescription draw_mix_job(const JobMixConfig& mix, Rng& rng) {
  const double ww = std::max(0.0, mix.wordcount_weight);
  const double tw = std::max(0.0, mix.terasort_weight);
  const double gw = std::max(0.0, mix.grep_weight);
  const double total = ww + tw + gw;
  MRS_REQUIRE(total > 0.0);
  const double u = rng.uniform01() * total;
  const JobKind kind = u < ww             ? JobKind::kWordcount
                       : u < ww + tw      ? JobKind::kTerasort
                                          : JobKind::kGrep;
  // table2_batch preserves catalog order, which is ascending nominal size.
  const std::vector<JobDescription> batch = table2_batch(kind);
  MRS_REQUIRE(!batch.empty());
  const std::size_t rank = rng.zipf(batch.size(), mix.size_skew);
  double multiplier = 1.0;
  if (mix.size_jitter_sigma > 0.0) {
    // Mean-1 lognormal: E[exp(N(mu, sigma^2))] = 1 for mu = -sigma^2/2.
    const double sigma = mix.size_jitter_sigma;
    multiplier = rng.lognormal(-0.5 * sigma * sigma, sigma);
  }
  return shape_job(batch[rank], mix, multiplier);
}

namespace {

/// Homogeneous Poisson arrival times on [0, duration).
std::vector<Seconds> poisson_times(double rate_per_hour, Seconds duration,
                                   Rng& rng) {
  std::vector<Seconds> times;
  const double mean_gap = 3600.0 / rate_per_hour;
  for (Seconds t = rng.exponential(mean_gap); t < duration;
       t += rng.exponential(mean_gap)) {
    times.push_back(t);
  }
  return times;
}

/// 2-state MMPP arrival times on [0, duration). Within a state arrivals
/// are Poisson at the state rate; the memoryless property lets us redraw
/// the inter-arrival gap after each state switch.
std::vector<Seconds> mmpp_times(double rate_per_hour, const MmppConfig& mmpp,
                                Seconds duration, Rng& rng) {
  std::vector<Seconds> times;
  bool burst = false;
  Seconds t = 0.0;
  Seconds next_switch = rng.exponential(mmpp.mean_calm_sojourn);
  while (t < duration) {
    const double rate =
        rate_per_hour * (burst ? mmpp.burst_rate_multiplier : 1.0);
    const Seconds gap = rng.exponential(3600.0 / rate);
    if (t + gap < next_switch) {
      t += gap;
      if (t < duration) times.push_back(t);
    } else {
      t = next_switch;
      burst = !burst;
      next_switch = t + rng.exponential(burst ? mmpp.mean_burst_sojourn
                                              : mmpp.mean_calm_sojourn);
    }
  }
  return times;
}

/// Merged multi-tenant stream: each tenant draws times and jobs from its
/// own RNG children, then the sub-streams interleave by time (stable, so
/// simultaneous arrivals order by tenant index).
std::vector<Arrival> generate_tenant_arrivals(const ArrivalConfig& cfg,
                                              const Rng& rng) {
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    const TenantConfig& t = cfg.tenants[i];
    MRS_REQUIRE(t.process != ArrivalProcess::kTrace);
    MRS_REQUIRE(t.rate_per_hour > 0.0);
    MRS_REQUIRE(t.weight > 0.0);
    Rng time_rng = rng.split(strf("tenant%zu-times", i));
    Rng mix_rng = rng.split(strf("tenant%zu-mix", i));
    const std::vector<Seconds> times =
        t.process == ArrivalProcess::kPoisson
            ? poisson_times(t.rate_per_hour, cfg.duration, time_rng)
            : mmpp_times(t.rate_per_hour, t.mmpp, cfg.duration, time_rng);
    for (const Seconds time : times) {
      Arrival a;
      a.time = time;
      a.job = draw_mix_job(t.mix, mix_rng);
      a.job.tenant = TenantId(i);
      a.job.weight = t.weight;
      a.job.name += strf("@t%zu", i);
      arrivals.push_back(std::move(a));
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].job.job_id = strf("%zu", i + 1);
    arrivals[i].job.name += strf("#%04zu", i + 1);
  }
  return arrivals;
}

[[noreturn]] void trace_error(const std::string& path, std::size_t line,
                              const std::string& what) {
  throw std::runtime_error(strf("load_arrival_trace: %s:%zu: %s",
                                path.c_str(), line, what.c_str()));
}

double parse_trace_double(const std::string& field, const std::string& path,
                          std::size_t line, const char* column) {
  const std::optional<double> value = parse_finite(field);
  if (!value) {
    trace_error(path, line,
                strf("bad numeric value '%s' for %s", field.c_str(), column));
  }
  return *value;
}

std::size_t parse_trace_count(const std::string& field,
                              const std::string& path, std::size_t line,
                              const char* column) {
  const std::optional<std::size_t> value = parse_count(field);
  if (!value) {
    trace_error(path, line,
                strf("bad integer value '%s' for %s", field.c_str(), column));
  }
  return *value;
}

/// Shared record-level trace parser: turns the CSV stream into Arrivals
/// one row at a time (used by both the buffered loader and the streaming
/// reader). CsvDataRows skips comments, blank records and the header and
/// tracks physical line numbers. Accepts the canonical 8-column layout
/// plus the legacy 5- and 7-column ones.
class TraceRowCursor {
 public:
  TraceRowCursor(std::istream& in, std::string path)
      : rows_(in), path_(std::move(path)) {}

  /// Parses the next data row into `out` (job_id left unassigned).
  /// Returns false at end of input. `out_line` receives the row's
  /// starting physical line (for caller-side error reporting).
  bool next(Arrival& out, std::size_t* out_line = nullptr) {
    if (!rows_.next(fields_)) return false;
    parse_row(fields_, rows_.line(), out);
    if (out_line != nullptr) *out_line = rows_.line();
    return true;
  }

 private:
  void parse_row(const std::vector<std::string>& f, std::size_t line,
                 Arrival& out) const {
    // Column layouts: 8 = time,name,kind,gb,maps,reduces,tenant,weight;
    // legacy 7 omits gb; legacy 5 additionally omits tenant,weight.
    if (f.size() != 5 && f.size() != 7 && f.size() != 8) {
      trace_error(path_, line,
                  "expected time,name,kind,gb,maps,reduces,tenant,weight "
                  "(or legacy 5/7-column time,name,kind,maps,reduces"
                  "[,tenant,weight])");
    }
    const bool has_gb = f.size() == 8;
    Arrival a;
    a.time = parse_trace_double(f[0], path_, line, "time");
    a.job.name = f[1];
    if (f[2] == "Wordcount") a.job.kind = JobKind::kWordcount;
    else if (f[2] == "Terasort") a.job.kind = JobKind::kTerasort;
    else if (f[2] == "Grep") a.job.kind = JobKind::kGrep;
    else if (f[2] == "Custom") a.job.kind = JobKind::kCustom;
    else trace_error(path_, line, strf("unknown kind '%s'", f[2].c_str()));
    std::size_t col = 3;
    if (has_gb) {
      a.job.nominal_gb = parse_trace_double(f[col++], path_, line, "gb");
      if (a.job.nominal_gb < 0.0) {
        trace_error(path_, line, "gb must be >= 0");
      }
    }
    a.job.map_count = parse_trace_count(f[col++], path_, line, "maps");
    a.job.reduce_count = parse_trace_count(f[col++], path_, line, "reduces");
    if (a.time < 0.0 || a.job.map_count == 0 || a.job.reduce_count == 0) {
      trace_error(path_, line, "time must be >= 0 and counts positive");
    }
    if (f.size() >= 7) {
      a.job.tenant =
          TenantId(parse_trace_count(f[col++], path_, line, "tenant"));
      a.job.weight = parse_trace_double(f[col++], path_, line, "weight");
      if (!(a.job.weight > 0.0)) {
        trace_error(path_, line, "weight must be > 0");
      }
    }
    out = std::move(a);
  }

  CsvDataRows rows_;
  std::string path_;
  std::vector<std::string> fields_;
};

std::vector<std::string> trace_row_fields(const Arrival& a) {
  return {strf("%.17g", a.time),
          a.job.name,
          mapreduce::to_string(a.job.kind),
          strf("%.17g", a.job.nominal_gb),
          strf("%zu", a.job.map_count),
          strf("%zu", a.job.reduce_count),
          strf("%zu", a.job.tenant.value()),
          strf("%.17g", a.job.weight)};
}

std::vector<std::string> trace_header() {
  return {"time", "name", "kind", "gb", "maps", "reduces", "tenant",
          "weight"};
}

}  // namespace

std::vector<Arrival> generate_arrivals(const ArrivalConfig& cfg,
                                       const Rng& rng) {
  MRS_REQUIRE(cfg.duration > 0.0);
  if (!cfg.tenants.empty()) return generate_tenant_arrivals(cfg, rng);
  if (cfg.process == ArrivalProcess::kTrace) {
    std::vector<Arrival> arrivals = load_arrival_trace(cfg.trace_path);
    std::erase_if(arrivals,
                  [&](const Arrival& a) { return a.time >= cfg.duration; });
    // The horizon cut may drop rows anywhere in id order (the trace need
    // not be time-sorted on disk) — renumber so ids stay contiguous.
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      arrivals[i].job.job_id = strf("%zu", i + 1);
    }
    return arrivals;
  }

  MRS_REQUIRE(cfg.rate_per_hour > 0.0);
  // Times and mix come from separate child streams so changing the mix
  // never perturbs the arrival clock (and vice versa).
  Rng time_rng = rng.split("arrival-times");
  Rng mix_rng = rng.split("arrival-mix");
  const std::vector<Seconds> times =
      cfg.process == ArrivalProcess::kPoisson
          ? poisson_times(cfg.rate_per_hour, cfg.duration, time_rng)
          : mmpp_times(cfg.rate_per_hour, cfg.mmpp, cfg.duration, time_rng);

  std::vector<Arrival> arrivals;
  arrivals.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    Arrival a;
    a.time = times[i];
    a.job = draw_mix_job(cfg.mix, mix_rng);
    a.job.job_id = strf("%zu", i + 1);
    a.job.name += strf("#%04zu", i + 1);  // unique, pairable across runs
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

std::vector<Arrival> load_arrival_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_arrival_trace: cannot open " + path);
  }
  TraceRowCursor cursor(in, path);
  std::vector<Arrival> arrivals;
  Arrival a;
  while (cursor.next(a)) arrivals.push_back(std::move(a));
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.time < y.time;
                   });
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].job.job_id = strf("%zu", i + 1);
  }
  return arrivals;
}

void save_arrival_trace(const std::string& path,
                        std::span<const Arrival> arrivals) {
  CsvWriter out(path, trace_header());
  for (const Arrival& a : arrivals) out.row(trace_row_fields(a));
}

struct TraceStreamReader::Impl {
  Impl(const std::string& p, Seconds h)
      : in(p), path(p), horizon(h), cursor(in, p) {
    if (!in) {
      throw std::runtime_error("TraceStreamReader: cannot open " + p);
    }
  }

  std::ifstream in;
  std::string path;
  Seconds horizon;
  TraceRowCursor cursor;
  Seconds last_time = 0.0;
  std::size_t yielded = 0;
  bool done = false;
};

TraceStreamReader::TraceStreamReader(const std::string& path, Seconds horizon)
    : impl_(std::make_unique<Impl>(path, horizon)) {}

TraceStreamReader::~TraceStreamReader() = default;

std::optional<Arrival> TraceStreamReader::next() {
  Impl& s = *impl_;
  if (s.done) return std::nullopt;
  Arrival a;
  std::size_t line = 0;
  if (!s.cursor.next(a, &line)) {
    s.done = true;
    return std::nullopt;
  }
  if (a.time < s.last_time) {
    trace_error(s.path, line,
                strf("trace not sorted by time (%.17g after %.17g); "
                     "streaming replay requires a time-sorted trace",
                     a.time, s.last_time));
  }
  if (a.time >= s.horizon) {
    s.done = true;  // sorted input: every later row is beyond the horizon
    return std::nullopt;
  }
  s.last_time = a.time;
  a.job.job_id = strf("%zu", ++s.yielded);
  return a;
}

std::size_t TraceStreamReader::rows_yielded() const {
  return impl_->yielded;
}

std::size_t write_arrival_trace(const std::string& path,
                                ArrivalSource& source) {
  CsvWriter out(path, trace_header());
  while (std::optional<Arrival> a = source.next()) {
    out.row(trace_row_fields(*a));
  }
  return out.rows_written();
}

}  // namespace mrs::workload
