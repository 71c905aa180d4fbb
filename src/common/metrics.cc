#include "common/metrics.hh"

#include <limits>

#include "common/io.hh"
#include "common/json.hh"
#include "common/knobs.hh"
#include "common/log.hh"
#include "common/manifest.hh"

namespace mnoc {

namespace {

constinit CollectorSwitch metrics_switch("MNOC_METRICS", nullptr);

/** Backstop against a corrupt epoch index allocating the machine
 *  away: 2^24 epochs of 8-byte slots is already a 128 MiB series. */
constexpr std::size_t kMaxSeriesSlots = std::size_t{1} << 24;

} // namespace

bool
metricsEnabled()
{
    return metrics_switch.enabled();
}

Histogram::Histogram(std::string name, std::vector<double> edges)
    : name_(std::move(name)), edges_(std::move(edges)),
      buckets_(edges_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
    if (edges_.empty())
        fatal("histogram '" + name_ + "' needs at least one bucket edge");
    for (std::size_t i = 1; i < edges_.size(); ++i) {
        if (edges_[i] <= edges_[i - 1])
            fatal("histogram '" + name_ +
                  "' bucket edges must be strictly ascending");
    }
}

void
Histogram::observe(double value)
{
    if (!metricsEnabled())
        return;
    std::size_t bucket = edges_.size();
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        if (value <= edges_[i]) {
            bucket = i;
            break;
        }
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);

    // Commutative folds: the final min/max are independent of the
    // order in which concurrent observers run.
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out;
    out.reserve(buckets_.size());
    for (const auto &bucket : buckets_)
        out.push_back(bucket.load(std::memory_order_relaxed));
    return out;
}

std::uint64_t
Histogram::totalCount() const
{
    std::uint64_t total = 0;
    for (const auto &bucket : buckets_)
        total += bucket.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::minValue() const
{
    return min_.load(std::memory_order_relaxed);
}

double
Histogram::maxValue() const
{
    return max_.load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

void
Series::add(std::size_t index, std::uint64_t n)
{
    if (!metricsEnabled())
        return;
    if (index >= kMaxSeriesSlots)
        fatal("series '" + name_ + "' index out of range: " +
              std::to_string(index));
    std::lock_guard<std::mutex> lock(mutex_);
    if (slots_.size() <= index)
        slots_.resize(index + 1, 0);
    slots_[index] += n;
}

std::vector<std::uint64_t>
Series::values() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_;
}

void
Series::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry *instance = [] {
        auto *registry = new MetricsRegistry();
        metrics_switch.exportAtExit(
            [] { global().writeJson(exportPath()); });
        return registry;
    }();
    return *instance;
}

void
MetricsRegistry::setEnabled(bool on)
{
    metrics_switch.setEnabled(on);
}

std::string
MetricsRegistry::exportPath()
{
    return metrics_switch.exportPath();
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_
                 .emplace(name, std::unique_ptr<Counter>(
                                    new Counter(name)))
                 .first;
    return *it->second;
}

Series &
MetricsRegistry::series(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = series_.find(name);
    if (it == series_.end())
        it = series_
                 .emplace(name,
                          std::unique_ptr<Series>(new Series(name)))
                 .first;
    return *it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &edges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(name, std::unique_ptr<Histogram>(
                                    new Histogram(name, edges)))
                 .first;
    if (it->second->edges().size() != edges.size())
        fatal("histogram '" + name +
              "' re-registered with a different bucket count");
    return *it->second;
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\n  \"schema\": \"mnoc-metrics-v3\",\n";
    // Provenance: stable within a process, so it never perturbs the
    // bit-identity comparison across pool sizes.
    out += "  \"manifest\": " + manifestJson(currentManifest()) +
           ",\n";

    out += "  \"counters\": {";
    const char *sep = "";
    for (const auto &[name, counter] : counters_) {
        out += sep;
        out += "\n    \"" + escapeJson(name) +
               "\": " + std::to_string(counter->value());
        sep = ",";
    }
    out += counters_.empty() ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    sep = "";
    for (const auto &[name, hist] : histograms_) {
        out += sep;
        out += "\n    \"" + escapeJson(name) + "\": {\n";
        out += "      \"edges\": [";
        const char *comma = "";
        for (double edge : hist->edges()) {
            out += comma;
            out += jsonNumber(edge);
            comma = ", ";
        }
        out += "],\n      \"counts\": [";
        comma = "";
        for (std::uint64_t count : hist->bucketCounts()) {
            out += comma;
            out += std::to_string(count);
            comma = ", ";
        }
        std::uint64_t total = hist->totalCount();
        out += "],\n      \"count\": " + std::to_string(total);
        out += ",\n      \"min\": ";
        out += total > 0 ? jsonNumber(hist->minValue()) : "null";
        out += ",\n      \"max\": ";
        out += total > 0 ? jsonNumber(hist->maxValue()) : "null";
        out += "\n    }";
        sep = ",";
    }
    out += histograms_.empty() ? "},\n" : "\n  },\n";

    out += "  \"series\": {";
    sep = "";
    for (const auto &[name, s] : series_) {
        out += sep;
        out += "\n    \"" + escapeJson(name) + "\": [";
        const char *comma = "";
        for (std::uint64_t v : s->values()) {
            out += comma;
            out += std::to_string(v);
            comma = ", ";
        }
        out += "]";
        sep = ",";
    }
    out += series_.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

void
MetricsRegistry::writeJson(const std::string &path) const
{
    FileWriter writer(path);
    writer.stream() << toJson();
    writer.close();
}

void
MetricsRegistry::printText(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        out << name << " " << counter->value() << "\n";
    for (const auto &[name, hist] : histograms_) {
        out << name << " count " << hist->totalCount();
        if (hist->totalCount() > 0)
            out << " min " << jsonNumber(hist->minValue()) << " max "
                << jsonNumber(hist->maxValue());
        out << "\n";
    }
    for (const auto &[name, s] : series_) {
        std::vector<std::uint64_t> values = s->values();
        std::uint64_t total = 0;
        for (std::uint64_t v : values)
            total += v;
        out << name << " slots " << values.size() << " total "
            << total << "\n";
    }
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, hist] : histograms_)
        hist->reset();
    for (auto &[name, s] : series_)
        s->reset();
}

} // namespace mnoc
