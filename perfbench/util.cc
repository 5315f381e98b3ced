// Shared helpers of flockbench: data, oracle, parsing, clocks, spans.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "bench.h"
#include "common/check.h"
#include "shell/shell.h"

namespace qfbench {

Fig2Shape ShapeFor(const Options& options) {
  Fig2Shape shape;
  qf::BasketConfig& c = shape.config;
  c.n_baskets = options.tiny ? 2000 : 20000;
  c.n_items = options.tiny ? 300 : 3000;
  c.avg_basket_size = 10;
  c.zipf_theta = 0.75;
  c.topic_locality = 0.35;
  c.n_topics = options.tiny ? 30 : 150;
  c.seed = options.seed;
  shape.support = options.tiny ? 15 : 50;
  return shape;
}

std::string FlockStatement(std::size_t support) {
  return "FLOCK pairs QUERY answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 "
         "FILTER COUNT >= " +
         std::to_string(support);
}

qf::QueryFlock PairFlock(std::size_t support) {
  auto flock = qf::MakeFlock(
      "answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2",
      qf::FilterCondition::MinSupport(static_cast<double>(support)));
  QF_CHECK_MSG(flock.ok(), flock.status().ToString().c_str());
  return std::move(flock).value();
}

Dataset MakeDataset(const Fig2Shape& shape, std::uint64_t seed,
                    bool corrupt_oracle) {
  Dataset data;
  qf::BasketConfig config = shape.config;
  config.seed = seed;
  std::uint64_t t0 = NowNs();
  qf::Relation rel = qf::GenerateBaskets(config);
  data.gen_ms = static_cast<double>(NowNs() - t0) / 1e6;
  rel.set_name("b");
  auto baskets = qf::BasketsFromRelation(rel, "BID", "Item");
  QF_CHECK_MSG(baskets.ok(), baskets.status().ToString().c_str());
  data.baskets = std::move(baskets).value();
  data.base = std::make_shared<const qf::Relation>(std::move(rel));
  for (const qf::Itemset& set :
       qf::AprioriFrequentPairs(data.baskets, shape.support)) {
    data.oracle.insert(data.baskets.item_names[set.items[0]] + '\t' +
                       data.baskets.item_names[set.items[1]]);
  }
  if (corrupt_oracle) CorruptAnswer(&data.oracle);
  return data;
}

PairSet PairsOf(const qf::Relation& result) {
  PairSet pairs;
  for (const qf::Tuple& row : result.rows()) {
    pairs.insert(row[0].ToString() + '\t' + row[1].ToString());
  }
  return pairs;
}

void CorruptAnswer(PairSet* pairs) {
  if (!pairs->empty()) pairs->erase(pairs->begin());
}

bool ParseRunOutput(const std::string& text, RunAnswer* answer) {
  std::size_t eol = text.find('\n');
  if (eol == std::string::npos) return false;
  const std::string header = text.substr(0, eol);
  std::size_t colon = header.find(": ");
  std::size_t open = header.find(" ms (");
  if (open != std::string::npos) open += 4;
  std::size_t close = header.rfind(')');
  if (colon == std::string::npos || open == std::string::npos ||
      close == std::string::npos || close < open) {
    return false;
  }
  answer->count = std::strtoull(header.c_str() + colon + 2, nullptr, 10);
  answer->mode = header.substr(open + 1, close - open - 1);
  answer->pairs.clear();
  std::size_t pos = eol + 1;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.size() < 4 || line.substr(0, 3) != "  (" || line.back() != ')') {
      continue;
    }
    std::string_view body = line.substr(3, line.size() - 4);
    std::size_t comma = body.find(", ");
    if (comma == std::string_view::npos) return false;
    answer->pairs.insert(std::string(body.substr(0, comma)) + '\t' +
                         std::string(body.substr(comma + 2)));
  }
  return answer->pairs.size() == answer->count;
}

long long WriteTsv(const qf::Relation& rel, const std::string& path) {
  std::string text = "BID\tItem\n";
  for (const qf::Tuple& row : rel.rows()) {
    text += row[0].ToString();
    text += '\t';
    text += row[1].ToString();
    text += '\n';
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return -1;
  return static_cast<long long>(text.size());
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
// Innermost open span of the calling thread (the parent of the next one).
thread_local std::vector<std::int64_t> open_spans;
}  // namespace

std::int64_t Tracer::Begin(const std::string& name, std::uint64_t stmt) {
  if (!on_) return -1;
  Record record;
  record.name = name;
  record.start_ns = NowNs();
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.stmt = stmt;
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(record));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(std::int64_t id) {
  if (id < 0) return;
  std::uint64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

void Tracer::Attach(const std::string& name, std::string json) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  attachments_.emplace_back(name, std::move(json));
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << "{\"span\":" << i << ",\"name\":" << JsonString(r.name)
        << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":" << r.parent << ",\"stmt\":" << r.stmt << "}\n";
  }
  for (const auto& [name, json] : attachments_) {
    out << "{\"metrics_tree\":" << JsonString(name) << ",\"tree\":" << json
        << "}\n";
  }
  return static_cast<bool>(out);
}

double Span::Stop() {
  if (end_ == 0) {
    end_ = NowNs();
    tracer_.End(id_);
  }
  return static_cast<double>(end_ - start_) / 1e6;
}

// One checked RUN through the shell; returns its latency, or a negative
// value when it failed or disagreed with the oracle. `record` keeps the
// latency in the tally.
double ShellRun(qf::Shell& shell, const std::string& mode,
                const PairSet& oracle, bool record, std::uint64_t stmt,
                Tracer& tracer, Tally* tally) {
  ++tally->attempted;
  Span span(tracer, "shell.Execute RUN " + mode, stmt);
  auto out = shell.Execute("RUN pairs " + mode + kAllRows);
  double ms = span.Stop();
  RunAnswer answer;
  if (!out.ok()) {
    tally->Fail("RUN " + mode + ": " + out.status().ToString());
  } else if (!ParseRunOutput(*out, &answer)) {
    tally->Fail("RUN " + mode + ": unparsable output");
  } else if (answer.pairs != oracle) {
    ++tally->wrong;
    tally->Fail("RUN " + mode + ": answer differs from the oracle");
  } else {
    if (record) tally->ms[mode].push_back(ms);
    return ms;
  }
  return -1;
}

void Tally::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 5) errors.push_back(why);
}

void Tally::Merge(const Tally& other) {
  for (const auto& [kind, v] : other.ms) {
    ms[kind].insert(ms[kind].end(), v.begin(), v.end());
  }
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace qfbench
