#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name)
    : log_(log), index_(log.spans_.size()) {
  Span span;
  span.name = name;
  span.id = ++log.next_id_;
  span.parent = log.open_.empty() ? 0 : log.spans_[log.open_.back()].id;
  span.sample = log.sample_;
  log.spans_.push_back(std::move(span));
  log.open_.push_back(index_);
  log.spans_[index_].start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  log_.spans_[index_].end_ns = now_ns();
  log_.open_.pop_back();
}

SpanLog::Scope& SpanLog::Scope::arg(const char* key, std::int64_t value) {
  log_.spans_[index_].args.emplace_back(key, value);
  return *this;
}

std::int64_t SpanLog::add(
    const char* name, std::int64_t parent, std::int64_t start_ns,
    std::int64_t end_ns,
    std::vector<std::pair<const char*, std::int64_t>> args) {
  Span span;
  span.name = name;
  span.id = ++next_id_;
  span.parent = parent;
  span.sample = sample_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.args = std::move(args);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      out << "{\"name\": \"" << span.name << "\", \"id\": " << span.id
          << ", \"parent\": " << span.parent << ", \"sample\": " << span.sample
          << ", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << ", \"args\": {";
      for (std::size_t i = 0; i < span.args.size(); ++i) {
        out << (i ? ", " : "") << "\"" << span.args[i].first
            << "\": " << span.args[i].second;
      }
      out << "}}\n";
    }
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
