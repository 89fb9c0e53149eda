#include "trace.hpp"

#include <fstream>
#include <set>

#include "util/json.hpp"
#include "util/require.hpp"

namespace fnebench {

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::ms(TimePoint t) const {
  return std::chrono::duration<double, std::milli>(t - origin_).count();
}

std::uint64_t Tracer::open(const std::string& name, std::uint64_t trace) {
  if (!enabled_) return 0;
  const double start = ms(std::chrono::steady_clock::now());
  const std::uint64_t parent = t_open.empty() ? 0 : t_open.back();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (trace == 0 && parent != 0) trace = spans_[parent - 1].trace;
    id = spans_.size() + 1;
    spans_.push_back({id, parent, trace, name, start, start});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const double end = ms(std::chrono::steady_clock::now());
  // Span objects nest on their thread's stack, so `id` is the innermost
  // open span (close runs from ~Span, where nothing may throw).
  if (!t_open.empty()) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ms = end;
}

std::uint64_t Tracer::record(const std::string& name, std::uint64_t trace, std::uint64_t parent,
                             TimePoint start, TimePoint end) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, trace, name, ms(start), ms(end)});
  return id;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  FNE_REQUIRE(static_cast<bool>(out), "trace: cannot write " + path);
  for (const SpanRecord& s : spans()) {
    fne::JsonObject o;
    o.put("id", s.id)
        .put("parent", s.parent)
        .put("trace", s.trace)
        .put("name", s.name)
        .put("start_ms", s.start_ms)
        .put("end_ms", s.end_ms);
    out << o.dump() << "\n";
  }
}

std::string verify_span_file(const std::string& path, std::size_t* count) {
  std::ifstream in(path);
  if (!in) return "cannot open " + path;
  std::set<std::int64_t> ids;
  std::vector<std::int64_t> parents;
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    try {
      const fne::JsonValue v = fne::JsonValue::parse(line);
      const std::int64_t id = v.at("id").as_int();
      if (!ids.insert(id).second) return "duplicate span id " + std::to_string(id);
      parents.push_back(v.at("parent").as_int());
      (void)v.at("trace").as_int();
      (void)v.at("name").as_string();
      if (v.at("end_ms").as_number() < v.at("start_ms").as_number()) {
        return "span " + std::to_string(id) + " ends before it starts";
      }
    } catch (const std::exception& e) {
      return "line " + std::to_string(n) + ": " + e.what();
    }
  }
  for (const std::int64_t p : parents) {
    if (p != 0 && ids.count(p) == 0) return "unresolved parent id " + std::to_string(p);
  }
  if (count != nullptr) *count = n;
  return "";
}

}  // namespace fnebench
