#include "trace.h"

#include <cstring>

namespace perfbench {

namespace {
thread_local Tracer* current_tracer = nullptr;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
}  // namespace

Tracer* Tracer::Current() { return current_tracer; }

Tracer::Install::Install(Tracer* tracer) : previous_(current_tracer) {
  current_tracer = tracer;
}

Tracer::Install::~Install() { current_tracer = previous_; }

size_t Tracer::Begin(const char* name) {
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({name, parent, Clock::now(), {}});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t id) {
  spans_[id].end = Clock::now();
  // Spans are RAII-scoped, so the one ending is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Absorb(const Tracer& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Record r : other.spans_) {
    if (r.parent >= 0) r.parent += offset;
    spans_.push_back(r);
  }
  for (const auto& [name, values] : other.samples_) {
    std::vector<double>& mine = samples_[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

Tracer::Summary Tracer::Summarize() const {
  const size_t n = spans_.size();
  std::vector<double> child_ms(n, 0.0);
  std::vector<bool> under_stmt(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Record& r = spans_[i];
    if (r.parent >= 0) {
      child_ms[r.parent] += Ms(r.end - r.start);
      // Parents precede children, so the flag is already final.
      under_stmt[i] = under_stmt[r.parent] ||
                      std::strcmp(spans_[r.parent].name, "stmt") == 0;
    }
  }
  Summary s;
  for (size_t i = 0; i < n; ++i) {
    const Record& r = spans_[i];
    const double total = Ms(r.end - r.start);
    const double self = total - child_ms[i];
    NameStats& ns = s.by_name[r.name];
    ns.self_ms.push_back(self);
    ns.total_ms.push_back(total);
    if (std::strcmp(r.name, "stmt") == 0) {
      s.stmt_sum_ms += total;
    } else if (under_stmt[i]) {
      s.attributed_ms += self;
      ns.in_stmt_ms += self;
    }
  }
  return s;
}

}  // namespace perfbench
