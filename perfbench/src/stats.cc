#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

bool Latencies::Supports(double p) const {
  const double beyond = static_cast<double>(attempted()) * (1.0 - p);
  return beyond + 1e-9 >= static_cast<double>(kMinTailSamples);
}

double Latencies::Quantile(double p) const {
  const size_t n = attempted();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  // Nearest rank: the smallest sample with at least p·n samples at or
  // below it. Failed statements sort last, as +infinity.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (rank > ms_.size()) return std::numeric_limits<double>::infinity();
  std::vector<double> sorted = ms_;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

InputRng::InputRng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}

uint64_t InputRng::Below(uint64_t n) {
  // splitmix64; the modulo bias is irrelevant at these domain sizes.
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return n == 0 ? z : z % n;
}

double InputRng::Uniform() {
  return static_cast<double>(Below(0) >> 11) * 0x1.0p-53;
}

uint64_t InputRng::Zipf(uint64_t n, double s) {
  double total = 0.0;
  for (uint64_t k = 1; k <= n; ++k) total += std::pow(double(k), -s);
  double u = Uniform() * total;
  for (uint64_t k = 1; k <= n; ++k) {
    u -= std::pow(double(k), -s);
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

uint64_t DigestString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

}  // namespace

uint64_t DigestRelation(const maybms::Relation& rel) {
  uint64_t h = Mix(0, rel.NumRows());
  for (const maybms::Tuple& row : rel.rows()) {
    for (const maybms::Value& v : row) {
      // Doubles by bit pattern: the checks demand bit-identical answers.
      if (v.is_double()) {
        uint64_t bits = 0;
        const double d = v.as_double();
        std::memcpy(&bits, &d, sizeof bits);
        h = Mix(h, bits);
      } else {
        h = Mix(h, DigestString(v.ToString()));
      }
    }
  }
  return h;
}

uint64_t DigestResult(const maybms::sql::StatementResult& result) {
  using Kind = maybms::sql::StatementResult::Kind;
  switch (result.kind) {
    case Kind::kTable:
      return DigestRelation(result.table);
    case Kind::kWorldSet:
      return DigestString(result.ToDisplayString(1u << 30));
    case Kind::kMessage:
      break;
  }
  return DigestString(result.message);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char num[64];
    // %.17g keeps every digit measured; JSON has no NaN or infinity.
    if (std::isfinite(m.value)) {
      snprintf(num, sizeof(num), "%.17g", m.value);
    } else {
      snprintf(num, sizeof(num), "null");
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
