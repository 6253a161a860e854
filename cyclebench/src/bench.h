// bench.h — shared plumbing of the CheCL cycle benchmark: the wall clock,
// seeded input streams, per-op sample sets, and the ledger that counts
// attempted and failed operations.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checl/cl.h"

namespace cb {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64: every input byte of a run derives from the workload seed, and
// the stream is incompressible, so snapstore's codec cannot shrink it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return n == 0 ? 0 : next() % n; }
  float unit() noexcept {
    return static_cast<float>(next() >> 40) / 16777216.0f;
  }
  void fill(std::uint8_t* p, std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const std::uint64_t v = next();
      std::memcpy(p + i, &v, 8);
    }
    if (i < n) {
      const std::uint64_t v = next();
      std::memcpy(p + i, &v, n - i);
    }
  }

 private:
  std::uint64_t s_;
};

// Derives an independent stream for one purpose from the workload seed.
inline Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  Rng r(seed * 0x100000001B3ull + purpose);
  r.next();
  return r;
}

// Samples of one operation inside one run.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  // The highest of p90/p95/p99/p99.9 that still has at least ten samples
  // beyond it; pct = 0 when the run has too few samples for any tail.
  void tail(double* pct, double* value) const {
    *pct = 0;
    *value = 0;
    for (const double p : {99.9, 99.0, 95.0, 90.0}) {
      if (static_cast<double>(v_.size()) * (1.0 - p / 100.0) >= 10.0) {
        *pct = p;
        *value = quantile(p / 100.0);
        return;
      }
    }
  }

 private:
  std::vector<double> v_;
};

// Attempted/failed accounting.  An op fails on a non-CL_SUCCESS return or
// on any byte that differs from the host reference.
class Ledger {
 public:
  bool cl(cl_int err, const char* what) {
    ++attempted_;
    if (err == CL_SUCCESS) return true;
    fail(what, "returned " + std::to_string(err));
    return false;
  }
  bool ok(bool good, const char* what, const std::string& detail = {}) {
    ++attempted_;
    if (good) return true;
    fail(what, detail);
    return false;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  void fail(const char* what, const std::string& detail) {
    ++failed_;
    if (failed_ <= 10)
      std::fprintf(stderr, "cyclebench: FAILED %s%s%s\n", what,
                   detail.empty() ? "" : ": ", detail.c_str());
  }
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Byte-for-byte comparison; returns a short description of the first
// mismatch (empty when equal).
inline std::string first_mismatch(const std::uint8_t* got,
                                  const std::uint8_t* want, std::size_t n) {
  if (std::memcmp(got, want, n) == 0) return {};
  for (std::size_t i = 0; i < n; ++i)
    if (got[i] != want[i])
      return "byte " + std::to_string(i) + " of " + std::to_string(n) +
             " differs";
  return {};
}

}  // namespace cb
