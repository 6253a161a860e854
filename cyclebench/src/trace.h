// trace.h — the traced run's instruments: an in-memory span recorder, a
// timing dispatch table installed ahead of checl::dispatch_table(), and the
// Chrome trace-event writer.  Nothing here is active in the end-to-end run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace cb::trace {

struct Span {
  const char* cat;   // layer: "cl", "cpr", "probe", ...
  std::string name;
  std::uint64_t t0 = 0;   // wall ns
  std::uint64_t dur = 0;  // wall ns
  std::uint64_t bytes = 0;
  std::uint32_t tid = 0;
};

// Routes every cl* call through a timing table that records one span per
// call and forwards to the CheCL wrapper table.  off() restores plain CheCL
// routing.
void on();
void off();
[[nodiscard]] bool active() noexcept;

void record(const char* cat, std::string name, std::uint64_t t0,
            std::uint64_t t1, std::uint64_t bytes = 0);

// Span scope: records [construction, destruction) when tracing is active.
class Scope {
 public:
  Scope(const char* cat, const char* name)
      : cat_(cat), name_(name), t0_(active() ? wall_ns() : 0) {}
  ~Scope() {
    if (t0_ != 0) record(cat_, name_, t0_, wall_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* cat_;
  const char* name_;
  std::uint64_t t0_;
};

// Every span recorded so far (caller must not record concurrently).
[[nodiscard]] const std::vector<Span>& spans();
// Durations (ns) of the spans named `name`.
[[nodiscard]] Samples durations(const std::string& name);
// Per-span bandwidth samples (MiB/s) for spans named `name` in a byte range.
[[nodiscard]] Samples bandwidth(const std::string& name, std::uint64_t min_bytes,
                                std::uint64_t max_bytes);

// Writes the spans as Chrome trace-event JSON; `other` (a JSON object) goes
// under "otherData".
bool write_chrome(const std::string& path, const std::string& other);

}  // namespace cb::trace
