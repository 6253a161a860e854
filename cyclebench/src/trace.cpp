// trace.cpp — span recorder, timing dispatch table, Chrome trace writer.
#include "trace.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "checl/dispatch.h"
#include "core/runtime.h"

namespace cb::trace {
namespace {

std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
std::atomic<bool> g_on{false};
const checl_api::DispatchTable* g_inner = nullptr;
checl_api::DispatchTable g_timed;

std::uint32_t tid() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFF);
}

// Records the enclosing cl* call when the scope closes, after the forwarded
// call has produced its return value.
struct CallSpan {
  const char* name;
  std::uint64_t bytes;
  std::uint64_t t0 = wall_ns();
  ~CallSpan() { record("cl", name, t0, wall_ns(), bytes); }
};

#define CB_TIMED(F)                               \
  t.F = [](auto... a) -> decltype(auto) {         \
    CallSpan s{"cl" #F, 0};                       \
    return g_inner->F(a...);                      \
  }
// Blocking transfers carry their byte count (argument 4, `cb`).
#define CB_TIMED_XFER(F)                                                  \
  t.F = [](cl_command_queue q, cl_mem m, cl_bool b, size_t off, size_t n, \
           auto p, cl_uint ne, const cl_event* w, cl_event* e) {          \
    CallSpan s{"cl" #F, n};                                               \
    return g_inner->F(q, m, b, off, n, p, ne, w, e);                      \
  }

void build_table() {
  checl_api::DispatchTable& t = g_timed;
  CB_TIMED(GetPlatformIDs);
  CB_TIMED(GetPlatformInfo);
  CB_TIMED(GetDeviceIDs);
  CB_TIMED(GetDeviceInfo);
  CB_TIMED(CreateContext);
  CB_TIMED(RetainContext);
  CB_TIMED(ReleaseContext);
  CB_TIMED(GetContextInfo);
  CB_TIMED(CreateCommandQueue);
  CB_TIMED(RetainCommandQueue);
  CB_TIMED(ReleaseCommandQueue);
  CB_TIMED(GetCommandQueueInfo);
  CB_TIMED(Flush);
  CB_TIMED(Finish);
  CB_TIMED(CreateBuffer);
  CB_TIMED(CreateImage2D);
  CB_TIMED(RetainMemObject);
  CB_TIMED(ReleaseMemObject);
  CB_TIMED(GetMemObjectInfo);
  CB_TIMED(GetImageInfo);
  CB_TIMED(CreateSampler);
  CB_TIMED(RetainSampler);
  CB_TIMED(ReleaseSampler);
  CB_TIMED(GetSamplerInfo);
  CB_TIMED(CreateProgramWithSource);
  CB_TIMED(CreateProgramWithBinary);
  CB_TIMED(RetainProgram);
  CB_TIMED(ReleaseProgram);
  CB_TIMED(BuildProgram);
  CB_TIMED(GetProgramInfo);
  CB_TIMED(GetProgramBuildInfo);
  CB_TIMED(CreateKernel);
  CB_TIMED(CreateKernelsInProgram);
  CB_TIMED(RetainKernel);
  CB_TIMED(ReleaseKernel);
  CB_TIMED(SetKernelArg);
  CB_TIMED(GetKernelInfo);
  CB_TIMED(GetKernelWorkGroupInfo);
  CB_TIMED(WaitForEvents);
  CB_TIMED(GetEventInfo);
  CB_TIMED(RetainEvent);
  CB_TIMED(ReleaseEvent);
  CB_TIMED(GetEventProfilingInfo);
  CB_TIMED_XFER(EnqueueReadBuffer);
  CB_TIMED_XFER(EnqueueWriteBuffer);
  CB_TIMED(EnqueueCopyBuffer);
  CB_TIMED(EnqueueNDRangeKernel);
  CB_TIMED(EnqueueTask);
  CB_TIMED(EnqueueMarker);
  CB_TIMED(EnqueueBarrier);
  CB_TIMED(EnqueueWaitForEvents);
  CB_TIMED(SimGetHostTimeNS);
  CB_TIMED(SimAdvanceHostNS);
}

#undef CB_TIMED
#undef CB_TIMED_XFER

}  // namespace

void on() {
  checl::bind_checl();
  g_inner = &checl::dispatch_table();
  build_table();
  g_on.store(true, std::memory_order_release);
  checl_api::set_dispatch(&g_timed);
}

void off() {
  g_on.store(false, std::memory_order_release);
  checl::bind_checl();
}

bool active() noexcept { return g_on.load(std::memory_order_acquire); }

void record(const char* cat, std::string name, std::uint64_t t0,
            std::uint64_t t1, std::uint64_t bytes) {
  if (!active()) return;
  Span s{cat, std::move(name), t0, t1 - t0, bytes, tid()};
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back(std::move(s));
}

const std::vector<Span>& spans() { return g_spans; }

Samples durations(const std::string& name) {
  Samples out;
  std::lock_guard<std::mutex> lk(g_mu);
  for (const Span& s : g_spans)
    if (s.name == name) out.add(static_cast<double>(s.dur));
  return out;
}

Samples bandwidth(const std::string& name, std::uint64_t min_bytes,
                  std::uint64_t max_bytes) {
  Samples out;
  std::lock_guard<std::mutex> lk(g_mu);
  for (const Span& s : g_spans)
    if (s.name == name && s.bytes >= min_bytes && s.bytes <= max_bytes &&
        s.dur > 0)
      out.add(static_cast<double>(s.bytes) / (1024.0 * 1024.0) /
              (static_cast<double>(s.dur) / 1e9));
  return out;
}

bool write_chrome(const std::string& path, const std::string& other) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  std::uint64_t first = g_spans.empty() ? 0 : g_spans.front().t0;
  for (const Span& s : g_spans) first = std::min(first, s.t0);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"bytes\": %llu}}%s\n",
                 s.name.c_str(), s.cat,
                 static_cast<double>(s.t0 - first) / 1e3,
                 static_cast<double>(s.dur) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.bytes),
                 i + 1 < g_spans.size() ? "," : "");
  }
  std::fprintf(f, "], \"otherData\": %s}\n", other.c_str());
  return std::fclose(f) == 0;
}

}  // namespace cb::trace
