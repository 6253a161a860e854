// apps.h — the applications the benchmark drives through the public cl*
// API.  Each keeps a host model of every device buffer, so every read-back,
// restart and migration is checked byte for byte against it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checl/cl.h"
#include "clc/interp.h"

namespace cb {

// Wall-clock observations a pass or check hands back to the runner.
struct Io {
  Samples* call_ns = nullptr;      // small forwarded calls (clSetKernelArg)
  std::uint64_t xfer_bytes = 0;    // blocking writes + reads
  std::uint64_t xfer_ns = 0;
  bool corrupt_next_read = false;  // test hook: flip a byte of one read-back
};

// One kernel launch of a pass, as the clc probes replay it in-process.
struct Launch {
  std::string source;
  std::string kernel;
  bool barrier = false;  // runs on clc's lockstep (one thread per item) path
  clc::NDRange nd;
  std::vector<clc::KernelArg> args;               // GlobalPtr args point into
  std::vector<std::vector<std::uint8_t>> storage;  // this storage
  unsigned reps = 1;

  // Points the GlobalPtr args at this launch's own storage (after a copy).
  void bind() {
    for (std::size_t i = 0; i < args.size(); ++i)
      if (args[i].k == clc::KernelArg::K::GlobalPtr)
        args[i].ptr = storage[i].data();
  }
};

class App {
 public:
  virtual ~App() = default;

  // Opens the device, builds every program, creates every buffer and does
  // the initial uploads.
  virtual bool setup(Ledger& led, Io& io) = 0;
  // One application pass: uploads + kernel args + launches + clFinish.
  virtual bool pass(Ledger& led, Io& io) = 0;
  // Reads back what the pass produced and compares it with the host model.
  virtual bool check(Ledger& led, Io& io) = 0;
  // The launches of one pass with this run's inputs (clc probes).
  [[nodiscard]] virtual std::vector<Launch> launches() const = 0;
  // Consecutive passes whose checks, together, read back every buffer the
  // checks rotate over; one bandwidth sample spans that many passes.
  [[nodiscard]] virtual unsigned rotation() const { return 1; }

  // Reads back every buffer and compares it with the host model.
  bool verify_all(Ledger& led, Io& io);
  // Addresses of every CL handle the app holds, for rebinding them after
  // Engine::restore_fresh.
  std::vector<void**> handle_slots();
  // Releases every handle (used for the in-process native copy).
  void release_all();
  [[nodiscard]] const std::vector<std::string>& sources() const noexcept {
    return sources_;
  }

 protected:
  struct Buf {
    cl_mem mem = nullptr;
    std::vector<std::uint8_t> model;  // expected device contents
  };

  bool open(Ledger& led);
  // Returns the kernel's index in kernels_ (handles are only ever held
  // there, so rebinding after a restore reaches every use).
  std::size_t build(Ledger& led, const std::string& src, const char* kernel);
  std::size_t buffer(Ledger& led, std::vector<std::uint8_t> init);
  bool upload(Ledger& led, Io& io, std::size_t b, std::size_t off,
              std::size_t n);
  bool read_check(Ledger& led, Io& io, std::size_t b, std::size_t off,
                  std::size_t n);
  bool set_arg(Ledger& led, Io& io, std::size_t k, cl_uint i,
               std::size_t size, const void* value);
  bool set_mem(Ledger& led, Io& io, std::size_t k, cl_uint i, std::size_t b) {
    return set_arg(led, io, k, i, sizeof(cl_mem), &bufs_[b].mem);
  }
  bool launch(Ledger& led, std::size_t k, const clc::NDRange& nd);
  bool finish(Ledger& led);

  cl_platform_id platform_ = nullptr;
  cl_device_id device_ = nullptr;
  cl_context ctx_ = nullptr;
  cl_command_queue queue_ = nullptr;
  std::vector<cl_program> programs_;
  std::vector<cl_kernel> kernels_;
  std::vector<Buf> bufs_;
  std::vector<std::string> sources_;
  std::vector<std::uint8_t> scratch_;
};

// fig4 corpus kernels, barrier and plain clc paths; no checkpoint state
// beyond a few hundred KiB.
std::unique_ptr<App> make_kernels_app(std::uint64_t seed);
// fig7's multi-program shape: 8 separately built programs on one context
// and queue, a few MiB of buffers.
std::unique_ptr<App> make_cycle_app(std::uint64_t seed);
// ~97 MiB of incompressible buffers in store mode; each pass dirties a
// seeded 1 MiB slice.
std::unique_ptr<App> make_bulk_app(std::uint64_t seed);

}  // namespace cb
