// apps.cpp — the benchmark's applications and their host models.
#include "apps.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "clc/program.h"
#include "workloads/fig4_kernels.h"

namespace cb {

// ---- App: shared cl* plumbing ------------------------------------------------

bool App::open(Ledger& led) {
  // A new setup starts from nothing: handles of an earlier one are gone.
  programs_.clear();
  kernels_.clear();
  bufs_.clear();
  sources_.clear();
  if (!led.cl(clGetPlatformIDs(1, &platform_, nullptr), "clGetPlatformIDs"))
    return false;
  if (!led.cl(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device_,
                             nullptr),
              "clGetDeviceIDs"))
    return false;
  cl_int err = CL_SUCCESS;
  ctx_ = clCreateContext(nullptr, 1, &device_, nullptr, nullptr, &err);
  if (!led.cl(err, "clCreateContext")) return false;
  queue_ = clCreateCommandQueue(ctx_, device_, 0, &err);
  return led.cl(err, "clCreateCommandQueue");
}

std::size_t App::build(Ledger& led, const std::string& src,
                       const char* kernel) {
  const char* s = src.c_str();
  cl_int err = CL_SUCCESS;
  cl_program p = clCreateProgramWithSource(ctx_, 1, &s, nullptr, &err);
  led.cl(err, "clCreateProgramWithSource");
  programs_.push_back(p);
  sources_.push_back(src);
  led.cl(clBuildProgram(p, 1, &device_, "", nullptr, nullptr),
         "clBuildProgram");
  kernels_.push_back(clCreateKernel(p, kernel, &err));
  led.cl(err, "clCreateKernel");
  return kernels_.size() - 1;
}

std::size_t App::buffer(Ledger& led, std::vector<std::uint8_t> init) {
  cl_int err = CL_SUCCESS;
  Buf b;
  b.mem = clCreateBuffer(ctx_, CL_MEM_READ_WRITE, init.size(), nullptr, &err);
  led.cl(err, "clCreateBuffer");
  b.model = std::move(init);
  bufs_.push_back(std::move(b));
  return bufs_.size() - 1;
}

bool App::upload(Ledger& led, Io& io, std::size_t b, std::size_t off,
                 std::size_t n) {
  const std::uint64_t t0 = wall_ns();
  const cl_int err = clEnqueueWriteBuffer(queue_, bufs_[b].mem, CL_TRUE, off, n,
                                          bufs_[b].model.data() + off, 0,
                                          nullptr, nullptr);
  io.xfer_ns += wall_ns() - t0;
  io.xfer_bytes += n;
  return led.cl(err, "clEnqueueWriteBuffer");
}

bool App::read_check(Ledger& led, Io& io, std::size_t b, std::size_t off,
                     std::size_t n) {
  if (scratch_.size() < n) scratch_.resize(n);
  const std::uint64_t t0 = wall_ns();
  const cl_int err = clEnqueueReadBuffer(queue_, bufs_[b].mem, CL_TRUE, off, n,
                                         scratch_.data(), 0, nullptr, nullptr);
  io.xfer_ns += wall_ns() - t0;
  io.xfer_bytes += n;
  if (!led.cl(err, "clEnqueueReadBuffer")) return false;
  if (io.corrupt_next_read && n > 0) {
    scratch_[n / 2] ^= 0x5A;
    io.corrupt_next_read = false;
  }
  const std::string diff =
      first_mismatch(scratch_.data(), bufs_[b].model.data() + off, n);
  return led.ok(diff.empty(), "read-back matches host model",
                "buffer " + std::to_string(b) + " @" + std::to_string(off) +
                    ": " + diff);
}

bool App::set_arg(Ledger& led, Io& io, std::size_t k, cl_uint i,
                  std::size_t size, const void* value) {
  const std::uint64_t t0 = wall_ns();
  const cl_int err = clSetKernelArg(kernels_[k], i, size, value);
  if (io.call_ns != nullptr)
    io.call_ns->add(static_cast<double>(wall_ns() - t0));
  return led.cl(err, "clSetKernelArg");
}

bool App::launch(Ledger& led, std::size_t k, const clc::NDRange& nd) {
  return led.cl(clEnqueueNDRangeKernel(queue_, kernels_[k], nd.dim, nullptr, nd.global,
                                       nd.local, 0, nullptr, nullptr),
                "clEnqueueNDRangeKernel");
}

bool App::finish(Ledger& led) { return led.cl(clFinish(queue_), "clFinish"); }

bool App::verify_all(Ledger& led, Io& io) {
  bool good = true;
  for (std::size_t b = 0; b < bufs_.size(); ++b)
    good = read_check(led, io, b, 0, bufs_[b].model.size()) && good;
  return good;
}

std::vector<void**> App::handle_slots() {
  std::vector<void**> s;
  s.push_back(reinterpret_cast<void**>(&platform_));
  s.push_back(reinterpret_cast<void**>(&device_));
  s.push_back(reinterpret_cast<void**>(&ctx_));
  s.push_back(reinterpret_cast<void**>(&queue_));
  for (cl_program& p : programs_) s.push_back(reinterpret_cast<void**>(&p));
  for (cl_kernel& k : kernels_) s.push_back(reinterpret_cast<void**>(&k));
  for (Buf& b : bufs_) s.push_back(reinterpret_cast<void**>(&b.mem));
  return s;
}

void App::release_all() {
  for (cl_kernel k : kernels_) clReleaseKernel(k);
  for (cl_program p : programs_) clReleaseProgram(p);
  for (Buf& b : bufs_) clReleaseMemObject(b.mem);
  if (queue_ != nullptr) clReleaseCommandQueue(queue_);
  if (ctx_ != nullptr) clReleaseContext(ctx_);
  kernels_.clear();
  programs_.clear();
  bufs_.clear();
  queue_ = nullptr;
  ctx_ = nullptr;
}

namespace {

// Runs `l` in-process through clc, updating its storage in place.
bool run_in_process(Launch& l) {
  const clc::CompileResult cr = clc::compile(l.source);
  if (!cr.ok()) return false;
  const clc::FuncDecl* fn = cr.module->find_func(l.kernel);
  if (fn == nullptr) return false;
  for (unsigned r = 0; r < l.reps; ++r)
    if (!clc::execute_ndrange(*cr.module, *fn, l.args, l.nd).ok) return false;
  return true;
}

clc::KernelArg scalar_arg(const void* p, std::size_t n) {
  clc::KernelArg a;
  a.k = clc::KernelArg::K::Bytes;
  a.bytes.assign(static_cast<const std::uint8_t*>(p),
                 static_cast<const std::uint8_t*>(p) + n);
  return a;
}

clc::KernelArg global_arg() {
  clc::KernelArg a;
  a.k = clc::KernelArg::K::GlobalPtr;
  return a;
}

// ---- kernels ------------------------------------------------------------------

// fig4 workloads that are also in the clc corpus.  The first three reach
// barrier() and run one OS thread per work-item; the rest run work-groups
// striped over a thread pool.  Repeat counts keep each path above a third
// of a pass.
struct MixEntry {
  const char* workload;
  unsigned reps;
};
constexpr std::array<MixEntry, 7> kMix = {{
    {"oclReduction", 1},
    {"oclMatrixMul", 1},
    {"oclScanLargeGPU", 1},
    {"oclBlackScholes", 4},
    {"Stencil2D", 4},
    {"MD", 2},
    {"SGEMM", 2},
}};

class KernelsApp final : public App {
 public:
  explicit KernelsApp(std::uint64_t seed) {
    Rng fill = stream(seed, 1);
    for (const MixEntry& m : kMix) {
      const workloads::Fig4Kernel* spec = nullptr;
      for (const workloads::Fig4Kernel& k : workloads::fig4_kernels())
        if (std::string(k.workload) == m.workload) spec = &k;
      Entry e;
      e.spec = spec;
      e.launch.source = spec->source;
      e.launch.kernel = spec->kernel;
      e.launch.barrier = std::string(spec->source).find("barrier(") !=
                         std::string::npos;
      e.launch.reps = m.reps;
      e.launch.nd.dim = spec->dim;
      for (int d = 0; d < 3; ++d) {
        e.launch.nd.global[d] = spec->global[d];
        e.launch.nd.local[d] = spec->local[d];
      }
      e.launch.storage.resize(spec->args.size());
      for (std::size_t ai = 0; ai < spec->args.size(); ++ai) {
        const workloads::Fig4Arg& a = spec->args[ai];
        using K = workloads::Fig4Arg::K;
        switch (a.k) {
          case K::FloatBuf: {
            std::vector<std::uint8_t>& s = e.launch.storage[ai];
            s.resize(a.elems * 4);
            for (std::size_t i = 0; i < a.elems; ++i) {
              const float v = a.lo + (a.hi - a.lo) * fill.unit();
              std::memcpy(s.data() + 4 * i, &v, 4);
            }
            e.launch.args.push_back(global_arg());
            break;
          }
          case K::UintBuf: {
            std::vector<std::uint8_t>& s = e.launch.storage[ai];
            s.resize(a.elems * 4);
            for (std::size_t i = 0; i < a.elems; ++i) {
              const auto v = static_cast<std::uint32_t>(fill.below(100));
              std::memcpy(s.data() + 4 * i, &v, 4);
            }
            e.launch.args.push_back(global_arg());
            break;
          }
          case K::Local: {
            clc::KernelArg l;
            l.k = clc::KernelArg::K::LocalAlloc;
            l.local_bytes = a.elems;
            e.launch.args.push_back(std::move(l));
            break;
          }
          case K::Int:
            e.launch.args.push_back(scalar_arg(&a.i, 4));
            break;
          case K::Float:
            e.launch.args.push_back(scalar_arg(&a.f, 4));
            break;
        }
      }
      e.launch.bind();
      entries_.push_back(std::move(e));
    }
    // Seeded launch order within a pass.
    Rng ord = stream(seed, 2);
    for (std::size_t i = 0; i < entries_.size(); ++i) order_.push_back(i);
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[ord.below(i)]);
    // Host reference: the same launches run in-process through clc.
    for (Entry& e : entries_) {
      e.init = e.launch.storage;
      Launch ref = e.launch;
      ref.bind();
      ref_ok_ = run_in_process(ref) && ref_ok_;
      e.after = std::move(ref.storage);
    }
  }

  bool setup(Ledger& led, Io& io) override {
    if (!led.ok(ref_ok_, "in-process clc reference") || !open(led))
      return false;
    for (Entry& e : entries_) {
      e.kernel = build(led, e.launch.source, e.launch.kernel.c_str());
      e.buf.assign(e.init.size(), SIZE_MAX);
      for (std::size_t ai = 0; ai < e.init.size(); ++ai) {
        if (e.launch.args[ai].k != clc::KernelArg::K::GlobalPtr) continue;
        e.buf[ai] = buffer(led, e.init[ai]);
        if (!upload(led, io, e.buf[ai], 0, e.init[ai].size())) return false;
      }
    }
    return led.failed() == 0;
  }

  bool pass(Ledger& led, Io& io) override {
    bool good = true;
    // Uploads first, so no blocking write waits behind a running kernel.
    for (const std::size_t idx : order_) {
      Entry& e = entries_[idx];
      for (std::size_t ai = 0; ai < e.buf.size(); ++ai) {
        if (e.buf[ai] == SIZE_MAX) continue;
        bufs_[e.buf[ai]].model = e.init[ai];
        good = upload(led, io, e.buf[ai], 0, e.init[ai].size()) && good;
      }
    }
    for (const std::size_t idx : order_) {
      Entry& e = entries_[idx];
      for (std::size_t ai = 0; ai < e.launch.args.size(); ++ai) {
        const clc::KernelArg& a = e.launch.args[ai];
        const auto i = static_cast<cl_uint>(ai);
        switch (a.k) {
          case clc::KernelArg::K::GlobalPtr:
            good = set_mem(led, io, e.kernel, i, e.buf[ai]) && good;
            break;
          case clc::KernelArg::K::LocalAlloc:
            good = set_arg(led, io, e.kernel, i, a.local_bytes, nullptr) && good;
            break;
          default:
            good = set_arg(led, io, e.kernel, i, a.bytes.size(),
                           a.bytes.data()) &&
                   good;
            break;
        }
      }
      for (unsigned r = 0; r < e.launch.reps; ++r)
        good = launch(led, e.kernel, e.launch.nd) && good;
    }
    good = finish(led) && good;
    for (Entry& e : entries_)
      for (std::size_t ai = 0; ai < e.buf.size(); ++ai)
        if (e.buf[ai] != SIZE_MAX) bufs_[e.buf[ai]].model = e.after[ai];
    return good;
  }

  bool check(Ledger& led, Io& io) override {
    bool good = true;
    for (Entry& e : entries_)
      for (std::size_t ai = 0; ai < e.buf.size(); ++ai)
        if (e.buf[ai] != SIZE_MAX && e.spec->args[ai].out)
          good = read_check(led, io, e.buf[ai], 0, e.after[ai].size()) && good;
    return good;
  }

  [[nodiscard]] std::vector<Launch> launches() const override {
    std::vector<Launch> out;
    for (const std::size_t idx : order_) {
      Launch l = entries_[idx].launch;
      l.storage = entries_[idx].init;
      l.bind();
      out.push_back(std::move(l));
    }
    return out;
  }

 private:
  struct Entry {
    const workloads::Fig4Kernel* spec = nullptr;
    Launch launch;
    std::vector<std::vector<std::uint8_t>> init, after;
    std::size_t kernel = 0;
    std::vector<std::size_t> buf;  // arg index -> App buffer (SIZE_MAX: none)
  };
  std::vector<Entry> entries_;
  std::vector<std::size_t> order_;
  bool ref_ok_ = true;
};

// ---- cycle ----------------------------------------------------------------------

class CycleApp final : public App {
 public:
  static constexpr int kPrograms = 8;
  static constexpr std::size_t kItems = 16384;

  explicit CycleApp(std::uint64_t seed) {
    Rng r = stream(seed, 3);
    const std::size_t a_floats = std::size_t{1} << 18;  // 1 MiB
    a_init_.resize(a_floats * 4);
    for (std::size_t i = 0; i < a_floats; ++i) {
      const float v = 2.0f * r.unit() - 1.0f;
      std::memcpy(a_init_.data() + 4 * i, &v, 4);
    }
    b_init_.resize(2u << 20);
    r.fill(b_init_.data(), b_init_.size());
    for (int i = 0; i < kPrograms; ++i) order_.push_back(i);
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[r.below(i)]);
    // Up to 15 groups of items skip their store, so the simulated kernel
    // time (and with it sim_s) is an input of the seed, at no cost in bytes
    // moved.
    n_ = static_cast<cl_int>(kItems - 64 * r.below(16));
    a_after_ = a_init_;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n_); ++i) {
      float v = 0;
      std::memcpy(&v, a_after_.data() + 4 * i, 4);
      for (const int p : order_) v = v * static_cast<float>(p + 2);
      std::memcpy(a_after_.data() + 4 * i, &v, 4);
    }
    nd_.global[0] = kItems;
    nd_.local[0] = 64;
  }

  static std::string source(int i) {
    return "__kernel void k" + std::to_string(i) +
           "(__global float* d, int n) {\n"
           "  int i = get_global_id(0);\n"
           "  if (i < n) d[i] = d[i] * " +
           std::to_string(i + 2) + ".0f;\n}\n";
  }

  bool setup(Ledger& led, Io& io) override {
    if (!open(led)) return false;
    a_ = buffer(led, a_init_);
    b_ = buffer(led, b_init_);
    for (int i = 0; i < kPrograms; ++i)
      k_[i] = build(led, source(i), ("k" + std::to_string(i)).c_str());
    return upload(led, io, a_, 0, a_init_.size()) &&
           upload(led, io, b_, 0, b_init_.size()) && led.failed() == 0;
  }

  bool pass(Ledger& led, Io& io) override {
    bufs_[a_].model = a_init_;
    bool good = upload(led, io, a_, 0, a_init_.size());
    for (const int p : order_) {
      good = set_mem(led, io, k_[p], 0, a_) && good;
      good = set_arg(led, io, k_[p], 1, sizeof n_, &n_) && good;
      good = launch(led, k_[p], nd_) && good;
    }
    good = finish(led) && good;
    bufs_[a_].model = a_after_;
    return good;
  }

  bool check(Ledger& led, Io& io) override {
    return read_check(led, io, a_, 0, a_after_.size());
  }

  [[nodiscard]] std::vector<Launch> launches() const override {
    std::vector<Launch> out;
    for (const int p : order_) {
      Launch l;
      l.source = source(p);
      l.kernel = "k" + std::to_string(p);
      l.nd = nd_;
      l.storage.resize(2);
      l.storage[0] = a_init_;
      l.args.push_back(global_arg());
      l.args.push_back(scalar_arg(&n_, sizeof n_));
      l.bind();
      out.push_back(std::move(l));
    }
    return out;
  }

 private:
  std::vector<std::uint8_t> a_init_, a_after_, b_init_;
  std::vector<int> order_;
  cl_int n_ = 0;  // items the kernels update
  std::size_t a_ = 0, b_ = 0;
  std::size_t k_[kPrograms] = {};
  clc::NDRange nd_;
};

// ---- bulk -----------------------------------------------------------------------

class BulkApp final : public App {
 public:
  static constexpr std::size_t kAlign = 64u << 10;  // snapstore chunk size
  static constexpr std::size_t kSlice = 1u << 20;    // dirtied per pass

  explicit BulkApp(std::uint64_t seed) : steps_(stream(seed, 5)) {
    Rng r = stream(seed, 4);
    // Two 16 MiB buffers fit one 64 MiB shm ring block; the 64 MiB buffer
    // (the NVIDIA device's max allocation) does not and takes the socket.
    for (const std::size_t n : {std::size_t{16} << 20, std::size_t{16} << 20,
                                std::size_t{64} << 20, kSlice}) {
      init_.emplace_back(n);
      r.fill(init_.back().data(), n);
    }
    // The kernel streams all but up to 15 seeded groups of the slice, so
    // the simulated kernel time (and with it sim_s) is an input of the seed.
    nd_.global[0] = kSlice / 4 - 64 * r.below(16);
    nd_.local[0] = 64;
  }

  static constexpr const char* kSource = R"CL(
__kernel void stream(__global const uint* in, __global uint* out, uint off,
                     uint key) {
  uint i = get_global_id(0);
  out[i] = in[off + i] ^ (key + i);
}
)CL";

  bool setup(Ledger& led, Io& io) override {
    if (!open(led)) return false;
    for (const auto& v : init_) {
      const std::size_t b = buffer(led, v);
      if (!upload(led, io, b, 0, v.size())) return false;
    }
    k_ = build(led, kSource, "stream");
    return led.failed() == 0;
  }

  // Dirty a seeded, chunk-aligned 1 MiB slice of a seeded buffer with fresh
  // random bytes, upload it, and stream it through the kernel into `out`.
  bool pass(Ledger& led, Io& io) override {
    const std::size_t t = steps_.below(3);
    const std::size_t off =
        kAlign * steps_.below((bufs_[t].model.size() - kSlice) / kAlign + 1);
    steps_.fill(bufs_[t].model.data() + off, kSlice);
    const auto key = static_cast<cl_uint>(steps_.next());
    const auto off_items = static_cast<cl_uint>(off / 4);
    bool good = upload(led, io, t, off, kSlice);
    good = set_mem(led, io, k_, 0, t) && good;
    good = set_mem(led, io, k_, 1, kOut) && good;
    good = set_arg(led, io, k_, 2, sizeof off_items, &off_items) && good;
    good = set_arg(led, io, k_, 3, sizeof key, &key) && good;
    good = launch(led, k_, nd_) && good;
    good = finish(led) && good;
    std::vector<std::uint8_t>& out = bufs_[kOut].model;
    const std::uint8_t* in = bufs_[t].model.data() + off;
    for (std::size_t i = 0; i < nd_.global[0]; ++i) {
      std::uint32_t v = 0;
      std::memcpy(&v, in + 4 * i, 4);
      v ^= key + static_cast<std::uint32_t>(i);
      std::memcpy(out.data() + 4 * i, &v, 4);
    }
    read_back_ = (read_back_ + 1) % kOut;
    return good;
  }

  // The kernel output plus one whole data buffer: 16 MiB, 16 MiB, then the
  // 64 MiB one that falls back to the socket.
  bool check(Ledger& led, Io& io) override {
    const bool a = read_check(led, io, kOut, 0, kSlice);
    return read_check(led, io, read_back_, 0, bufs_[read_back_].model.size()) &&
           a;
  }

  [[nodiscard]] unsigned rotation() const override { return kOut; }

  [[nodiscard]] std::vector<Launch> launches() const override {
    Launch l;
    l.source = kSource;
    l.kernel = "stream";
    l.nd = nd_;
    l.storage.resize(4);
    l.storage[0].assign(init_[0].begin(), init_[0].begin() + kSlice);
    l.storage[1].resize(kSlice);
    const cl_uint zero = 0;
    l.args.push_back(global_arg());
    l.args.push_back(global_arg());
    l.args.push_back(scalar_arg(&zero, 4));
    l.args.push_back(scalar_arg(&zero, 4));
    l.bind();
    return {l};
  }

 private:
  static constexpr std::size_t kOut = 3;
  std::vector<std::vector<std::uint8_t>> init_;
  Rng steps_;
  std::size_t read_back_ = 0;
  std::size_t k_ = 0;
  clc::NDRange nd_;
};

}  // namespace

std::unique_ptr<App> make_kernels_app(std::uint64_t seed) {
  return std::make_unique<KernelsApp>(seed);
}
std::unique_ptr<App> make_cycle_app(std::uint64_t seed) {
  return std::make_unique<CycleApp>(seed);
}
std::unique_ptr<App> make_bulk_app(std::uint64_t seed) {
  return std::make_unique<BulkApp>(seed);
}

}  // namespace cb
