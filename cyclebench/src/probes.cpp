// probes.cpp — isolated per-module probes of the traced run.
#include "probes.h"

#include <atomic>
#include <filesystem>
#include <thread>

#include "checl/checl.h"
#include "clc/program.h"
#include "core/replay/codec.h"
#include "ipc/shm.h"
#include "proxy/spawn.h"
#include "proxyd/daemon.h"
#include "simcl/progcache.h"
#include "simcl/runtime.h"
#include "snapstore/store.h"
#include "trace.h"

namespace cb::probe {

Spawn spawn(int reps, Ledger& led) {
  Spawn out;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t t0 = wall_ns();
    proxy::Spawned s =
        proxy::spawn_proxy(proxy::Transport::Process,
                           proxy::spawn_options_from_env());
    if (!led.ok(s.ok() && s.client()->ping() == CL_SUCCESS,
                "proxy::spawn_proxy + ping", s.error()))
      continue;
    std::uint64_t t1 = wall_ns();
    trace::record("probe", "proxy::spawn_proxy+ping", t0, t1);
    out.spawn_ns.add(static_cast<double>(t1 - t0));
    for (int i = 0; i < 20; ++i) {
      t0 = wall_ns();
      if (!led.cl(s.client()->ping(), "Client::ping")) break;
      out.ping_ns.add(static_cast<double>(wall_ns() - t0));
    }
  }
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = wall_ns();
    auto seg = ipc::ShmSegment::create(ipc::kShmDefaultRingBytes);
    const std::uint64_t t1 = wall_ns();
    if (!led.ok(seg != nullptr, "ipc::ShmSegment::create")) continue;
    trace::record("probe", "ipc::ShmSegment::create", t0, t1);
    out.shm_create_ns.add(static_cast<double>(t1 - t0));
  }
  return out;
}

Clc clc(const App& app, int reps, Ledger& led) {
  Clc out;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = wall_ns();
    for (const std::string& src : app.sources()) (void)clc::compile(src);
    const std::uint64_t t1 = wall_ns();
    trace::record("probe", "clc::compile", t0, t1);
    out.compile_ns.add(static_cast<double>(t1 - t0));
  }
  std::vector<Launch> ls = app.launches();
  std::vector<clc::CompileResult> mods;
  for (const Launch& l : ls) {
    mods.push_back(clc::compile(l.source));
    led.ok(mods.back().ok() && mods.back().module->find_func(l.kernel),
           "clc::compile", l.kernel);
  }
  for (int r = 0; r < reps; ++r) {
    double barrier = 0, plain = 0;
    std::uint64_t ops = 0;
    // Fresh inputs each rep: in-place kernels must start from the same bytes.
    std::vector<Launch> run = app.launches();
    for (std::size_t i = 0; i < run.size(); ++i) {
      run[i].bind();
      if (!mods[i].ok()) continue;
      const clc::FuncDecl* fn = mods[i].module->find_func(run[i].kernel);
      if (fn == nullptr) continue;
      const std::uint64_t t0 = wall_ns();
      for (unsigned k = 0; k < run[i].reps; ++k) {
        const clc::LaunchResult lr = clc::execute_ndrange(
            *mods[i].module, *fn, run[i].args, run[i].nd);
        led.ok(lr.ok, "clc::execute_ndrange", lr.error);
        ops += lr.ops;
      }
      const std::uint64_t t1 = wall_ns();
      trace::record("probe", "clc::execute_ndrange " + run[i].kernel, t0, t1);
      (run[i].barrier ? barrier : plain) += static_cast<double>(t1 - t0);
    }
    out.barrier_ns.add(barrier);
    out.plain_ns.add(plain);
    out.ops_per_pass = ops;
  }
  return out;
}

Replay replay(int reps, Ledger& led) {
  Replay out;
  auto& rt = checl::CheclRuntime::instance();
  for (int r = 0; r < reps; ++r) {
    std::uint64_t t0 = wall_ns();
    const std::vector<std::uint8_t> bytes = checl::replay::encode_db(rt.db());
    std::uint64_t t1 = wall_ns();
    trace::record("probe", "replay::encode_db", t0, t1, bytes.size());
    out.encode_ns.add(static_cast<double>(t1 - t0));
    checl::ObjectDB scratch;
    t0 = wall_ns();
    checl::replay::DecodeResult d = checl::replay::decode_db(bytes, scratch);
    t1 = wall_ns();
    if (led.ok(d.ok, "replay::decode_db", d.error)) {
      trace::record("probe", "replay::decode_db", t0, t1, bytes.size());
      out.decode_ns.add(static_cast<double>(t1 - t0));
    }
    checl::replay::destroy_decoded(scratch, d.created);
  }
  return out;
}

Storage storage(const slimcr::Snapshot& a, const slimcr::Snapshot& b,
                const std::string& dir, int reps, Ledger& led) {
  Storage out;
  const slimcr::StorageModel disk = slimcr::local_disk();
  std::filesystem::remove_all(dir);
  {
    snapstore::Store st;
    if (!led.ok(st.open(dir + "/store").ok(), "snapstore::Store::open") ||
        !led.ok(st.put("m", a, disk).status.ok(), "StoreIface::put"))
      return out;
    std::uint64_t hits = 0, offered = 0, stored = 0, raw = 0;
    for (int r = 0; r < reps; ++r) {
      const slimcr::Snapshot& s = r % 2 == 0 ? b : a;
      const std::uint64_t t0 = wall_ns();
      const snapstore::PutResult pr = st.put("m", s, disk);
      const std::uint64_t t1 = wall_ns();
      if (!led.ok(pr.status.ok(), "StoreIface::put", pr.status.message))
        continue;
      trace::record("probe", "StoreIface::put", t0, t1, pr.raw_bytes);
      out.put_ns.add(static_cast<double>(t1 - t0));
      hits += pr.dedup_hits;
      offered += pr.dedup_hits + pr.new_chunks;
      stored += pr.stored_bytes;
      raw += pr.raw_bytes;
    }
    for (int r = 0; r < reps; ++r) {
      slimcr::Snapshot back;
      const std::uint64_t t0 = wall_ns();
      const snapstore::GetResult gr = st.get("m", back, disk);
      const std::uint64_t t1 = wall_ns();
      if (!led.ok(gr.status.ok(), "StoreIface::get", gr.status.message))
        continue;
      trace::record("probe", "StoreIface::get", t0, t1, gr.raw_bytes);
      out.get_ns.add(static_cast<double>(t1 - t0));
    }
    if (offered > 0)
      out.dedup_ratio = static_cast<double>(hits) / static_cast<double>(offered);
    if (raw > 0)
      out.stored_per_raw = static_cast<double>(stored) / static_cast<double>(raw);
  }
  const std::string file = dir + "/probe.slimcr";
  for (int r = 0; r < reps; ++r) {
    std::uint64_t t0 = wall_ns();
    const slimcr::IoResult w = b.save(file, disk);
    std::uint64_t t1 = wall_ns();
    if (!led.ok(w.ok, "slimcr::Snapshot::save", w.error)) continue;
    trace::record("probe", "slimcr::Snapshot::save", t0, t1, w.bytes);
    out.save_ns.add(static_cast<double>(t1 - t0));
    slimcr::Snapshot back;
    t0 = wall_ns();
    const slimcr::IoResult rd = back.load(file, disk);
    t1 = wall_ns();
    if (!led.ok(rd.ok, "slimcr::Snapshot::load", rd.error)) continue;
    trace::record("probe", "slimcr::Snapshot::load", t0, t1, rd.bytes);
    out.load_ns.add(static_cast<double>(t1 - t0));
  }
  std::filesystem::remove_all(dir);
  return out;
}

Samples native_pass(App& app, const checl::NodeConfig& node, double seconds,
                    Ledger& led) {
  Samples out;
  simcl::ProgCache::instance().reset();
  simcl::ProgCache::instance().configure(node.clc_cache);
  simcl::Runtime::instance().configure(node.platforms);
  simcl::Runtime::instance().clock().reset();
  checl::bind_native();
  Io io;
  if (app.setup(led, io)) {
    const std::uint64_t end =
        wall_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    while (out.size() < 3 || (wall_ns() < end && out.size() < 200)) {
      const std::uint64_t t0 = wall_ns();
      if (!app.pass(led, io)) break;
      const std::uint64_t t1 = wall_ns();
      out.add(static_cast<double>(t1 - t0));
      if (!app.check(led, io)) break;
    }
  }
  app.release_all();
  return out;
}

namespace {

constexpr const char* kTenantKernel = R"CL(
__kernel void mix(__global uint* d, uint x) {
  uint i = get_global_id(0);
  d[i] = d[i] ^ (x + i);
}
)CL";

// One tenant's closed loop; returns loops completed, 0 on any failure.
std::uint64_t tenant(const std::string& socket, std::uint64_t end,
                     std::uint64_t seed, Ledger& led, std::mutex& led_mu) {
  const auto fail = [&](cl_int err, const char* what) {
    std::lock_guard<std::mutex> lk(led_mu);
    return !led.cl(err, what);
  };
  proxy::SpawnOptions so;
  so.daemon_socket = socket;
  so.shm_ring_bytes = 1u << 20;
  proxy::Spawned s = proxy::spawn_proxy(proxy::Transport::Daemon, so);
  if (fail(s.ok() ? CL_SUCCESS : CL_DEVICE_NOT_AVAILABLE, "tenant attach"))
    return 0;
  proxy::Client& c = *s.client();
  proxy::IpcCosts costs;
  costs.spawn_ns = 0;
  std::vector<proxy::RemoteHandle> plats, devs;
  cl_uint total = 0;
  proxy::RemoteHandle ctx = 0, q = 0, buf = 0, prog = 0, k = 0, ev = 0;
  constexpr std::size_t kBytes = 256u << 10;  // fits the tenant's ring
  constexpr std::size_t kItems = 1024;
  if (fail(c.configure(simcl::default_platforms(), costs, true), "configure") ||
      fail(c.get_platform_ids(1, plats, total), "get_platform_ids") ||
      fail(plats.empty() ? CL_INVALID_PLATFORM : CL_SUCCESS, "a platform") ||
      fail(c.get_device_ids(plats[0], CL_DEVICE_TYPE_GPU, 1, devs, total),
           "get_device_ids") ||
      fail(devs.empty() ? CL_DEVICE_NOT_FOUND : CL_SUCCESS, "a GPU device") ||
      fail(c.create_context({}, devs, ctx), "create_context") ||
      fail(c.create_queue(ctx, devs[0], 0, q), "create_queue") ||
      fail(c.create_buffer(ctx, CL_MEM_READ_WRITE, kBytes, {}, buf),
           "create_buffer") ||
      fail(c.create_program_with_source(ctx, kTenantKernel, prog),
           "create_program_with_source") ||
      fail(c.build_program(prog, devs, ""), "build_program") ||
      fail(c.create_kernel(prog, "mix", k), "create_kernel"))
    return 0;
  Rng rng(seed);
  std::vector<std::uint8_t> data(kBytes), back(kBytes);
  std::uint64_t loops = 0;
  const std::size_t global[1] = {kItems}, local[1] = {64};
  while (wall_ns() < end) {
    rng.fill(data.data(), data.size());
    const auto x = static_cast<std::uint32_t>(rng.next());
    if (fail(c.ping(), "ping") ||
        fail(c.set_kernel_arg_mem(k, 0, buf), "set_kernel_arg_mem") ||
        fail(c.set_kernel_arg_bytes(
                 k, 1, {reinterpret_cast<const std::uint8_t*>(&x), 4}),
             "set_kernel_arg_bytes") ||
        fail(c.enqueue_write(q, buf, 0, data, false, ev), "enqueue_write") ||
        fail(c.enqueue_ndrange(q, k, 1, nullptr, global, local, false, ev),
             "enqueue_ndrange") ||
        fail(c.finish(q), "finish") ||
        fail(c.enqueue_read(q, buf, 0, kBytes, back.data(), false, ev),
             "enqueue_read"))
      return 0;
    for (std::size_t i = 0; i < kItems; ++i) {
      std::uint32_t v = 0;
      std::memcpy(&v, data.data() + 4 * i, 4);
      v ^= x + static_cast<std::uint32_t>(i);
      std::memcpy(data.data() + 4 * i, &v, 4);
    }
    std::lock_guard<std::mutex> lk(led_mu);
    if (!led.ok(first_mismatch(back.data(), data.data(), kBytes).empty(),
                "tenant read-back matches host model"))
      return 0;
    ++loops;
  }
  return loops;
}

}  // namespace

Tenants tenants(const std::string& socket, double seconds, std::uint64_t seed,
                Ledger& led) {
  Tenants out;
  proxyd::Daemon d(socket, proxyd::Options{});
  if (!led.ok(d.ok(), "proxyd::Daemon listen", d.error())) return out;
  std::thread loop([&d] { d.run(); });
  std::mutex led_mu;
  std::atomic<std::uint64_t> loops{0};
  const std::uint64_t end =
      wall_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> ts;
  for (int i = 0; i < 3; ++i)
    ts.emplace_back([&, i] {
      loops += tenant(socket, end, seed + static_cast<std::uint64_t>(i), led,
                      led_mu);
    });
  for (std::thread& t : ts) t.join();
  const proxyd::Stats st = d.stats();
  d.stop();
  loop.join();
  out.loops = loops.load();
  if (st.reply_flushes > 0)
    out.calls_per_flush =
        static_cast<double>(st.calls) / static_cast<double>(st.reply_flushes);
  if (st.sched_rounds > 0)
    out.calls_per_round =
        static_cast<double>(st.calls) / static_cast<double>(st.sched_rounds);
  return out;
}

}  // namespace cb::probe
