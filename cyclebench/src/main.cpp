// main.cpp — the CheCL cycle benchmark.
//
//   cyclebench --workload kernels|cycle|bulk --seed N --seconds S
//              --trace 0|1 --root DIR [--trace-out FILE] [--corrupt-readback]
//
// Drives the paper's cycle — run, checkpoint, kill + restart, migrate to
// another node — through the public CheCL API on the production Process
// transport (a forked checl_proxyd), timed in wall time.  Every timing
// metric is the median of many samples of its op inside one run.  With
// --trace 1 the same cycle runs once untraced and once under a timing
// dispatch table, followed by isolated per-module probes; the per-layer
// numbers, their sample counts and tails, and the tracing overhead go to
// stdout and (as Chrome trace-event JSON) to --trace-out.
//
// The last stdout line is one JSON object with every metric, its unit and
// its clock ("wall", "sim" or "count").  Exit status is non-zero when any op
// failed or any read-back differed from the host model.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <utility>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps.h"
#include "bench.h"
#include "checl/checl.h"
#include "checl/cl_ext.h"
#include "ipc/shm.h"
#include "probes.h"
#include "proxy/spawn.h"
#include "trace.h"

extern char** environ;

namespace cb {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;
  std::string trace_out;
  bool corrupt = false;
};

struct Target {
  checl::NodeConfig node;
  cl_device_type type;
  const char* label;
};

// A workload: the application, its checkpoint mode, and the op schedule of
// one period of the timed loop.
struct Workload {
  const char* name;
  std::unique_ptr<App> (*make)(std::uint64_t);
  // Snapstore-backed checkpoints, one after every pass; else flat slimcr
  // checkpoints, one before each restart.
  bool store;
  int passes_before_restart;
  int passes_before_migrate;
  std::vector<Target> targets;  // migration targets, in turn
};

Target gpu(checl::NodeConfig n, const char* label) {
  return {std::move(n), CL_DEVICE_TYPE_GPU, label};
}
Target cpu(checl::NodeConfig n, const char* label) {
  return {std::move(n), CL_DEVICE_TYPE_CPU, label};
}

std::vector<Workload> workloads() {
  const std::vector<Target> three = {gpu(checl::amd_node(), "amd-gpu"),
                                     cpu(checl::amd_node(), "amd-cpu"),
                                     gpu(checl::nvidia_node(), "nvidia-gpu")};
  return {
      // Passes are most of kernels' wall time; restart and migrate are rare.
      {"kernels", make_kernels_app, false, 6, 6, three},
      {"cycle", make_cycle_app, false, 1, 0, three},
      // The 64 MiB buffer exceeds the AMD GPU's 16 MiB max allocation, so
      // bulk migrates between the NVIDIA GPU and the AMD node's CPU device.
      {"bulk", make_bulk_app, true, 3, 3,
       {cpu(checl::amd_node(), "amd-cpu"),
        gpu(checl::nvidia_node(), "nvidia-gpu")}},
  };
}

// Client and channel counters of the current proxy connection.
struct Counters {
  std::uint64_t rpcs = 0, syscalls = 0, fallbacks = 0, socket_bytes = 0;
  void add(const Counters& now, const Counters& before) {
    fallbacks += now.fallbacks - before.fallbacks;
    socket_bytes += now.socket_bytes - before.socket_bytes;
  }
};

// Samples and counters of one timed loop.
struct Phase {
  Samples iter_ns, call_ns, xfer_mib_s, ckpt_ns, restart_ns, migrate_ns;
  // iter_ns split by position: the first pass on a freshly spawned proxy
  // (after setup, restart or migrate) and the passes after it.
  Samples first_iter_ns, later_iter_ns;
  std::uint64_t xfer_bytes = 0, xfer_ns = 0;  // of the open xfer_mib_s sample
  Samples stored_bytes, pause_sim_ns, restart_sim_ns, read_sim_ns, spawn_sim_ns;
  std::array<Samples, checl::kNumObjTypes> class_sim_ns;
  double period_sim_ns = 0;  // simulated time of the first whole period
  bool period_done = false;
  // Counter deltas (traced run).
  std::uint64_t passes = 0, pass_rpcs = 0, pass_syscalls = 0;
  // Client-side bulk-plane counters over every op of the loop: payloads
  // that found the shm ring full, and bytes that rode the socket.
  Counters bulk;
  Samples restart_rpcs, waves, rollbacks;
  std::uint64_t child_hwm_kib = 0;
};

struct Run {
  Options opt;
  Workload w;
  Ledger led;
  std::unique_ptr<App> app;
  std::string ckpt;  // flat checkpoint file, or the store manifest name
  std::size_t next_target = 0;
  int setups = 0;  // each setup gets its own store directory
  bool corrupt_armed = false;  // --corrupt-readback, for the next timed pass
  bool fresh_proxy = false;    // no pass has run on the current proxy yet
  Samples setup_ns, cold_ckpt_ns;
  std::uint64_t sim_acc = 0;  // simulated time accumulated in a period
};

checl::CheclRuntime& rt() { return checl::CheclRuntime::instance(); }

std::uint64_t sim_now() {
  cl_ulong t = 0;
  clSimGetHostTimeNS(&t);
  return t;
}

void configure(Run& r, const Target& t) {
  rt().set_node(t.node);
  rt().store_checkpoints = r.w.store;
  rt().store_root = r.opt.root + "/store-" + std::to_string(r.setups);
  rt().checkpoint_path = r.opt.root + "/checl.ckpt";
  rt().retarget_device_type = t.type;
}

std::uint64_t status_kib(pid_t pid, const char* key) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind(key, 0) == 0)
      return std::strtoull(line.c_str() + std::strlen(key), nullptr, 10);
  return 0;
}

Counters counters() {
  Counters c;
  if (proxy::Client* cl = rt().client(); cl != nullptr) {
    c.rpcs = cl->stats().rpc_roundtrips;
    const ipc::ChannelStats s = cl->channel_stats();
    c.syscalls = s.sys_sends + s.sys_reads;
    c.fallbacks = s.shm_fallbacks;
    // The socket counters see only the 16-byte descriptor of a payload
    // that went through the shm ring, so they are the socket's bytes.
    c.socket_bytes = s.bytes_sent + s.bytes_recvd;
  }
  return c;
}

bool checkpoint(Run& r, Phase& ph, checl::cpr::PhaseTimes* out = nullptr) {
  checl::cpr::PhaseTimes pt;
  const Counters c0 = counters();
  const std::uint64_t t0 = wall_ns();
  cl_int err = CL_SUCCESS;
  {
    trace::Scope s("cpr", "Engine::checkpoint");
    err = rt().engine().checkpoint(r.ckpt, &pt);
  }
  const std::uint64_t t1 = wall_ns();
  ph.bulk.add(counters(), c0);
  if (!r.led.cl(err, "Engine::checkpoint")) {
    std::fprintf(stderr, "  %s\n", rt().engine().last_error().c_str());
    return false;
  }
  ph.ckpt_ns.add(static_cast<double>(t1 - t0));
  ph.stored_bytes.add(static_cast<double>(pt.file_bytes));
  ph.pause_sim_ns.add(static_cast<double>(pt.pause_ns()));
  r.sim_acc += pt.pause_ns();
  if (out != nullptr) *out = pt;
  return true;
}

void add_breakdown(Phase& ph, const checl::cpr::RestartBreakdown& bd) {
  ph.restart_sim_ns.add(static_cast<double>(bd.total_ns()));
  ph.read_sim_ns.add(static_cast<double>(bd.read_ns));
  ph.spawn_sim_ns.add(static_cast<double>(bd.spawn_ns));
  for (std::size_t i = 0; i < checl::kNumObjTypes; ++i)
    ph.class_sim_ns[i].add(static_cast<double>(bd.class_ns[i]));
}

bool verify_all(Run& r) {
  Io io;
  const std::uint64_t s0 = sim_now();
  const bool ok = r.app->verify_all(r.led, io);
  r.sim_acc += sim_now() - s0;
  return ok;
}

bool forked_proxy(Run& r) {
  return r.led.ok(rt().proxy_pid() > 0, "proxy is a forked checl_proxyd",
                  "CheclRuntime::proxy_pid() = " +
                      std::to_string(rt().proxy_pid()));
}

// One pass + read-back check, and the checkpoint that follows it on
// checkpoint-every-pass workloads.
bool pass(Run& r, Phase& ph) {
  Io io;
  io.call_ns = &ph.call_ns;
  io.corrupt_next_read = std::exchange(r.corrupt_armed, false);
  const Counters c0 = counters();
  const std::uint64_t s0 = sim_now();
  const std::uint64_t t0 = wall_ns();
  bool ok = r.app->pass(r.led, io);
  const std::uint64_t t1 = wall_ns();
  trace::record("app", "pass", t0, t1);
  ok = r.app->check(r.led, io) && ok;
  r.sim_acc += sim_now() - s0;
  ph.iter_ns.add(static_cast<double>(t1 - t0));
  (std::exchange(r.fresh_proxy, false) ? ph.first_iter_ns : ph.later_iter_ns)
      .add(static_cast<double>(t1 - t0));
  const Counters c1 = counters();
  ++ph.passes;
  // One bandwidth sample per read-back rotation, so every sample carries
  // the same mix of transfer sizes.
  ph.xfer_bytes += io.xfer_bytes;
  ph.xfer_ns += io.xfer_ns;
  if (ph.passes % r.app->rotation() == 0 && ph.xfer_ns > 0) {
    ph.xfer_mib_s.add(static_cast<double>(ph.xfer_bytes) / kMiB /
                      (static_cast<double>(ph.xfer_ns) / 1e9));
    ph.xfer_bytes = ph.xfer_ns = 0;
  }
  // Two clock reads bracket every pass; they are not the app's RPCs.
  ph.pass_rpcs += c1.rpcs - c0.rpcs - 2;
  ph.pass_syscalls += c1.syscalls - c0.syscalls;
  ph.bulk.add(c1, c0);
  if (r.w.store) ok = checkpoint(r, ph) && ok;
  return ok;
}

bool restart(Run& r, Phase& ph) {
  const checl::replay::ExecCounters e0 = rt().engine().restore_counters();
  checl::cpr::RestartBreakdown bd;
  const std::uint64_t t0 = wall_ns();
  cl_int err = CL_SUCCESS;
  {
    trace::Scope s("core", "CheclRuntime::kill_proxy");
    rt().kill_proxy();
  }
  {
    trace::Scope s("cpr", "Engine::restart_in_place");
    err = rt().engine().restart_in_place(r.ckpt, std::nullopt, &bd);
  }
  const std::uint64_t t1 = wall_ns();
  if (!r.led.cl(err, "Engine::restart_in_place")) {
    std::fprintf(stderr, "  %s\n", rt().engine().last_error().c_str());
    return false;
  }
  ph.restart_ns.add(static_cast<double>(t1 - t0));
  add_breakdown(ph, bd);
  r.sim_acc += bd.total_ns();
  r.fresh_proxy = true;
  const checl::replay::ExecCounters& e1 = rt().engine().restore_counters();
  ph.waves.add(static_cast<double>(e1.waves - e0.waves));
  ph.rollbacks.add(static_cast<double>(e1.rollbacks - e0.rollbacks));
  // The respawned proxy's channel has carried exactly the restart's traffic.
  ph.restart_rpcs.add(static_cast<double>(counters().rpcs));
  ph.bulk.add(counters(), {});
  return forked_proxy(r) && verify_all(r);
}

bool migrate(Run& r, Phase& ph) {
  const Target& tg = r.w.targets[r.next_target++ % r.w.targets.size()];
  std::vector<void**> slots = r.app->handle_slots();
  std::vector<std::uint64_t> ids;
  for (void** s : slots) ids.push_back(static_cast<checl::Object*>(*s)->id);
  const std::uint64_t t0 = wall_ns();
  checl::cpr::PhaseTimes pt;
  if (!checkpoint(r, ph, &pt)) return false;
  {
    trace::Scope s("core", "CheclRuntime::reset_all");
    rt().reset_all();
  }
  configure(r, tg);
  checl::cpr::RestartBreakdown bd;
  std::unordered_map<std::uint64_t, checl::Object*> map;
  cl_int err = CL_SUCCESS;
  {
    trace::Scope s("cpr", "Engine::restore_fresh");
    err = rt().engine().restore_fresh(r.ckpt, std::nullopt, &bd, &map);
  }
  bool rebound = err == CL_SUCCESS;
  for (std::size_t i = 0; rebound && i < slots.size(); ++i) {
    const auto it = map.find(ids[i]);
    rebound = it != map.end();
    if (rebound) *slots[i] = it->second;
  }
  const std::uint64_t t1 = wall_ns();
  if (!r.led.cl(err, "Engine::restore_fresh")) {
    std::fprintf(stderr, "  %s\n", rt().engine().last_error().c_str());
    return false;
  }
  if (!r.led.ok(rebound, "rebind handles from the restore map")) return false;
  ph.migrate_ns.add(static_cast<double>(t1 - t0));
  r.fresh_proxy = true;
  ph.bulk.add(counters(), {});
  add_breakdown(ph, bd);
  r.sim_acc += bd.total_ns();
  const checl::replay::ExecCounters& e = rt().engine().restore_counters();
  ph.waves.add(static_cast<double>(e.waves));
  ph.rollbacks.add(static_cast<double>(e.rollbacks));
  return forked_proxy(r) && verify_all(r);
}

// From a fresh "process" to the first timed op: proxy spawn, platform
// bring-up, program builds, initial uploads (and, in store mode, the first
// full checkpoint).  Repeated; the last setup stays live for the loop.
bool setup(Run& r, int reps, Phase& scratch) {
  for (int i = 0; i < reps; ++i) {
    rt().reset_all();
    // A fresh, empty store per setup: deleting the previous one here would
    // put its unlinks inside the next setup's timed window.
    ++r.setups;
    configure(r, r.w.targets.back());
    r.next_target = 0;
    Io io;
    const std::uint64_t t0 = wall_ns();
    bool ok = r.app->setup(r.led, io);
    const std::uint64_t t1 = wall_ns();
    if (ok && (r.w.store || trace::active())) {
      // The first checkpoint of a fresh process writes every chunk.
      ok = checkpoint(r, scratch);
      if (trace::active()) r.cold_ckpt_ns.add(static_cast<double>(wall_ns() - t1));
    }
    const std::uint64_t t2 = wall_ns();
    std::printf("setup %d: app %.4f s, first checkpoint %.4f s\n", i,
                static_cast<double>(t1 - t0) / 1e9,
                static_cast<double>(t2 - t1) / 1e9);
    if (!ok || !forked_proxy(r)) return false;
    r.setup_ns.add(static_cast<double>((r.w.store ? t2 : t1) - t0));
    r.fresh_proxy = true;
  }
  // Drop the earlier setups' stores now, before the warm-up, so their
  // writeback does not land in the timed loop.
  for (int i = r.setups - reps + 1; i < r.setups; ++i)
    std::filesystem::remove_all(r.opt.root + "/store-" + std::to_string(i));
  return true;
}

// One period of the schedule: passes, restart, passes, migrate.
bool period(Run& r, Phase& ph, const std::function<bool()>& more) {
  bool ok = true;
  r.sim_acc = 0;
  for (int i = 0; i < r.w.passes_before_restart && more(); ++i)
    ok = pass(r, ph) && ok;
  if (!r.w.store && more()) ok = checkpoint(r, ph) && ok;
  if (more()) ok = restart(r, ph) && ok;
  for (int i = 0; i < r.w.passes_before_migrate && more(); ++i)
    ok = pass(r, ph) && ok;
  return more() && migrate(r, ph) && ok;
}

// One untimed warm-up period, then periods until `seconds` elapse; at least
// one whole timed period runs, and its simulated time is kept.
bool loop(Run& r, Phase& ph, double seconds) {
  Phase warm;
  bool ok = period(r, warm, [] { return true; });
  r.corrupt_armed = r.opt.corrupt;
  const std::uint64_t end = wall_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  const auto more = [&] { return ok && (!ph.period_done || wall_ns() < end); };
  while (more()) {
    const bool whole = period(r, ph, more);
    ok = ok && (whole || !more());
    if (whole && !ph.period_done) {
      ph.period_sim_ns = static_cast<double>(r.sim_acc);
      ph.period_done = true;
    }
  }
  if (rt().proxy_pid() > 0)
    ph.child_hwm_kib = status_kib(rt().proxy_pid(), "VmHWM:");
  // The application's own final verification of every buffer.
  return verify_all(r) && ok;
}

// ---- reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* clock;  // wall | sim | count
  std::size_t samples;
  double tail_pct = 0, tail = 0;
};

Metric timing(std::string name, const Samples& s, double scale,
              const char* unit, const char* clock = "wall") {
  Metric m{std::move(name), s.median() / scale, unit, clock, s.size()};
  s.tail(&m.tail_pct, &m.tail);
  m.tail /= scale;
  return m;
}

Metric value(std::string name, double v, const char* unit, const char* clock,
             std::size_t samples = 1) {
  return {std::move(name), v, unit, clock, samples};
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o.precision(10);
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
      << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
      << "\", \"clock\": \"" << m.clock << "\", \"samples\": " << m.samples;
    if (m.tail_pct > 0) o << ", \"tail_pct\": " << m.tail_pct << ", \"tail\": " << m.tail;
    o << "}";
  }
  o << "}";
  return o.str();
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-36s %14.4f %-7s %-5s n=%zu", m.name.c_str(), m.value,
                m.unit, m.clock, m.samples);
    if (m.tail_pct > 0) std::printf("  p%g=%.4f", m.tail_pct, m.tail);
    std::printf("\n");
  }
}

// Whether the first pass on a fresh proxy runs slower than the rest.
void print_positions(const Phase& ph) {
  std::printf("  iter_ms by position: first pass on a fresh proxy %.4f (n=%zu), "
              "later passes %.4f (n=%zu)\n",
              ph.first_iter_ns.median() / 1e6, ph.first_iter_ns.size(),
              ph.later_iter_ns.median() / 1e6, ph.later_iter_ns.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<Metric> end_to_end(const Run& r, const Phase& ph) {
  return {
      timing("setup_s", r.setup_ns, 1e9, "s"),
      timing("iter_ms", ph.iter_ns, 1e6, "ms"),
      timing("call_us", ph.call_ns, 1e3, "us"),
      timing("xfer_mib_s", ph.xfer_mib_s, 1.0, "MiB/s"),
      timing("ckpt_ms", ph.ckpt_ns, 1e6, "ms"),
      timing("restart_ms", ph.restart_ns, 1e6, "ms"),
      timing("migrate_ms", ph.migrate_ns, 1e6, "ms"),
      value("stored_mib", ph.stored_bytes.median() / kMiB, "MiB", "count",
            ph.stored_bytes.size()),
      value("sim_s", ph.period_sim_ns / 1e9, "s", "sim"),
      value("peak_rss_mib", peak_rss_mib(), "MiB", "count"),
  };
}

slimcr::Snapshot current_snapshot(Run& r) {
  slimcr::Snapshot s;
  if (r.w.store) {
    if (snapstore::StoreIface* st = rt().engine().store(); st != nullptr)
      (void)st->get(r.ckpt, s, slimcr::local_disk());
  } else {
    (void)s.load(r.ckpt, slimcr::local_disk());
  }
  return s;
}

std::string config_json(const Run& r) {
  const proxy::SpawnOptions so = proxy::spawn_options_from_env();
  const checl::CheclRuntime& c = rt();
  std::ostringstream o;
  o << "{\"workload\": \"" << r.w.name << "\", \"seed\": " << r.opt.seed
    << ", \"seconds\": " << r.opt.seconds << ", \"transport\": \"process\""
    << ", \"proxyd\": \"" << proxy::find_proxyd() << "\""
    << ", \"shm\": " << (so.use_shm ? "true" : "false")
    << ", \"shm_ring_bytes\": " << so.shm_ring_bytes
    << ", \"shm_threshold\": " << so.shm_threshold
    << ", \"writev\": " << (so.use_writev ? "true" : "false")
    // Defaults: run() refused every CHECL_* override that changes them.
    << ", \"ipc_batch\": false, \"clc_engine\": \"auto\""
    << ", \"clc_cache\": \"memory\", \"checkpoints\": \""
    << (r.w.store ? "snapstore" : "flat slimcr") << "\""
    << ", \"live_checkpoints\": " << (c.live_checkpoints ? "true" : "false")
    << ", \"snap_shards\": 0, \"restore_parallel\": "
    << (c.restore_parallel ? "true" : "false")
    << ", \"restore_workers\": " << c.restore_workers << ", \"targets\": [";
  for (std::size_t i = 0; i < r.w.targets.size(); ++i)
    o << (i ? ", " : "") << "\"" << r.w.targets[i].label << "\"";
  o << "]}";
  return o.str();
}

constexpr int kSetups = 5;

// One share of an end-to-end median that probe medians account for.
struct Share {
  const char* name;
  const char* parts;
  double part;
  const char* whole;
  double base;
};

// The traced run: an untraced half and a traced half of the cycle (their
// difference is the tracing overhead), then the isolated probes.
bool traced_run(Run& r, std::vector<Metric>* out) {
  Phase cold, untraced, traced;
  bool ok = setup(r, 1, cold) && loop(r, untraced, r.opt.seconds / 2);
  trace::on();
  ok = ok && setup(r, kSetups, cold) && loop(r, traced, r.opt.seconds / 2);
  const std::vector<Metric> base = end_to_end(r, untraced);
  const std::vector<Metric> with = end_to_end(r, traced);
  // Two consecutive checkpoints of the traced loop feed the storage probes.
  slimcr::Snapshot s0 = current_snapshot(r);
  Phase extra;
  ok = ok && pass(r, extra) && checkpoint(r, extra);
  slimcr::Snapshot s1 = current_snapshot(r);
  const probe::Replay rp = probe::replay(10, r.led);
  const probe::Storage sp = probe::storage(s0, s1, r.opt.root + "/probe", 6, r.led);
  s0.clear();
  s1.clear();
  const probe::Clc cp = probe::clc(*r.app, 5, r.led);
  Samples native;
  {
    std::unique_ptr<App> twin = r.w.make(r.opt.seed);
    native = probe::native_pass(*twin, r.w.targets.back().node, 1.0, r.led);
  }
  trace::on();
  rt().reset_all();  // the loop's proxy is not needed past this point
  const probe::Spawn spp = probe::spawn(8, r.led);
  const probe::Tenants tp =
      // Relative to the run root (the cwd): a unix socket path must stay
      // under 108 bytes wherever the checkout lives.
      probe::tenants("proxyd.sock", 1.0, r.opt.seed, r.led);
  trace::off();

  const auto med = [](const std::vector<Metric>& v, const std::string& n) {
    for (const Metric& m : v)
      if (m.name == n) return m.value;
    return 0.0;
  };
  const std::uint64_t ring = ipc::kShmDefaultRingBytes;
  const std::uint64_t thr = ipc::kShmDefaultThreshold;
  const Samples finish = trace::durations("clFinish");
  const double spawn_ms = spp.spawn_ns.median() / 1e6;
  const double compile_ms = cp.compile_ns.median() / 1e6;
  const double encode_ms = rp.encode_ns.median() / 1e6;
  const double decode_ms = rp.decode_ns.median() / 1e6;
  const double write_ms =
      (r.w.store ? sp.put_ns : sp.save_ns).median() / 1e6;
  const double read_ms = (r.w.store ? sp.get_ns : sp.load_ns).median() / 1e6;
  const Share shares[] = {
      {"share.spawn_of_restart", "proxy.spawn_ms", spawn_ms, "restart_ms",
       med(with, "restart_ms")},
      {"share.finish_of_iter", "core.wrapper.finish_ms",
       finish.median() / 1e6, "iter_ms", med(with, "iter_ms")},
      {"share.kernels_of_iter", "clc.barrier_kernel_ms + clc.plain_kernel_ms",
       (cp.barrier_ns.median() + cp.plain_ns.median()) / 1e6, "iter_ms",
       med(with, "iter_ms")},
      {"share.probes_of_ckpt", "encode + storage write", encode_ms + write_ms,
       "ckpt_ms", med(with, "ckpt_ms")},
      {"share.probes_of_restart", "spawn + compile + storage read + decode",
       spawn_ms + compile_ms + read_ms + decode_ms, "restart_ms",
       med(with, "restart_ms")},
      {"share.probes_of_migrate",
       "encode + storage write + spawn + compile + storage read + decode",
       encode_ms + write_ms + spawn_ms + compile_ms + read_ms + decode_ms,
       "migrate_ms", med(with, "migrate_ms")},
      {"share.probes_of_setup", "spawn + compile", spawn_ms + compile_ms,
       "setup_s (ms)", med(with, "setup_s") * 1e3},
  };

  const auto ms = [](std::string n, const Samples& v) {
    return timing(std::move(n), v, 1e6, "ms");
  };
  const auto sim_ms = [](std::string n, const Samples& v) {
    return timing(std::move(n), v, 1e6, "ms", "sim");
  };
  const auto us = [](std::string n, const Samples& v) {
    return timing(std::move(n), v, 1e3, "us");
  };
  const auto mib_s = [](std::string n, const char* call, std::uint64_t lo,
                        std::uint64_t hi) {
    return timing(std::move(n), trace::bandwidth(call, lo, hi), 1.0, "MiB/s");
  };
  const auto count = [](std::string n, double v, std::size_t samples = 1) {
    return value(std::move(n), v, "count", "count", samples);
  };
  const auto per = [](std::uint64_t n, std::uint64_t d) {
    return static_cast<double>(n) / static_cast<double>(std::max<std::uint64_t>(1, d));
  };
  const char* kWrite = "clEnqueueWriteBuffer";
  const char* kRead = "clEnqueueReadBuffer";

  std::vector<Metric>& m = *out;
  m = {
      us("core.wrapper.small_call_us", trace::durations("clSetKernelArg")),
      us("core.wrapper.enqueue_us", trace::durations("clEnqueueNDRangeKernel")),
      ms("core.wrapper.finish_ms", finish),
      mib_s("core.wrapper.write_mib_s", kWrite, 0, UINT64_MAX),
      mib_s("core.wrapper.read_mib_s", kRead, 0, UINT64_MAX),
      mib_s("core.wrapper.write_ring_mib_s", kWrite, thr, ring - 1),
      mib_s("core.wrapper.write_over_ring_mib_s", kWrite, ring, UINT64_MAX),
      mib_s("core.wrapper.read_ring_mib_s", kRead, thr, ring - 1),
      mib_s("core.wrapper.read_over_ring_mib_s", kRead, ring, UINT64_MAX),
      ms("core.wrapper.build_ms", trace::durations("clBuildProgram")),
      ms("core.cpr.ckpt_cold_ms", r.cold_ckpt_ns),
      sim_ms("core.cpr.pause_sim_ms", traced.pause_sim_ns),
      sim_ms("core.cpr.restart_sim_ms", traced.restart_sim_ns),
      sim_ms("core.cpr.restart_sim.read_ms", traced.read_sim_ns),
      sim_ms("core.cpr.restart_sim.spawn_ms", traced.spawn_sim_ns),
  };
  for (std::size_t i = 0; i < checl::kNumObjTypes; ++i)
    m.push_back(sim_ms(std::string("core.cpr.restart_sim.") +
                           checl::obj_type_name(static_cast<checl::ObjType>(i)) +
                           "_ms",
                       traced.class_sim_ns[i]));
  const std::vector<Metric> rest = {
      ms("core.replay.encode_ms", rp.encode_ns),
      ms("core.replay.decode_ms", rp.decode_ns),
      count("core.replay.waves", traced.waves.median(), traced.waves.size()),
      count("core.replay.rollbacks", traced.rollbacks.median(),
            traced.rollbacks.size()),
      ms("proxy.spawn_ms", spp.spawn_ns),
      us("proxy.ping_us", spp.ping_ns),
      count("proxy.rpcs_per_pass", per(traced.pass_rpcs, traced.passes),
            traced.passes),
      count("proxy.rpcs_per_restart", traced.restart_rpcs.median(),
            traced.restart_rpcs.size()),
      value("proxy.child_rss_mib", static_cast<double>(traced.child_hwm_kib) / 1024.0,
            "MiB", "count"),
      ms("ipc.shm_create_ms", spp.shm_create_ns),
      count("ipc.syscalls_per_rpc", per(traced.pass_syscalls, traced.pass_rpcs),
            traced.passes),
      count("ipc.shm_fallbacks", per(traced.bulk.fallbacks, traced.passes),
            traced.passes),
      value("ipc.socket_mib_per_pass",
            per(traced.bulk.socket_bytes, traced.passes) / kMiB, "MiB", "count",
            traced.passes),
      ms("simcl.iter_ms", native),
      value("core.overhead_ratio", med(base, "iter_ms") / (native.median() / 1e6),
            "ratio", "wall", native.size()),
      ms("clc.compile_ms", cp.compile_ns),
      ms("clc.barrier_kernel_ms", cp.barrier_ns),
      ms("clc.plain_kernel_ms", cp.plain_ns),
      count("clc.ops_per_pass", static_cast<double>(cp.ops_per_pass)),
      ms("snapstore.put_ms", sp.put_ns),
      ms("snapstore.get_ms", sp.get_ns),
      value("snapstore.dedup_ratio", sp.dedup_ratio, "ratio", "count"),
      value("snapstore.stored_per_raw", sp.stored_per_raw, "ratio", "count"),
      ms("slimcr.save_ms", sp.save_ns),
      ms("slimcr.load_ms", sp.load_ns),
      value("proxyd.calls_per_flush", tp.calls_per_flush, "ratio", "count", tp.loops),
      value("proxyd.calls_per_round", tp.calls_per_round, "ratio", "count", tp.loops),
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const Share& sh : shares)
    m.push_back(value(sh.name, sh.base > 0 ? sh.part / sh.base : 0.0, "ratio", "wall"));
  for (const Metric& e : base)
    if (e.name != "setup_s" && e.name != "stored_mib" && e.name != "sim_s" &&
        e.name != "peak_rss_mib")
      m.push_back(value("trace.overhead." + e.name, med(with, e.name) - e.value,
                        e.unit, "wall"));

  print_table("end-to-end, untraced half", base);
  print_positions(untraced);
  print_table("end-to-end, traced half", with);
  print_table("per-layer", m);
  std::printf("accounting (probe medians over traced end-to-end medians):\n");
  for (const Share& sh : shares)
    std::printf("  %s: %s %.4f of %s %.4f = %.1f%%\n", sh.name, sh.parts,
                sh.part, sh.whole, sh.base,
                sh.base > 0 ? 100.0 * sh.part / sh.base : 0.0);

  if (!r.opt.trace_out.empty()) {
    std::ostringstream other;
    other << "{\"config\": " << config_json(r)
          << ", \"end_to_end_untraced\": " << json_metrics(base)
          << ", \"end_to_end_traced\": " << json_metrics(with)
          << ", \"per_layer\": " << json_metrics(m) << "}";
    if (!trace::write_chrome(r.opt.trace_out, other.str()))
      std::fprintf(stderr, "cyclebench: cannot write %s\n", r.opt.trace_out.c_str());
    else
      std::printf("trace: %s (%zu spans)\n", r.opt.trace_out.c_str(),
                  trace::spans().size());
  }
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: cyclebench --workload kernels|cycle|bulk --seed N "
               "--seconds S --trace 0|1 --root DIR [--trace-out FILE] "
               "[--corrupt-readback]\n");
  return 2;
}

// CHECL_* variables other than the helper-binary paths change what is
// measured; the benchmark measures the defaults users run.
std::vector<std::string> config_overrides() {
  std::vector<std::string> bad;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CHECL_", 0) != 0) continue;
    const std::string k = kv.substr(0, kv.find('='));
    if (k != "CHECL_PROXYD" && k != "CHECL_SNAPD") bad.push_back(k);
  }
  return bad;
}

int run(Options opt) {
  std::optional<Workload> wl;
  for (Workload& w : workloads())
    if (opt.workload == w.name) wl = std::move(w);
  if (!wl) return usage();
  if (const auto bad = config_overrides(); !bad.empty()) {
    for (const std::string& k : bad)
      std::fprintf(stderr, "cyclebench: refusing to run with %s set\n", k.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.root, ec);
  if (ec || ::chdir(opt.root.c_str()) != 0) {
    std::fprintf(stderr, "cyclebench: cannot use root %s\n", opt.root.c_str());
    return 2;
  }
  opt.root = std::filesystem::current_path().string();

  Run r;
  r.opt = opt;
  r.w = std::move(*wl);
  r.ckpt = r.w.store ? std::string(r.w.name) : r.opt.root + "/checl.ckpt";
  r.app = r.w.make(opt.seed);
  std::printf("config %s\n", config_json(r).c_str());

  checl::bind_checl();
  bool ok = true;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    Phase cold, timed;
    ok = setup(r, kSetups, cold) && loop(r, timed, opt.seconds);
    metrics = end_to_end(r, timed);
    print_table("end-to-end", metrics);
    print_positions(timed);
  } else {
    ok = traced_run(r, &metrics);
  }

  // Tear down every proxy this process started and reap it.
  rt().reset_all();
  for (int i = 0; i < 200 && proxy::pending_children() > 0; ++i) {
    proxy::reap_exited_children();
    ::usleep(10000);
  }
  const bool correct = ok && r.led.failed() == 0;
  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": %s}\n",
              r.w.name, correct ? "true" : "false",
              static_cast<unsigned long long>(r.led.attempted()),
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(r.led.failed(), ok ? 0 : 1)),
              json_metrics(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cb

int main(int argc, char** argv) {
  cb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) o.workload = argv[++i];
    else if (a == "--seed" && has) o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has) o.seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace" && has) o.trace = std::string(argv[++i]) == "1";
    else if (a == "--root" && has) o.root = argv[++i];
    else if (a == "--trace-out" && has) o.trace_out = argv[++i];
    else if (a == "--corrupt-readback") o.corrupt = true;
    else return cb::usage();
  }
  if (o.workload.empty() || o.root.empty() || !(o.seconds > 0)) return cb::usage();
  return cb::run(o);
}
