// probes.h — isolated probes of the traced run.  Each drives one module's
// public functions with the workload's own inputs, outside the cycle, so
// the per-layer numbers can be set against the end-to-end ones.  Every probe
// op counts in the run's ledger, so a failing probe fails the run.
#pragma once

#include <cstdint>
#include <string>

#include "apps.h"
#include "bench.h"
#include "core/node.h"
#include "slimcr/snapshot.h"

namespace cb::probe {

struct Spawn {
  Samples spawn_ns;  // proxy::spawn_proxy (Process) + first Client::ping
  Samples ping_ns;
  Samples shm_create_ns;  // ipc::ShmSegment::create at the default ring size
};
Spawn spawn(int reps, Ledger& led);

struct Clc {
  Samples compile_ns;          // every program of the app, per rep
  Samples barrier_ns, plain_ns;  // per pass, by execution path
  std::uint64_t ops_per_pass = 0;
};
Clc clc(const App& app, int reps, Ledger& led);

struct Replay {
  Samples encode_ns, decode_ns;
};
Replay replay(int reps, Ledger& led);

// Feeds two consecutive checkpoint snapshots of the run, alternately, to a
// scratch snapstore and through slimcr save/load.
struct Storage {
  Samples put_ns, get_ns, save_ns, load_ns;
  double dedup_ratio = 0;     // dedup hits / chunks offered, warm puts
  double stored_per_raw = 0;  // stored bytes / raw bytes, warm puts
};
Storage storage(const slimcr::Snapshot& a, const slimcr::Snapshot& b,
                const std::string& dir, int reps, Ledger& led);

// The app's pass under bind_native(): simcl in-process, no proxy.
Samples native_pass(App& app, const checl::NodeConfig& node, double seconds,
                    Ledger& led);

// Three tenant threads attached over Transport::Daemon to an in-process
// proxyd::Daemon: small calls, a ring-sized transfer, a small kernel,
// finish.
struct Tenants {
  double calls_per_flush = 0;
  double calls_per_round = 0;
  std::uint64_t loops = 0;
};
Tenants tenants(const std::string& socket, double seconds, std::uint64_t seed,
                Ledger& led);

}  // namespace cb::probe
