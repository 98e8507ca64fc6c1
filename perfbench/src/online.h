#ifndef PERFBENCH_ONLINE_H_
#define PERFBENCH_ONLINE_H_

// The online path: the trained model is saved, loaded by serve::Server and
// served in-process over loopback TCP (src/serve, src/tkdc/model_io,
// src/kde/delta_overlay), driven by a seeded open-loop load generator.

#include <cstdint>
#include <string>

#include "offline.h"
#include "report.h"

namespace perfbench {

struct ServeOptions {
  /// Fixed offered rates (requests per second) and the ceiling of the
  /// ramp that searches for the highest sustainable rate. Above ~150k rps
  /// the generator's thread and the server's seven busy ones share 4
  /// vCPUs, and the rate a run sustains follows the host, not the server:
  /// over ten seeds the 20k-row serve model sustained 134k to 269k. The
  /// outlier_* models saturate below the ceiling (~75k to 125k).
  double lo_rps = 2000;
  double hi_rps = 10000;
  double ramp_max_rps = 150000;
  /// CLASSIFY p99 limit a sustainable rate must meet.
  double p99_limit_us = 5000;
  /// A step whose generator ran later than this at p99 is invalid.
  double late_limit_us = 1000;
  /// Share of fixed-rate requests that are INSERTs (the rest CLASSIFYs).
  double insert_share = 0.01;
  /// Wall time of the insert-free warm-up, of each fixed rate (all its
  /// pieces together), and of the whole ramp (0: no ramp) and each of its
  /// steps.
  double warmup_seconds = 0.5;
  double lo_seconds = 2.0;
  double hi_seconds = 2.0;
  double ramp_seconds = 3.0;
  double ramp_step_seconds = 0.5;
  /// Client connections the generator spreads requests over.
  size_t connections = 2;
  /// Batch-engine threads of the served model.
  size_t threads = 4;
  /// Server::Create calls per set-up probe process; when `setup_is_create`,
  /// setup_s is the mean over the probes of each one's median.
  size_t create_repeats = 1;
  bool setup_is_create = false;
  /// Rows each streaming overlay buffer holds
  /// (ServerOptions::overlay_capacity): room for every INSERT a run sends,
  /// so none is refused for want of space.
  size_t overlay_capacity = 16384;
  /// Model file written and served; must lie inside the checkout.
  std::string model_path;
};

/// Times `options.create_repeats` Server::Create calls on `model_path` and
/// prints each wall time in seconds on its own stdout line. This is the
/// driver's --time-create mode, which RunServe starts in fresh processes
/// to time set-up. Returns the process exit code.
int TimeServerCreate(const std::string& model_path,
                     const ServeOptions& options);

/// Saves `model`, serves it over TCP, runs the warm-up, the two fixed
/// rates and the ramp, and sets the serve metrics (and, when tracing, the
/// model_io / protocol / batcher / server / stream / gen layers).
void RunServe(const OfflineModel& model, const OfflineOptions& offline,
              const ServeOptions& options, Report& report, Trace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_ONLINE_H_
