#include "serve/flags.h"

#include <charconv>
#include <cstdlib>

namespace tkdc::serve {
namespace {

constexpr const char kUsage[] =
    "usage: tkdc_serve --model M.tkdc [--port N | --pipe]\n"
    "  --model PATH            trained model file (required); also the\n"
    "                          target of SIGHUP / flagless RELOAD\n"
    "  --model-dir DIR         directory of additional \"<id>.tkdc\" model\n"
    "                          slots, addressed per request as @<id>;\n"
    "                          MODELS / LOAD / UNLOAD manage them at\n"
    "                          runtime\n"
    "  --max-resident BYTES    resident-set byte budget for --model-dir\n"
    "                          models; least-recently-used slots are\n"
    "                          evicted past it (default 0 = unbounded)\n"
    "  --preload-models        load every --model-dir slot at startup\n"
    "                          instead of on first use\n"
    "  --port N                TCP listen port on 127.0.0.1 (default 0 =\n"
    "                          ephemeral, announced on stdout);\n"
    "                          length-prefixed framing\n"
    "  --pipe                  serve stdin/stdout with line framing\n"
    "                          instead of TCP\n"
    "  --threads N             batch-engine worker threads (0 = hardware\n"
    "                          concurrency, 1 = serial; labels identical)\n"
    "  --batch-window-us U     opt-in micro-batch coalescing window: hold\n"
    "                          a batch open this long for more arrivals\n"
    "                          (default 0 = continuous batching: dispatch\n"
    "                          at once; arrivals during a batch form the\n"
    "                          next one)\n"
    "  --batch-pace-us U       minimum spacing between batch dispatches:\n"
    "                          caps the worker at ~max-batch/pace requests\n"
    "                          per second (default 0 = unpaced)\n"
    "  --max-batch N           max requests per batch (default 64)\n"
    "  --queue-depth N         admission bound; excess requests get\n"
    "                          OVERLOADED (default 1024)\n"
    "  --request-timeout-ms T  default per-request deadline, 0 = none\n"
    "                          (default 0); requests may override\n"
    "  --metrics-out PATH      write merged metrics JSON at shutdown\n"
    "  --overlay-capacity N    rows each streaming overlay buffer can\n"
    "                          stage before INSERT/DELETE are rejected\n"
    "                          pending a rebuild (default 4096; 0 turns\n"
    "                          streaming verbs off)\n"
    "  --rebuild-fraction F    retrain and hot-swap the base model when\n"
    "                          the overlay exceeds this fraction of the\n"
    "                          base points (default 0.1; 0 = only FLUSH\n"
    "                          rebuilds)\n"
    "Signals: SIGTERM drains (every admitted request is answered, then\n"
    "exit 0); SIGHUP hot-reloads the model without dropping requests.\n";

Status ParseSize(const std::string& flag, const std::string& text,
                 uint64_t max, uint64_t* out) {
  const char* begin = text.c_str();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr != end) {
    return Errorf() << flag << ": expected a non-negative integer, got \""
                    << text << "\"";
  }
  if (*out > max) {
    return Errorf() << flag << ": " << text << " exceeds the maximum " << max;
  }
  return Status::Ok();
}

}  // namespace

const char* ServeUsage() { return kUsage; }

Result<ServeFlags> ParseServeFlags(const std::vector<std::string>& args) {
  ServeFlags flags;
  bool port_given = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--pipe") {
      flags.pipe = true;
      continue;
    }
    if (arg == "--preload-models") {
      flags.options.preload_models = true;
      continue;
    }
    if (arg == "--help") return Errorf() << "help requested";
    const auto take_value = [&](std::string* value) -> Status {
      if (i + 1 >= args.size()) {
        return Errorf() << "missing value for " << arg;
      }
      *value = args[++i];
      return Status::Ok();
    };
    std::string value;
    uint64_t number = 0;
    Status status;
    if (arg == "--model") {
      if (status = take_value(&flags.options.model_path); !status.ok()) {
        return status;
      }
    } else if (arg == "--model-dir") {
      if (status = take_value(&flags.options.model_dir); !status.ok()) {
        return status;
      }
    } else if (arg == "--max-resident") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, uint64_t{1} << 62, &number);
          !status.ok()) {
        return status;
      }
      flags.options.max_resident_bytes = static_cast<size_t>(number);
    } else if (arg == "--metrics-out") {
      if (status = take_value(&flags.options.metrics_out); !status.ok()) {
        return status;
      }
    } else if (arg == "--port") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 65535, &number); !status.ok()) {
        return status;
      }
      flags.port = static_cast<uint16_t>(number);
      port_given = true;
    } else if (arg == "--threads") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 4096, &number); !status.ok()) {
        return status;
      }
      flags.options.num_threads = static_cast<size_t>(number);
    } else if (arg == "--batch-window-us") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 10'000'000, &number); !status.ok()) {
        return status;
      }
      flags.options.batcher.batch_window_us = number;
    } else if (arg == "--batch-pace-us") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 10'000'000, &number); !status.ok()) {
        return status;
      }
      flags.options.batcher.batch_pace_us = number;
    } else if (arg == "--max-batch") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 1u << 20, &number); !status.ok()) {
        return status;
      }
      if (number < 1) return Errorf() << "--max-batch must be >= 1";
      flags.options.batcher.max_batch = static_cast<size_t>(number);
    } else if (arg == "--queue-depth") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 1u << 24, &number); !status.ok()) {
        return status;
      }
      if (number < 1) return Errorf() << "--queue-depth must be >= 1";
      flags.options.batcher.queue_depth = static_cast<size_t>(number);
    } else if (arg == "--request-timeout-ms") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 86'400'000, &number); !status.ok()) {
        return status;
      }
      flags.options.batcher.default_timeout_ms =
          static_cast<int64_t>(number);
    } else if (arg == "--overlay-capacity") {
      if (status = take_value(&value); !status.ok()) return status;
      if (status = ParseSize(arg, value, 1u << 24, &number); !status.ok()) {
        return status;
      }
      flags.options.overlay_capacity = static_cast<size_t>(number);
    } else if (arg == "--rebuild-fraction") {
      if (status = take_value(&value); !status.ok()) return status;
      char* end = nullptr;
      const double fraction = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || !(fraction >= 0.0) ||
          fraction > 1.0) {
        return Errorf() << arg << ": expected a fraction in [0, 1], got \""
                        << value << "\"";
      }
      flags.options.rebuild_fraction = fraction;
    } else {
      return Errorf() << "unknown flag: " << arg;
    }
  }
  if (flags.options.model_path.empty()) {
    return Errorf() << "--model is required";
  }
  if (flags.pipe && port_given) {
    return Errorf() << "--pipe and --port are mutually exclusive";
  }
  return flags;
}

}  // namespace tkdc::serve
