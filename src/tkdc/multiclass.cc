#include "tkdc/multiclass.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/macros.h"
#include "kde/query_metrics.h"

namespace tkdc {
namespace {

// Expansion budget each surviving class receives per round-robin turn.
// Small enough that the cross-class cutoff re-fires between turns (a far
// class dies after a handful of expansions), large enough to amortize the
// turn overhead over the batched child-bound passes.
constexpr int64_t kRoundBudget = 8;

// Priors must be positive, finite, and sum to 1 within this tolerance.
constexpr double kPriorSumTolerance = 1e-6;

Status ValidatePriors(const std::vector<double>& priors, size_t num_classes) {
  if (priors.size() != num_classes) {
    return Errorf() << "expected " << num_classes << " class priors, got "
                    << priors.size();
  }
  double sum = 0.0;
  for (size_t c = 0; c < priors.size(); ++c) {
    if (!std::isfinite(priors[c]) || priors[c] <= 0.0) {
      return Errorf() << "class prior " << c << " must be positive and "
                      << "finite; got " << priors[c];
    }
    sum += priors[c];
  }
  if (std::abs(sum - 1.0) > kPriorSumTolerance) {
    return Errorf() << "class priors must sum to 1; got " << sum;
  }
  return Status::Ok();
}

Status ValidateLabels(const std::vector<std::string>& labels) {
  for (size_t c = 0; c < labels.size(); ++c) {
    if (labels[c].empty()) {
      return Errorf() << "class " << c << " has an empty label";
    }
    for (size_t other = c + 1; other < labels.size(); ++other) {
      if (labels[c] == labels[other]) {
        return Errorf() << "duplicate class label '" << labels[c] << "'";
      }
    }
  }
  return Status::Ok();
}

}  // namespace

MultiClassClassifier::MultiClassClassifier(TkdcConfig config)
    : config_(config) {}

Status MultiClassClassifier::Train(const Dataset& data,
                                   const std::vector<std::string>& row_labels,
                                   std::vector<double> priors) {
  if (row_labels.size() != data.size()) {
    return Errorf() << "expected one label per training row; got "
                    << row_labels.size() << " labels for " << data.size()
                    << " rows";
  }
  // Group rows by label; std::map gives the documented lexicographic
  // class order deterministically.
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < row_labels.size(); ++i) {
    groups[row_labels[i]].push_back(i);
  }
  std::vector<Dataset> class_data;
  std::vector<std::string> class_labels;
  class_data.reserve(groups.size());
  class_labels.reserve(groups.size());
  for (const auto& [label, rows] : groups) {
    class_labels.push_back(label);
    class_data.push_back(data.SelectRows(rows));
  }
  return TrainParts(class_data, std::move(class_labels), std::move(priors));
}

Status MultiClassClassifier::TrainParts(const std::vector<Dataset>& class_data,
                                        std::vector<std::string> class_labels,
                                        std::vector<double> priors) {
  const size_t k = class_data.size();
  if (class_labels.size() != k) {
    return Errorf() << "expected one label per class; got "
                    << class_labels.size() << " labels for " << k
                    << " classes";
  }
  if (k < 2) {
    return Errorf() << "multi-class training requires at least 2 classes; "
                    << "got " << k;
  }
  if (k > kMaxClasses) {
    return Errorf() << "too many classes: " << k << " > " << kMaxClasses;
  }
  if (Status s = ValidateLabels(class_labels); !s.ok()) return s;
  size_t total_rows = 0;
  for (size_t c = 0; c < k; ++c) {
    if (class_data[c].size() < 2) {
      return Errorf() << "class '" << class_labels[c]
                      << "' needs at least 2 training rows; got "
                      << class_data[c].size();
    }
    if (class_data[c].dims() != class_data[0].dims()) {
      return Errorf() << "class '" << class_labels[c] << "' has "
                      << class_data[c].dims() << " dims; class '"
                      << class_labels[0] << "' has " << class_data[0].dims();
    }
    total_rows += class_data[c].size();
  }
  if (priors.empty()) {
    priors.resize(k);
    for (size_t c = 0; c < k; ++c) {
      priors[c] = static_cast<double>(class_data[c].size()) /
                  static_cast<double>(total_rows);
    }
  }
  if (Status s = ValidatePriors(priors, k); !s.ok()) return s;
  if (Status s = config_.Validate(); !s.ok()) return s;

  std::vector<std::unique_ptr<TkdcClassifier>> parts;
  parts.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    auto part = std::make_unique<TkdcClassifier>(config_);
    part->SetNumThreads(config_.num_threads);
    part->Train(class_data[c]);
    parts.push_back(std::move(part));
  }
  InstallParts(std::move(parts), std::move(class_labels), std::move(priors));
  return Status::Ok();
}

Status MultiClassClassifier::RestoreParts(
    std::vector<std::unique_ptr<TkdcClassifier>> parts,
    std::vector<std::string> class_labels, std::vector<double> priors) {
  const size_t k = parts.size();
  if (class_labels.size() != k) {
    return Errorf() << "expected one label per class; got "
                    << class_labels.size() << " labels for " << k
                    << " classes";
  }
  if (k < 2) {
    return Errorf() << "a multi-class model requires at least 2 classes; "
                    << "got " << k;
  }
  if (k > kMaxClasses) {
    return Errorf() << "too many classes: " << k << " > " << kMaxClasses;
  }
  if (Status s = ValidateLabels(class_labels); !s.ok()) return s;
  if (Status s = ValidatePriors(priors, k); !s.ok()) return s;
  for (size_t c = 0; c < k; ++c) {
    if (parts[c] == nullptr || !parts[c]->trained()) {
      return Errorf() << "class '" << class_labels[c]
                      << "' section is not a trained model";
    }
    if (parts[c]->dims() != parts[0]->dims()) {
      return Errorf() << "class sections disagree on dims: class '"
                      << class_labels[c] << "' has " << parts[c]->dims()
                      << ", class '" << class_labels[0] << "' has "
                      << parts[0]->dims();
    }
    if (parts[c]->kernel().type() != parts[0]->kernel().type()) {
      return Errorf() << "class sections disagree on the kernel: class '"
                      << class_labels[c] << "' uses kernel type "
                      << static_cast<int>(parts[c]->kernel().type())
                      << ", class '" << class_labels[0] << "' uses "
                      << static_cast<int>(parts[0]->kernel().type());
    }
  }
  InstallParts(std::move(parts), std::move(class_labels), std::move(priors));
  return Status::Ok();
}

void MultiClassClassifier::InstallParts(
    std::vector<std::unique_ptr<TkdcClassifier>> parts,
    std::vector<std::string> labels, std::vector<double> priors) {
  parts_ = std::move(parts);
  labels_ = std::move(labels);
  priors_ = std::move(priors);
  // Freeze the error budget once: the cross-class loop reads its traversal
  // share every query, and per-query resolution would be pure overhead.
  budget_ = config_.ResolveBudget();
  evaluators_.clear();
  evaluators_.reserve(parts_.size());
  for (const auto& part : parts_) {
    evaluators_.emplace_back(&part->tree(), &part->kernel(), &part->config());
  }
  // Per-class metric names depend on the labels; re-register so an already
  // attached registry carries them before any new shard is created.
  if (registry_ != nullptr) RegisterSchema(*registry_);
  ResetQueryState();
}

std::unique_ptr<MultiClassQueryContext> MultiClassClassifier::MakeQueryContext()
    const {
  return std::make_unique<MultiClassQueryContext>();
}

MultiClassQueryContext& MultiClassClassifier::live_context() {
  if (live_context_ == nullptr) {
    live_context_ = MakeQueryContext();
    AttachShard(*live_context_);
  }
  return *live_context_;
}

void MultiClassClassifier::EnsureScratch(MultiClassQueryContext& ctx) const {
  const size_t k = parts_.size();
  if (ctx.class_contexts.size() != k) {
    ctx.class_contexts.clear();
    ctx.class_contexts.reserve(k);
    for (size_t c = 0; c < k; ++c) {
      ctx.class_contexts.push_back(std::make_unique<TreeQueryContext>());
    }
    ctx.bounds.assign(k, DensityBounds{});
    ctx.alive.assign(k, 0);
    ctx.drained.assign(k, 0);
  }
}

uint32_t MultiClassClassifier::ClassifyImpl(
    MultiClassQueryContext& ctx, std::span<const double> x,
    std::vector<McRoundSnapshot>* trace) const {
  TKDC_CHECK_MSG(trained(), "Classify called before Train");
  TKDC_CHECK_MSG(x.size() == dims(),
                 "query dimensionality does not match the trained model");
  const size_t k = parts_.size();
  EnsureScratch(ctx);
  const TraversalStats before = ctx.stats;
  const uint64_t grid_before = ctx.grid_prunes;

  auto& bounds = ctx.bounds;
  auto& alive = ctx.alive;
  auto& drained = ctx.drained;
  for (size_t c = 0; c < k; ++c) {
    bounds[c] = evaluators_[c].SeedPointRefinement(*ctx.class_contexts[c], x);
    alive[c] = 1;
    drained[c] = 0;
  }
  size_t alive_count = k;
  const double eps = budget_.traversal;
  uint32_t rounds = 0;
  uint32_t winner = 0;
  McDecision decision = McDecision::kNone;

  if (trace != nullptr) {
    trace->clear();
    trace->push_back(McRoundSnapshot{bounds, alive});
  }

  while (true) {
    // Leader: the surviving class with the highest posterior lower bound
    // (lowest index on ties, for determinism).
    size_t leader = 0;
    double best_lo = -1.0;
    for (size_t c = 0; c < k; ++c) {
      if (alive[c] == 0) continue;
      const double lo = priors_[c] * bounds[c].lower;
      if (lo > best_lo) {
        best_lo = lo;
        leader = c;
      }
    }

    // Cross-class elimination: sound because for an eliminated class c,
    // prior_c * f_c <= prior_c * f_hi_c < prior_l * f_lo_l <= prior_l * f_l
    // — the leader's exact posterior strictly beats c's.
    for (size_t c = 0; c < k; ++c) {
      if (alive[c] == 0 || c == leader) continue;
      if (priors_[c] * bounds[c].upper < best_lo) {
        alive[c] = 0;
        --alive_count;
        if (ctx.metrics != nullptr) {
          ctx.metrics->Inc(mc_ids_.eliminations);
          if (c < mc_ids_.class_eliminated.size()) {
            ctx.metrics->Inc(mc_ids_.class_eliminated[c]);
          }
        }
      }
    }
    if (alive_count == 1) {
      winner = static_cast<uint32_t>(leader);
      decision = McDecision::kSingleSurvivor;
      break;
    }

    // Convergence (the Eq. 9 epsilon band, applied across classes): every
    // contender's posterior is certifiably within (1 + eps) of the
    // leader's, so declaring the leader errs by at most the relative band.
    bool converged = true;
    for (size_t c = 0; c < k; ++c) {
      if (alive[c] == 0 || c == leader) continue;
      if (priors_[c] * bounds[c].upper > best_lo * (1.0 + eps)) {
        converged = false;
        break;
      }
    }
    if (converged) {
      winner = static_cast<uint32_t>(leader);
      decision = McDecision::kConverged;
      break;
    }

    bool all_drained = true;
    for (size_t c = 0; c < k; ++c) {
      if (alive[c] != 0 && drained[c] == 0) {
        all_drained = false;
        break;
      }
    }
    if (all_drained) {
      // Every surviving bound is exact; the leader maximizes the exact
      // posterior (its lower bound *is* its posterior).
      winner = static_cast<uint32_t>(leader);
      decision = McDecision::kExact;
      break;
    }

    // Refinement round. The traversal share is split across the m
    // survivors: a class whose posterior width is already below its eps/m
    // share of the leader's lower bound yields its turn — once every
    // survivor meets its share, sum(widths) <= eps * best_lo and the
    // convergence rule above is guaranteed to fire, so the split can never
    // stall the loop.
    ++rounds;
    const double share = budget_.SurvivorShare(best_lo, alive_count);
    auto refine = [&](size_t c) {
      bounds[c] = evaluators_[c].RefinePointBounds(*ctx.class_contexts[c], x,
                                                   bounds[c], kRoundBudget);
      if (ctx.class_contexts[c]->last_cutoff == CutoffReason::kExactLeaf) {
        drained[c] = 1;
      }
    };
    bool refined_any = false;
    for (size_t c = 0; c < k; ++c) {
      if (alive[c] == 0 || drained[c] != 0) continue;
      if (priors_[c] * bounds[c].Width() <= share) continue;
      refine(c);
      refined_any = true;
    }
    if (!refined_any) {
      // Every undrained survivor met its width share yet convergence did
      // not fire (possible when best_lo is 0): refine them all so the
      // round always makes progress toward draining.
      for (size_t c = 0; c < k; ++c) {
        if (alive[c] != 0 && drained[c] == 0) refine(c);
      }
    }
    if (trace != nullptr) trace->push_back(McRoundSnapshot{bounds, alive});
  }

  if (trace != nullptr) trace->push_back(McRoundSnapshot{bounds, alive});

  // Fold the per-class traversal work into this context's own counters —
  // the single source of truth the batch executor merges — and zero the
  // per-class slates for the next query.
  for (size_t c = 0; c < k; ++c) {
    TreeQueryContext& cc = *ctx.class_contexts[c];
    ctx.stats.Add(cc.stats);
    ctx.grid_prunes += cc.grid_prunes;
    cc.stats = TraversalStats{};
    cc.grid_prunes = 0;
  }
  ++ctx.stats.queries;
  ctx.last_decision = decision;
  ctx.last_rounds = rounds;
  ctx.last_survivors = static_cast<uint32_t>(alive_count);

  if (ctx.metrics != nullptr) {
    MetricsShard& m = *ctx.metrics;
    m.Inc(mc_ids_.queries);
    switch (decision) {
      case McDecision::kSingleSurvivor:
        m.Inc(mc_ids_.decided_single);
        break;
      case McDecision::kConverged:
        m.Inc(mc_ids_.decided_converged);
        break;
      default:
        m.Inc(mc_ids_.decided_exact);
        break;
    }
    m.Observe(mc_ids_.rounds_hist, static_cast<double>(rounds));
    m.Observe(mc_ids_.survivors_hist, static_cast<double>(alive_count));
    if (winner < mc_ids_.class_won.size()) {
      m.Inc(mc_ids_.class_won[winner]);
    }
    query_metrics::RecordQuery(ctx, before, grid_before);
  }
  return winner;
}

std::vector<uint32_t> MultiClassClassifier::ClassifyBatch(
    const Dataset& queries) {
  TKDC_CHECK_MSG(trained(), "ClassifyBatch called before Train");
  if (queries.size() == 0) return {};
  TKDC_CHECK_MSG(queries.dims() == dims(),
                 "query dimensionality does not match the trained model");
  std::vector<uint32_t> labels(queries.size());
  executor_.Map(
      queries.size(), BatchExecutor::kDefaultMinChunk,
      [this] {
        auto ctx = MakeQueryContext();
        AttachShard(*ctx);
        return ctx;
      },
      [&](QueryContext& ctx, size_t row) {
        labels[row] = ClassifyInContext(
            static_cast<MultiClassQueryContext&>(ctx), queries.Row(row));
      },
      live_context());
  return labels;
}

void MultiClassClassifier::AttachMetrics(MetricsRegistry* registry) {
  if (registry != nullptr) {
    query_metrics::RegisterStandard(*registry);
    RegisterSchema(*registry);
  }
  registry_ = registry;
  if (live_context_ != nullptr) AttachShard(*live_context_);
  executor_.InvalidateContexts();
}

void MultiClassClassifier::RegisterSchema(MetricsRegistry& registry) {
  mc_ids_.queries = registry.AddCounter("mc.queries");
  mc_ids_.eliminations = registry.AddCounter("mc.class_eliminations");
  mc_ids_.decided_single = registry.AddCounter("mc.decided.single_survivor");
  mc_ids_.decided_converged = registry.AddCounter("mc.decided.converged");
  mc_ids_.decided_exact = registry.AddCounter("mc.decided.exact");
  mc_ids_.rounds_hist = registry.AddHistogram(
      "mc.rounds", MetricsRegistry::PowerOfTwoBounds(12));
  mc_ids_.survivors_hist = registry.AddHistogram(
      "mc.survivors_at_decision", MetricsRegistry::PowerOfTwoBounds(8));
  mc_ids_.class_eliminated.clear();
  mc_ids_.class_won.clear();
  mc_ids_.class_eliminated.reserve(labels_.size());
  mc_ids_.class_won.reserve(labels_.size());
  for (const std::string& label : labels_) {
    mc_ids_.class_eliminated.push_back(
        registry.AddCounter("mc.class." + label + ".eliminated"));
    mc_ids_.class_won.push_back(
        registry.AddCounter("mc.class." + label + ".won"));
  }
}

void MultiClassClassifier::FlushMetrics() {
  if (registry_ == nullptr || live_context_ == nullptr ||
      live_context_->metrics == nullptr) {
    return;
  }
  registry_->Absorb(*live_context_->metrics);
  live_context_->metrics->Reset();
}

}  // namespace tkdc
