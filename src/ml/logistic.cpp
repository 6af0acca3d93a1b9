#include "ml/logistic.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>

#include "ml/row_score_detail.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::ml {

namespace {

// Allocator for the flat feature buffer: whole pages mapped per buffer and
// unmapped when it is freed. A daemon fit's buffer is about 1 MiB. Taken
// from glibc's malloc it is mmapped too, but freeing it raises malloc's
// mmap threshold to the buffer's size and its trim threshold to twice that,
// after which every thread's arena keeps megabytes of freed memory
// resident; that raised the attack daemon's peak RSS by about 10%. Mapping
// the buffer directly returns its pages after every fit and leaves malloc's
// thresholds where they were.
template <typename T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  explicit MappedAllocator(const MappedAllocator<U>&) noexcept {}

  static T* allocate(std::size_t n) {
    void* pages = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(pages);
  }
  static void deallocate(T* p, std::size_t n) noexcept {
    munmap(p, n * sizeof(T));
  }
  bool operator==(const MappedAllocator&) const = default;
};

using FeatureBuffer = std::vector<double, MappedAllocator<double>>;

void require_pm_labels(const std::vector<int>& y) {
  for (auto label : y)
    PITFALLS_REQUIRE(label == +1 || label == -1, "labels must be +/-1");
}

}  // namespace

LogisticResult LogisticRegression::fit(
    const std::vector<std::vector<double>>& X, const std::vector<int>& y,
    support::Rng& rng) const {
  PITFALLS_REQUIRE(!X.empty(), "empty training set");
  PITFALLS_REQUIRE(X.size() == y.size(), "feature/label count mismatch");
  const std::size_t dim = X.front().size();
  PITFALLS_REQUIRE(dim > 0, "features must be non-empty");
  for (const auto& row : X)
    PITFALLS_REQUIRE(row.size() == dim, "ragged feature matrix");
  require_pm_labels(y);

  FeatureBuffer flat;
  flat.reserve(X.size() * dim);
  for (const auto& row : X) flat.insert(flat.end(), row.begin(), row.end());
  return fit_rows(flat, dim, y, rng);
}

LogisticResult LogisticRegression::fit_rows(std::span<const double> X,
                                            std::size_t dim,
                                            const std::vector<int>& y,
                                            support::Rng& rng) const {
  auto& registry = obs::MetricsRegistry::global();
  obs::ScopedTimer timer(registry, "ml.logistic.fit_seconds");

  const std::size_t rows = y.size();
  const double m = static_cast<double>(rows);
  std::vector<double> w(dim);
  for (auto& weight : w) weight = 0.01 * rng.gaussian();
  std::vector<double> step(dim, config_.init_step);
  std::vector<double> prev_grad(dim, 0.0);
  std::vector<double> grad(dim);
  // Margins y_i * (w . x_i) of the last gradient evaluation; the loss is
  // computed from them once, after the loop.
  std::vector<double> margin(rows);
  bool evaluated = false;

  std::size_t iter = 0;
  bool deadline_hit = false;
  // Wall-clock budget: max_seconds models the attacker's real time limit, so
  // this read is intentionally nondeterministic (same contract as
  // robust::Deadline).
  const auto fit_start = std::chrono::steady_clock::now();  // lint:wallclock-ok
  for (; iter < config_.max_iters; ++iter) {
    if (config_.max_seconds != std::numeric_limits<double>::infinity() &&
        std::chrono::duration<double>(  // lint:wallclock-ok
            std::chrono::steady_clock::now() - fit_start)
                .count() >= config_.max_seconds) {
      deadline_hit = true;
      break;
    }
    // Gradient of the mean negative log-likelihood with +/-1 labels,
    // sum log(1 + exp(-y w.x)) / m. Rows go in blocks of kRowBlock; every
    // grad[j] still adds its row terms in ascending row order.
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t i = 0; i < rows; i += detail::kRowBlock) {
      const std::size_t count = std::min(detail::kRowBlock, rows - i);
      const double* block[detail::kRowBlock];
      for (std::size_t k = 0; k < detail::kRowBlock; ++k)
        block[k] = X.data() + (i + std::min(k, count - 1)) * dim;
      double score[detail::kRowBlock];
      detail::score_block(block, w.data(), dim, score);

      double coeff[detail::kRowBlock];
      for (std::size_t k = 0; k < count; ++k) {
        const double label = static_cast<double>(y[i + k]);
        const double z = label * score[k];
        margin[i + k] = z;
        // sigma(-z), stably: exp(-z)/(1+exp(-z)) for z > 0, else
        // 1/(1+exp(z)); both exponentials are exp(-|z|).
        const double e = std::exp(-std::abs(z));
        const double sig = z > 0 ? e / (1.0 + e) : 1.0 / (1.0 + e);
        coeff[k] = -label * sig / m;
      }
      if (count == detail::kRowBlock) {
        const double* r0 = block[0];
        const double* r1 = block[1];
        const double* r2 = block[2];
        const double* r3 = block[3];
        for (std::size_t j = 0; j < dim; ++j) {
          double g = grad[j];
          g += coeff[0] * r0[j];
          g += coeff[1] * r1[j];
          g += coeff[2] * r2[j];
          g += coeff[3] * r3[j];
          grad[j] = g;
        }
      } else {
        for (std::size_t k = 0; k < count; ++k)
          for (std::size_t j = 0; j < dim; ++j)
            grad[j] += coeff[k] * block[k][j];
      }
    }
    evaluated = true;

    double grad_norm = 0.0;
    for (auto g : grad) grad_norm += g * g;
    if (std::sqrt(grad_norm) < config_.tolerance) break;

    // RProp: per-dimension sign-based step adaptation.
    for (std::size_t j = 0; j < dim; ++j) {
      const double sign_product = grad[j] * prev_grad[j];
      if (sign_product > 0.0)
        step[j] = std::min(step[j] * config_.step_up, config_.max_step);
      else if (sign_product < 0.0)
        step[j] = std::max(step[j] * config_.step_down, config_.min_step);
      if (grad[j] > 0.0)
        w[j] -= step[j];
      else if (grad[j] < 0.0)
        w[j] += step[j];
      prev_grad[j] = grad[j];
    }
  }

  // Mean negative log-likelihood log(1 + exp(-z)), computed stably, at the
  // weights of the last gradient evaluation: the current w after a
  // tolerance break, the w before the last RProp step otherwise, and 0 when
  // no gradient was evaluated.
  double loss = 0.0;
  if (evaluated) {
    for (const double z : margin) {
      const double e = std::exp(-std::abs(z));
      const double nll = z > 0 ? std::log1p(e) : -z + std::log1p(e);
      loss += nll / m;
    }
  }

  registry.counter("ml.logistic.fits").add(1);
  registry.counter("ml.logistic.iterations").add(iter);
  registry.gauge("ml.logistic.final_loss").set(loss);
  if (deadline_hit) registry.counter("ml.logistic.deadline_hits").add(1);

  LogisticResult result;
  result.weights = std::move(w);
  result.iterations = iter;
  result.final_loss = loss;
  result.deadline_hit = deadline_hit;
  return result;
}

LinearModel LogisticRegression::fit_model(
    const std::vector<BitVec>& challenges, const std::vector<int>& responses,
    const FeatureMap& features, support::Rng& rng,
    LogisticResult* stats) const {
  PITFALLS_REQUIRE(!challenges.empty(), "empty training set");
  PITFALLS_REQUIRE(challenges.size() == responses.size(),
                   "feature/label count mismatch");
  require_pm_labels(responses);

  // Each feature row goes straight into the flat buffer: holding a
  // vector-of-rows copy beside it would double the fit's peak memory.
  const std::vector<double> first = features(challenges.front());
  const std::size_t dim = first.size();
  PITFALLS_REQUIRE(dim > 0, "features must be non-empty");
  FeatureBuffer X;
  X.reserve(challenges.size() * dim);
  X.insert(X.end(), first.begin(), first.end());
  for (std::size_t i = 1; i < challenges.size(); ++i) {
    const std::vector<double> row = features(challenges[i]);
    PITFALLS_REQUIRE(row.size() == dim, "ragged feature matrix");
    X.insert(X.end(), row.begin(), row.end());
  }
  LogisticResult result = fit_rows(X, dim, responses, rng);
  if (stats != nullptr) *stats = result;
  return LinearModel(challenges.front().size(), std::move(result.weights),
                     features, "logistic-regression hypothesis");
}

}  // namespace pitfalls::ml
