// Fixture: per-element oracle/PUF queries inside a parallel chunk body —
// pays per-challenge dispatch and skips the bit-sliced kernels; the rule
// asks for one query_pm_batch/eval_pm_batch call per chunk instead. The
// test presents this file under a src/ml path to land inside its scope.
#include <cstddef>
#include <vector>

#include "ml/oracle.hpp"
#include "puf/arbiter.hpp"
#include "support/parallel.hpp"

std::size_t count_agreements(pitfalls::ml::MembershipOracle& oracle,
                             const pitfalls::puf::ArbiterPuf& puf,
                             const std::vector<pitfalls::BitVec>& xs) {
  std::vector<int> a(xs.size()), b(xs.size());
  pitfalls::support::parallel_for_chunks(
      xs.size(), [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        (void)chunk;
        for (std::size_t i = begin; i < end; ++i) {
          a[i] = oracle.query_pm(xs[i]);
          b[i] = puf.eval_pm(xs[i]);
        }
      });
  std::size_t agree = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (a[i] == b[i]) ++agree;
  return agree;
}
