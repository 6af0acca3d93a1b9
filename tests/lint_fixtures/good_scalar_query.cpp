// Fixture: the batched counterpart of bad_scalar_query.cpp — one
// query_pm_batch(xs, out, status) and one eval_pm_batch(xs, out) call per
// chunk, which is exactly what the scalar-query rule asks for (the `_batch(`
// suffix never matches the rule's query_pm/eval_pm pattern).
#include <cstddef>
#include <span>
#include <vector>

#include "ml/oracle.hpp"
#include "puf/arbiter.hpp"
#include "support/parallel.hpp"

std::size_t count_agreements(pitfalls::ml::MembershipOracle& oracle,
                             const pitfalls::puf::ArbiterPuf& puf,
                             const std::vector<pitfalls::BitVec>& xs) {
  std::vector<int> a(xs.size()), b(xs.size());
  std::vector<pitfalls::ml::QueryStatus> status(xs.size());
  pitfalls::support::parallel_for_chunks(
      xs.size(), [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        (void)chunk;
        const std::span<const pitfalls::BitVec> slice(xs.data() + begin,
                                                      end - begin);
        oracle.query_pm_batch(
            slice, std::span<int>(a.data() + begin, end - begin),
            std::span<pitfalls::ml::QueryStatus>(status.data() + begin,
                                                 end - begin));
        puf.eval_pm_batch(slice, std::span<int>(b.data() + begin,
                                                end - begin));
      });
  std::size_t agree = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (status[i] == pitfalls::ml::QueryStatus::answered && a[i] == b[i])
      ++agree;
  return agree;
}
