#include "db/query_shapley.h"

#include <algorithm>
#include <limits>

#include "core/game.h"
#include "feature/shapley.h"
#include "obs/obs.h"

namespace xai {

Result<std::vector<double>> TupleShapley(size_t num_tuples,
                                         const SubDatabaseQueryFn& query,
                                         const QueryShapleyOptions& opts) {
  if (num_tuples == 0)
    return Status::InvalidArgument("TupleShapley: no tuples");
  XAI_OBS_SPAN("query_shapley");
  XAI_OBS_COUNT_N("db.query_shapley.tuples", num_tuples);
  XAI_OBS_TRACE_INSTANT("query_shapley.tuples", num_tuples);
  // Each game evaluation re-runs the query over one sub-database drawn
  // from the answer's lineage — the unit of cost for query-Shapley. The
  // exact and permutation sweeps below both materialize their full
  // coalition sets and drive them through ValueBatch, so lineage
  // evaluations run in fixed-boundary parallel chunks (XAIDB_THREADS);
  // `query` must therefore be safe to call concurrently.
  LambdaGame inner(num_tuples, [&query](const std::vector<bool>& keep) {
    XAI_OBS_COUNT("db.query_shapley.lineage_evals");
    return query(keep);
  });
  // Route through the shared evaluation engine: with a cache attached,
  // identical sub-databases are evaluated once per (cache, fingerprint)
  // lifetime — within this call and across calls. Mixing the player count
  // into the context keeps differently-sized lineages apart even under a
  // caller-default fingerprint of 0.
  const uint64_t context = EvalFingerprintBytes(
      0x71ee5ab1c9cb1dadULL ^ opts.cache_fingerprint, &num_tuples,
      sizeof(num_tuples));
  CachedGame game(inner, context, opts.cache);
  // Exact enumeration materializes all 2^n coalitions (and their value
  // vector) at once; cap the threshold so the 1<<n shift and the
  // allocation stay well inside size_t range no matter what the caller
  // puts in exact_up_to. 2^25 game values ≈ 256 MiB — already past any
  // sensible exact budget.
  constexpr size_t kMaxExactTuples = 25;
  const size_t exact_up_to = std::min(opts.exact_up_to, kMaxExactTuples);
  if (num_tuples <= exact_up_to)
    return ExactShapley(game, static_cast<int>(exact_up_to));
  if (opts.num_permutations == 0 ||
      opts.num_permutations >
          static_cast<size_t>(std::numeric_limits<int>::max()))
    return Status::InvalidArgument(
        "TupleShapley: num_permutations out of range");
  Rng rng(opts.seed);
  return PermutationShapley(game, static_cast<int>(opts.num_permutations),
                            &rng);
}

SubDatabaseQueryFn MakeRelationQueryFn(
    const Relation& base, TupleId first_tid,
    std::function<double(const Relation&)> query) {
  return [&base, first_tid, query = std::move(query)](
             const std::vector<bool>& keep) {
    Relation sub = base.FilterByTupleId(keep, first_tid);
    return query(sub);
  };
}

}  // namespace xai
