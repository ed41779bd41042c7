#ifndef XAIDB_SERVE_SERVICE_H_
#define XAIDB_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/explainer.h"
#include "data/dataset.h"
#include "feature/explainer_factory.h"
#include "model/model.h"
#include "model/registry.h"

namespace xai {

namespace obs {
class AuditLog;
}  // namespace obs

/// One explanation request as submitted by a caller. The service answers
/// with a FeatureAttribution (or a typed error) through the future
/// returned by Submit and/or a per-request callback.
struct ExplanationRequest {
  std::vector<double> instance;
  ExplainerKind kind = ExplainerKind::kKernelShap;
  /// Sampling budget override: 0 keeps the service config's defaults;
  /// otherwise overrides the active family's sample / permutation count
  /// (ignored by exact TreeSHAP). Requests with different budgets never
  /// coalesce — they would not be bit-identical.
  int budget = 0;
  /// Higher runs first; ties serve in submission order.
  int priority = 0;
  /// Per-request deadline measured from Submit; 0 = none. A request whose
  /// deadline passes before evaluation starts fails with DeadlineExceeded
  /// instead of being evaluated.
  std::chrono::milliseconds timeout{0};
};

struct ExplanationResponse;

struct ExplanationServiceOptions {
  /// Bounded MPSC queue capacity; Submit blocks (TrySubmit fails with
  /// Unavailable) when full.
  size_t queue_capacity = 256;
  /// Max requests coalesced into one ExplainBatch sweep.
  size_t max_batch = 64;
  /// When false every request is served alone (the solo baseline the
  /// coalescing tests compare against).
  bool coalesce = true;
  /// When true the dispatcher accepts submissions but evaluates nothing
  /// until Resume() — lets tests stage a queue deterministically.
  bool start_paused = false;
  /// Per-family explainer options (seeds included), shared by all
  /// requests; a request's `budget` overlays the family's sample count.
  ExplainerConfig config;
  /// Capacity of the per-coalescing-key coalition-value cache installed
  /// into each Shapley-family explainer the service builds (0 disables
  /// caching). One cache per key: requests that coalesce share a memo
  /// table, so repeated instances across sweeps skip their model
  /// evaluations entirely. Caching never changes attribution bits.
  size_t cache_size = 1 << 15;
  /// Observer invoked on the dispatcher thread for every successfully
  /// served response, after the sweep and before the request's promise is
  /// fulfilled — the hook monitoring consumers (the attribution-drift
  /// watchdog in eval/drift.h) attach to. Keep it cheap: it runs inline
  /// in the dispatcher. Never called for expired or errored requests.
  std::function<void(const ExplanationRequest&, const ExplanationResponse&)>
      response_observer;
  /// When set, every successfully served response is appended to this
  /// crash-safe provenance ledger (obs/audit.h): row hash + full instance,
  /// model name/version/fingerprint, coalescing-key fingerprint, latency
  /// breakdown, and the top-k attribution values. The append is wait-free
  /// on the dispatcher thread — all ledger I/O happens on the log's own
  /// drain thread, and overflow drops (with a counter) rather than ever
  /// stalling serving. Never written for expired or errored requests.
  std::shared_ptr<obs::AuditLog> audit;
};

/// Where one request's time went, filled in by the dispatcher and
/// returned on every completed request. queue_ms + sweep_ms < total_ms in
/// general: the remainder is dispatcher bookkeeping plus (for coalesced
/// followers) time spent in sweeps of earlier batches.
struct ExplanationBreakdown {
  double queue_ms = 0.0;  ///< Submit → drafted into a batch.
  double sweep_ms = 0.0;  ///< ExplainBatch wall time of the batch it rode.
  double total_ms = 0.0;  ///< Submit → promise fulfilled.
  /// Live requests served by the same ExplainBatch sweep (self included).
  size_t coalesce_batch_size = 0;
  /// Flight-recorder id linking this request's trace events across
  /// threads; 0 when tracing is off or the request was sampled out.
  uint64_t trace_id = 0;
  /// Version of the model this request was evaluated against — the one it
  /// captured at Submit, which a concurrent hot-swap cannot change. The
  /// swap tests group responses by this to check per-version
  /// bit-identity through a live flip.
  int model_version = 0;
};

/// What a completed request resolves to: the attribution plus the
/// latency breakdown for that specific request.
struct ExplanationResponse {
  FeatureAttribution attribution;
  ExplanationBreakdown breakdown;
};

/// Monotonic counters, readable at any time. `coalesced_duplicates` counts
/// requests answered from another identical request's computation.
struct ExplanationServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t expired = 0;
  uint64_t rejected = 0;
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  uint64_t coalesced_duplicates = 0;
  /// Coalition-value cache totals summed over every per-key cache the
  /// service has built (all zero when cache_size == 0).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  /// Requests sitting in the queue right now (instantaneous, not
  /// monotonic) — the saturation signal the serve.queue_depth gauge
  /// samples on every enqueue/dequeue; visible here so callers that poll
  /// stats() see saturation before wait-time histograms degrade.
  uint64_t queue_depth = 0;
  /// Completed hot-swaps (SwapModel calls that flipped the serving
  /// handle).
  uint64_t swaps = 0;
  /// Version of the currently-serving model (also exported as the
  /// serve.model_version gauge, so a Prometheus scrape shows the flip).
  int model_version = 0;
};

/// Knobs for ExplanationService::SwapModel.
struct ModelSwapOptions {
  /// Max recent unique instances replayed per coalescing family to warm
  /// the incoming version's explainers and coalition caches before the
  /// flip. 0 skips warming (cold flip).
  size_t warm_rows = 64;
};

/// What a completed hot-swap did, for logs and the swap tests.
struct ModelSwapReport {
  std::string from;  ///< VersionedName of the outgoing model.
  std::string to;    ///< VersionedName of the incoming model.
  size_t warmed_families = 0;  ///< Coalescing families pre-built + warmed.
  size_t warmed_rows = 0;      ///< Recent instances replayed in total.
  double warm_ms = 0.0;        ///< Wall time spent building + warming.
};

/// Async explanation service: bounded MPSC queue in front of a single
/// dispatcher thread that coalesces compatible pending requests — same
/// (explainer kind, config fingerprint, arity) — into one ExplainBatch
/// sweep, and answers duplicate instances from one computation. Because
/// every explainer's ExplainBatch is bit-identical to per-row Explain, a
/// request's attribution does not depend on what it was batched with —
/// coalescing is invisible to callers except in latency.
///
/// Lifecycle: the destructor drains — every accepted request is completed
/// (evaluated or expired), never dropped.
///
/// Hot-swap: SwapModel warms an incoming model version behind the
/// currently-serving one, then flips the serving handle atomically.
/// Every request captures the serving handle at Submit and is evaluated
/// against exactly that version — in-flight requests finish on the
/// version they started on, kept alive by the handle's refcount. Because
/// the coalescing key includes the model fingerprint, pre- and post-swap
/// requests never share a batch or a cached result; old-version cache
/// entries age out through the coalition cache's CLOCK eviction.
class ExplanationService {
 public:
  using Callback = std::function<void(const Result<ExplanationResponse>&)>;

  /// `model` is the initially-serving version — a registry handle, or
  /// ModelHandle::Borrow(...) around a caller-owned in-memory model.
  ExplanationService(ModelHandle model, const Dataset& background,
                     ExplanationServiceOptions opts = {});
  ~ExplanationService();

  ExplanationService(const ExplanationService&) = delete;
  ExplanationService& operator=(const ExplanationService&) = delete;

  /// Enqueues; blocks while the queue is full. The future always resolves
  /// (value, error, or DeadlineExceeded). `cb`, if given, runs on the
  /// dispatcher thread right after the future is fulfilled. When the
  /// flight recorder is on, the request is assigned a trace_id here (see
  /// ExplanationBreakdown::trace_id) and its enqueue → dequeue → sweep →
  /// completion path emits linked trace events across threads.
  std::future<Result<ExplanationResponse>> Submit(ExplanationRequest req,
                                                  Callback cb = nullptr);

  /// Non-blocking Submit: Unavailable when the queue is full or the
  /// service is shut down.
  Result<std::future<Result<ExplanationResponse>>> TrySubmit(
      ExplanationRequest req, Callback cb = nullptr);

  /// Starts evaluation when constructed with start_paused.
  void Resume();

  /// Stops accepting new requests, drains everything already accepted,
  /// and joins the dispatcher. Idempotent.
  void Shutdown();

  /// Zero-downtime hot-swap to `next`. While the old version keeps
  /// serving: builds an explainer for `next` in every coalescing family
  /// seen so far (validating compatibility — a family that cannot be
  /// rebuilt, e.g. treeshap over a non-tree model, rejects the swap
  /// before anything changes), replays up to warm_rows recent unique
  /// instances per family so the incoming version's coalition-cache
  /// entries are hot, then atomically flips the serving handle. Requests
  /// submitted before the flip finish on the old version; requests after
  /// see only the new one. Thread-safe; concurrent swaps serialize.
  Result<ModelSwapReport> SwapModel(ModelHandle next,
                                    ModelSwapOptions swap_opts = {});

  /// The currently-serving model version (what a Submit issued now would
  /// capture).
  ModelHandle serving_model() const;

  ExplanationServiceStats stats() const;

 private:
  struct Pending;

  /// An explainer bound to one (coalescing family, model version). The
  /// handle keeps that version alive for as long as the explainer that
  /// borrows it exists — an old version swapped out mid-flight stays
  /// valid until its last entry (and last in-flight request) is gone.
  struct ExplainerEntry {
    std::unique_ptr<AttributionExplainer> explainer;
    ModelHandle handle;
  };

  /// Per-family record of recently-served unique instances, replayed by
  /// SwapModel to warm the incoming version. Keyed by the *family* key
  /// (model_fingerprint zeroed), so history survives swaps.
  struct FamilyHistory {
    ExplainerKind kind = ExplainerKind::kKernelShap;
    int budget = 0;
    size_t arity = 0;
    std::vector<std::vector<double>> rows;  // ring, capacity kHistoryCap
    std::unordered_set<uint64_t> seen;      // row hashes, for dedup
    size_t next = 0;
  };
  static constexpr size_t kHistoryCap = 128;

  std::unique_ptr<Pending> MakePending(ExplanationRequest req,
                                       Callback cb) const;
  void EnqueueLocked(std::unique_ptr<Pending> p);
  void RunDispatcher();
  void ServeBatch(std::vector<std::unique_ptr<Pending>> batch);
  static void FinishError(std::vector<std::unique_ptr<Pending>>& batch,
                          const Status& status);
  Result<AttributionExplainer*> GetExplainer(const Pending& leader);
  /// The family's shared coalition cache, created on first use (Shapley
  /// families only, nullptr otherwise). Guarded by mu_ internally.
  std::shared_ptr<CoalitionValueCache> FamilyCache(ExplainerKind kind,
                                                   uint64_t family_key);

  /// The serving version. Atomic shared_ptr: Submit loads it lock-free,
  /// SwapModel stores the replacement after warming.
  std::atomic<std::shared_ptr<const ModelHandle>> serving_;
  const Dataset& background_;
  ExplanationServiceOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;      // dispatcher waits here
  std::condition_variable cv_capacity_;  // blocking Submit waits here
  std::deque<std::unique_ptr<Pending>> queue_;
  bool paused_ = false;
  bool shutdown_ = false;
  uint64_t next_seq_ = 0;

  /// Serializes SwapModel calls (never held while mu_ is wanted by the
  /// dispatcher for long — warming runs outside mu_).
  std::mutex swap_mu_;

  /// Explainers cached per full coalescing key (family + model version).
  /// Guarded by mu_ for map access; a looked-up explainer runs outside
  /// the lock (dispatcher or warming thread, never both — pre-flip only
  /// the swap thread touches new-version entries).
  std::unordered_map<uint64_t, ExplainerEntry> explainers_;
  /// One coalition-value cache per coalescing *family* (Shapley families
  /// only), shared across model versions: a swap warms new-version
  /// entries into the same cache while stale-version entries age out via
  /// CLOCK eviction. Kept here so stats() can report totals. Guarded by
  /// mu_; the caches themselves are internally synchronized.
  std::unordered_map<uint64_t, std::shared_ptr<CoalitionValueCache>> caches_;
  /// Recent-instance history per family, for swap warming. Guarded by mu_.
  std::unordered_map<uint64_t, FamilyHistory> families_;

  ExplanationServiceStats stats_;  // guarded by mu_

  std::thread dispatcher_;
};

}  // namespace xai

#endif  // XAIDB_SERVE_SERVICE_H_
