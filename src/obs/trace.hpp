#pragma once
/// \file trace.hpp
/// Low-overhead distributed span tracing: who spent the time, where, on
/// behalf of which request — the causal companion to the aggregate
/// counters/histograms in metrics.hpp.
///
/// Model (the usual one): a *trace* is a tree of *spans*. Every span has a
/// 64-bit trace id (shared by the whole tree), its own 64-bit span id, a
/// parent span id (0 for roots), and a monotonic [start_us, start_us+dur_us)
/// interval on the journal_now_us() clock. Context crosses threads and
/// processes as a `TraceContext` — on the wire it is the `traceparent=`
/// key, `<trace-hex16>-<span-hex16>`.
///
/// Design constraints, in order:
///   begin/finish are cheap         one TLS stack push/pop plus one short
///                                  striped-mutex critical section appending
///                                  a POD record; names are interned once
///                                  per distinct string
///   recording never blocks readers long   collect() locks one stripe at a
///                                  time; stripes are chosen by a per-thread
///                                  index so concurrent recorders spread
///   buffers are bounded            each stripe keeps a ring of the most
///                                  recent finished spans (overwrite-oldest,
///                                  drops counted) — a long-lived daemon
///                                  cannot grow without bound
///   open spans are visible         collect() can synthesize in-flight spans
///                                  with dur = now - start, which is what
///                                  the fleet console's "slowest open spans"
///                                  view reads
///   reports never read spans       traces are sidecar artifacts and
///                                  never feed the deterministic report
///                                  emitters
///
/// The active-span stack is thread-local and owner-tagged: a frame knows
/// which Tracer pushed it, so tests running private Tracer instances never
/// cross-talk with the global one. ScopedSpan guarantees strict LIFO per
/// thread (C++ scopes nest), which keeps pop O(1).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace emutile {

/// A position in some trace: the pair every propagation hop carries.
/// trace_id == 0 is the invalid/absent context.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

/// Wire form `<trace-hex16>-<span-hex16>` (e.g. the `traceparent=` value on
/// a SUBMIT line). parse returns nullopt on anything malformed or invalid.
[[nodiscard]] std::string format_traceparent(TraceContext ctx);
[[nodiscard]] std::optional<TraceContext> parse_traceparent(
    std::string_view text);
/// A bare trace id in the same 16-hex-digit form (e.g. the TRACESPANS
/// filter argument). parse returns nullopt on anything malformed or zero.
[[nodiscard]] std::string format_trace_id(std::uint64_t trace_id);
[[nodiscard]] std::optional<std::uint64_t> parse_trace_id(
    std::string_view text);

/// One finished (or snapshotted in-flight) span, name resolved.
struct TraceSpan {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for a root span
  std::uint64_t start_us = 0;   ///< journal_now_us() clock
  std::uint64_t dur_us = 0;
  std::uint32_t pid = 0;  ///< recording process (fleet traces keep tracks apart)
  std::uint32_t tid = 0;  ///< small per-process thread index, not the OS tid
  bool open = false;      ///< true when snapshotted mid-flight
};

class ScopedSpan;

/// Span recorder. All methods are thread-safe.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh root context: new trace id, no span yet.
  [[nodiscard]] TraceContext mint_trace();

  /// A context for a child span of `parent` without opening a span here —
  /// used to pre-mint ids for spans synthesized later via record_span().
  /// Adopts the parent's trace id, or starts a fresh trace when the parent
  /// is invalid.
  [[nodiscard]] TraceContext child_context(TraceContext parent);

  /// Record a fully-formed span directly (synthesized spans: queue wait
  /// reconstructed from enqueue stamps, campaign.run from the submit stamp).
  void record_span(std::string_view name, TraceContext ctx,
                   std::uint64_t parent_span, std::uint64_t start_us,
                   std::uint64_t dur_us);

  /// The innermost span this thread has open *on this tracer*, or the
  /// invalid context.
  [[nodiscard]] TraceContext current() const;

  /// Copy out every buffered span, oldest first (sorted by start_us, span id
  /// tie-break). Open spans are included with dur = now - start and
  /// open=true unless `include_open` is false.
  [[nodiscard]] std::vector<TraceSpan> collect(bool include_open = true) const;

  /// collect() filtered to one trace id.
  [[nodiscard]] std::vector<TraceSpan> collect_trace(
      std::uint64_t trace_id, bool include_open = true) const;

  /// Finished spans discarded because a stripe ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drop every buffered span (open-span bookkeeping included). For tests.
  void reset();

  /// The process-wide tracer every subsystem records into.
  [[nodiscard]] static Tracer& global();

 private:
  friend class ScopedSpan;

  struct RawSpan {
    std::uint32_t name = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    std::uint32_t tid = 0;
  };
  struct OpenSpan {
    std::uint32_t name = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::uint64_t start_us = 0;
    std::uint32_t tid = 0;
  };
  static constexpr std::size_t kStripes = 32;
  /// Finished spans kept per stripe before overwrite-oldest kicks in.
  static constexpr std::size_t kRingCapacity = 8192;
  struct Stripe {
    mutable std::mutex mutex;
    std::vector<RawSpan> finished;  ///< ring once full; `cursor` is the seam
    std::size_t cursor = 0;
    std::uint64_t dropped = 0;
    std::vector<OpenSpan> open;

    /// Append to the ring, overwriting the oldest entry once full. Caller
    /// holds `mutex`.
    void push(const RawSpan& raw);
  };

  [[nodiscard]] std::uint64_t fresh_id();
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  [[nodiscard]] Stripe& stripe_here();
  /// collect() of every span, or of one trace's spans only.
  [[nodiscard]] std::vector<TraceSpan> collect_where(
      bool include_open, std::optional<std::uint64_t> trace_id) const;

  /// begin/finish back ScopedSpan: push a TLS frame + an open-span entry,
  /// later pop it and append the finished record.
  TraceContext begin(std::string_view name, TraceContext parent);
  void finish();

  std::uint64_t seed_;
  std::atomic<std::uint64_t> counter_{0};
  std::uint32_t pid_;
  mutable std::mutex names_mutex_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::vector<std::string> names_;
  std::array<Stripe, kStripes> stripes_;
};

/// RAII span: opens on construction (parented on the tracer's current span,
/// or on an explicit context for cross-thread handoff), finishes on
/// destruction. `context()` is what child work — possibly on another thread
/// or host — should be parented on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name);
  ScopedSpan(Tracer& tracer, std::string_view name, TraceContext parent);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  [[nodiscard]] TraceContext context() const { return ctx_; }

 private:
  Tracer* tracer_;
  TraceContext ctx_;
};

}  // namespace emutile
