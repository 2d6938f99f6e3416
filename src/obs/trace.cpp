#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>

#include "obs/event_journal.hpp"

namespace emutile {

namespace {

/// splitmix64 — the same bijective mixer the seed-derivation layer uses:
/// distinct inputs give distinct, well-spread 64-bit ids.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string u64_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

std::optional<std::uint64_t> parse_u64_hex(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else
      return std::nullopt;
    v = (v << 4) | digit;
  }
  return v;
}

/// Small dense per-thread index: stable for the thread's lifetime, reused
/// nowhere, and a far better Perfetto track id than the opaque OS tid.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// The per-thread active-span stack. Frames are owner-tagged so private
/// test tracers and the global tracer can interleave on one thread without
/// seeing each other's spans as parents.
struct Frame {
  const Tracer* owner = nullptr;
  TraceContext ctx;
};
thread_local std::vector<Frame> t_span_stack;

}  // namespace

std::string format_traceparent(TraceContext ctx) {
  return u64_hex(ctx.trace_id) + "-" + u64_hex(ctx.span_id);
}

std::optional<TraceContext> parse_traceparent(std::string_view text) {
  if (text.size() != 33 || text[16] != '-') return std::nullopt;
  const auto trace = parse_u64_hex(text.substr(0, 16));
  const auto span = parse_u64_hex(text.substr(17));
  if (!trace || !span || *trace == 0) return std::nullopt;
  return TraceContext{*trace, *span};
}

std::string format_trace_id(std::uint64_t trace_id) {
  return u64_hex(trace_id);
}

std::optional<std::uint64_t> parse_trace_id(std::string_view text) {
  const auto id = parse_u64_hex(text);
  if (!id || *id == 0) return std::nullopt;
  return id;
}

Tracer::Tracer()
    : seed_(std::random_device{}()),
      pid_(static_cast<std::uint32_t>(::getpid())) {
  seed_ = splitmix64((seed_ << 32) ^ std::random_device{}());
}

std::uint64_t Tracer::fresh_id() {
  std::uint64_t id = 0;
  while (id == 0)
    id = splitmix64(seed_ + counter_.fetch_add(1, std::memory_order_relaxed));
  return id;
}

std::uint32_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

Tracer::Stripe& Tracer::stripe_here() {
  return stripes_[thread_index() % kStripes];
}

TraceContext Tracer::mint_trace() {
  return TraceContext{fresh_id(), 0};
}

TraceContext Tracer::child_context(TraceContext parent) {
  return TraceContext{parent.valid() ? parent.trace_id : fresh_id(),
                      fresh_id()};
}

void Tracer::record_span(std::string_view name, TraceContext ctx,
                         std::uint64_t parent_span, std::uint64_t start_us,
                         std::uint64_t dur_us) {
  if (!ctx.valid()) return;
  RawSpan raw;
  raw.name = intern(name);
  raw.trace_id = ctx.trace_id;
  raw.span_id = ctx.span_id;
  raw.parent_id = parent_span;
  raw.start_us = start_us;
  raw.dur_us = dur_us;
  raw.tid = thread_index();
  Stripe& stripe = stripe_here();
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.push(raw);
}

void Tracer::Stripe::push(const RawSpan& raw) {
  if (finished.size() < kRingCapacity) {
    finished.push_back(raw);
  } else {
    finished[cursor] = raw;
    cursor = (cursor + 1) % kRingCapacity;
    ++dropped;
  }
}

TraceContext Tracer::current() const {
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it)
    if (it->owner == this) return it->ctx;
  return {};
}

TraceContext Tracer::begin(std::string_view name, TraceContext parent) {
  const TraceContext ctx = child_context(parent);
  OpenSpan open;
  open.name = intern(name);
  open.trace_id = ctx.trace_id;
  open.span_id = ctx.span_id;
  open.parent_id = parent.valid() ? parent.span_id : 0;
  open.start_us = journal_now_us();
  open.tid = thread_index();
  t_span_stack.push_back(Frame{this, ctx});
  Stripe& stripe = stripe_here();
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.open.push_back(open);
  return ctx;
}

void Tracer::finish() {
  // ScopedSpan scopes nest, so the innermost frame owned by this tracer is
  // the one finishing; frames above it (if any) belong to other tracers and
  // are never popped here.
  TraceContext ctx;
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->owner == this) {
      ctx = it->ctx;
      t_span_stack.erase(std::next(it).base());
      break;
    }
  }
  if (!ctx.valid()) return;
  const std::uint64_t now = journal_now_us();
  Stripe& stripe = stripe_here();
  std::lock_guard<std::mutex> lock(stripe.mutex);
  // The open entry lives in this thread's stripe; search newest-first.
  for (auto it = stripe.open.rbegin(); it != stripe.open.rend(); ++it) {
    if (it->span_id != ctx.span_id) continue;
    RawSpan raw;
    raw.name = it->name;
    raw.trace_id = it->trace_id;
    raw.span_id = it->span_id;
    raw.parent_id = it->parent_id;
    raw.start_us = it->start_us;
    raw.dur_us = now >= it->start_us ? now - it->start_us : 0;
    raw.tid = it->tid;
    stripe.open.erase(std::next(it).base());
    stripe.push(raw);
    return;
  }
  // reset() raced the span away; nothing left to record.
}

std::vector<TraceSpan> Tracer::collect(bool include_open) const {
  return collect_where(include_open, std::nullopt);
}

std::vector<TraceSpan> Tracer::collect_trace(std::uint64_t trace_id,
                                             bool include_open) const {
  return collect_where(include_open, trace_id);
}

std::vector<TraceSpan> Tracer::collect_where(
    bool include_open, std::optional<std::uint64_t> trace_id) const {
  // Filter while scanning, then sort and name only what matched: a
  // per-campaign export pays one id compare per buffered span, not a name
  // copy and a sort of every span the stripes hold.
  struct Found {
    RawSpan raw;
    bool open = false;
  };
  std::vector<Found> found;
  const std::uint64_t now = journal_now_us();
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const RawSpan& raw : stripe.finished)
      if (!trace_id || raw.trace_id == *trace_id)
        found.push_back({raw, false});
    if (!include_open) continue;
    for (const OpenSpan& open : stripe.open) {
      if (trace_id && open.trace_id != *trace_id) continue;
      RawSpan raw;
      raw.name = open.name;
      raw.trace_id = open.trace_id;
      raw.span_id = open.span_id;
      raw.parent_id = open.parent_id;
      raw.start_us = open.start_us;
      raw.dur_us = now >= open.start_us ? now - open.start_us : 0;
      raw.tid = open.tid;
      found.push_back({raw, true});
    }
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.raw.start_us != b.raw.start_us ? a.raw.start_us < b.raw.start_us
                                            : a.raw.span_id < b.raw.span_id;
  });
  // Copied after the scan, so every found span's name is already interned;
  // a dozen-odd strings, and intern() is not blocked while names resolve.
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(names_mutex_);
    names = names_;
  }
  std::vector<TraceSpan> out;
  out.reserve(found.size());
  for (const Found& f : found) {
    TraceSpan span;
    span.name = f.raw.name < names.size() ? names[f.raw.name] : "?";
    span.trace_id = f.raw.trace_id;
    span.span_id = f.raw.span_id;
    span.parent_id = f.raw.parent_id;
    span.start_us = f.raw.start_us;
    span.dur_us = f.raw.dur_us;
    span.pid = pid_;
    span.tid = f.raw.tid;
    span.open = f.open;
    out.push_back(std::move(span));
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.dropped;
  }
  return total;
}

void Tracer::reset() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.finished.clear();
    stripe.cursor = 0;
    stripe.dropped = 0;
    stripe.open.clear();
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name)
    : ScopedSpan(tracer, name, tracer.current()) {}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name,
                       TraceContext parent)
    : tracer_(&tracer), ctx_(tracer.begin(name, parent)) {}

ScopedSpan::~ScopedSpan() { tracer_->finish(); }

}  // namespace emutile
