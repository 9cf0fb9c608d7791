// Microbenchmarks for the observability hot paths.
//
// The claim being checked: with instrumentation compiled in but turned off
// (disabled registry/tracer, or a null Observability* at the call site),
// each guarded event costs a branch or two — well under ~5 ns — so the
// protocol layers can stay instrumented in release builds.  The enabled
// rows show the real cost of a sharded counter bump, a histogram observe,
// and a ring-buffer trace record.
#include <benchmark/benchmark.h>

#include "src/obs/obs.hpp"

namespace {

using acn::obs::MetricsRegistry;
using acn::obs::Observability;
using acn::obs::Tracer;

// -- metrics ----------------------------------------------------------------

void BM_CounterAdd_Enabled(benchmark::State& state) {
  MetricsRegistry registry;
  auto counter = registry.counter("bench.counter");
  for (auto _ : state) counter.add();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd_Enabled);

void BM_CounterAdd_Disabled(benchmark::State& state) {
  MetricsRegistry registry;
  auto counter = registry.counter("bench.counter");
  registry.set_enabled(false);
  for (auto _ : state) counter.add();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd_Disabled);

void BM_CounterAdd_DefaultHandle(benchmark::State& state) {
  // A default-constructed handle: the pattern for layers whose
  // Observability* was never set.
  MetricsRegistry::Counter counter;
  for (auto _ : state) counter.add();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd_DefaultHandle);

void BM_HistogramObserve_Enabled(benchmark::State& state) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("bench.hist");
  std::uint64_t value = 1;
  for (auto _ : state) {
    histogram.observe(value);
    value = value * 6364136223846793005ULL + 1442695040888963407ULL;
    value >>= 40;  // latency-sized values, below 2^24
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve_Enabled);

void BM_HistogramObserve_Disabled(benchmark::State& state) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("bench.hist");
  registry.set_enabled(false);
  for (auto _ : state) histogram.observe(12345);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve_Disabled);

// -- tracer -----------------------------------------------------------------

void BM_TraceInstant_Enabled(benchmark::State& state) {
  Tracer tracer;
  std::uint64_t tx = 0;
  for (auto _ : state) tracer.instant("tick", "bench", ++tx, "arg", 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInstant_Enabled);

void BM_TraceInstant_Disabled(benchmark::State& state) {
  Tracer tracer;
  tracer.set_enabled(false);
  std::uint64_t tx = 0;
  for (auto _ : state) tracer.instant("tick", "bench", ++tx, "arg", 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInstant_Disabled);

void BM_TraceSpan_Enabled(benchmark::State& state) {
  Tracer tracer;
  std::uint64_t tx = 0;
  for (auto _ : state) {
    Tracer::Span span(&tracer, "span", "bench", ++tx);
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan_Enabled);

void BM_TraceSpan_NullTracer(benchmark::State& state) {
  // The instrumentation-site pattern when no Observability is installed.
  Tracer* tracer = nullptr;
  benchmark::DoNotOptimize(tracer);
  std::uint64_t tx = 0;
  for (auto _ : state) {
    Tracer::Span span(tracer, "span", "bench", ++tx);
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan_NullTracer);

// -- the guarded call-site shape used across src/dtm and src/acn ------------

void BM_GuardedSite_NullObs(benchmark::State& state) {
  Observability* obs = nullptr;
  benchmark::DoNotOptimize(obs);
  for (auto _ : state) {
    if (obs) obs->tx_commits.add();  // the exact shape of every call site
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardedSite_NullObs);

void BM_GuardedSite_DisabledObs(benchmark::State& state) {
  acn::obs::ObsConfig config;
  config.metrics_enabled = false;
  Observability bundle(config);
  Observability* obs = &bundle;
  benchmark::DoNotOptimize(obs);
  for (auto _ : state) {
    if (obs) obs->tx_commits.add();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardedSite_DisabledObs);

void BM_GuardedSite_EnabledObs(benchmark::State& state) {
  Observability bundle;
  Observability* obs = &bundle;
  benchmark::DoNotOptimize(obs);
  for (auto _ : state) {
    if (obs) obs->tx_commits.add();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardedSite_EnabledObs);

}  // namespace

BENCHMARK_MAIN();
