/* Clocks for the benchmark's timers. Native entry points are unboxed and
   allocation-free. [ticks] is the x86 time-stamp counter, about half the
   cost of a vDSO clock read, so a profiler span stays cheap; the profiler
   converts ticks to seconds against the monotonic clock. Elsewhere it
   falls back to the monotonic clock in nanoseconds. Ticks are halved so
   they fit an OCaml int. */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
static inline uint64_t ticks(void) { return __rdtsc(); }
#else
static inline uint64_t ticks(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (uint64_t)ts.tv_sec * 1000000000u + (uint64_t)ts.tv_nsec;
}
#endif

double bench_e2e_monotonic_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_e2e_monotonic(value unit)
{
  return caml_copy_double(bench_e2e_monotonic_unboxed(unit));
}

intnat bench_e2e_ticks_unboxed(value unit)
{
  (void)unit;
  return (intnat)(ticks() >> 1);
}

value bench_e2e_ticks(value unit)
{
  return Val_long(bench_e2e_ticks_unboxed(unit));
}
