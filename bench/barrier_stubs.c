/* Counting wrapper for the OCaml runtime's write barrier. An executable
   linked with -Wl,--wrap=caml_modify sends every call to caml_modify made
   outside the runtime's own memory.c here first: while counting is on,
   the wrapper tallies the call under its return address, then runs the
   real barrier. Single-domain use only. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdint.h>
#include <string.h>

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

void __real_caml_modify(volatile value *fp, value v);

/* Open-addressed table of call sites; a power of two. */
#define SLOTS 8192

static uintptr_t site[SLOTS];
static uint64_t hits[SLOTS];
static uint64_t total;
static int counting;

void __wrap_caml_modify(volatile value *fp, value v)
{
  if (counting) {
    uintptr_t a = (uintptr_t)__builtin_return_address(0);
    size_t i = (size_t)((a * 0x9E3779B97F4A7C15ull) >> 51) & (SLOTS - 1);
    size_t n;
    total++;
    for (n = 0; n < SLOTS; n++, i = (i + 1) & (SLOTS - 1)) {
      if (site[i] == a) { hits[i]++; break; }
      if (site[i] == 0) { site[i] = a; hits[i] = 1; break; }
    }
  }
  __real_caml_modify(fp, v);
}

value barriers_start(value unit)
{
  (void)unit;
  memset(site, 0, sizeof site);
  memset(hits, 0, sizeof hits);
  total = 0;
  counting = 1;
  return Val_unit;
}

value barriers_stop(value unit)
{
  (void)unit;
  counting = 0;
  return Val_unit;
}

value barriers_total(value unit)
{
  (void)unit;
  return Val_long(total);
}

/* The counted call sites as an array of (symbol, calls) pairs. The
   symbol is the one dladdr finds for the return address (the executable
   is linked with -rdynamic so OCaml functions are named); "?" when it
   finds none. Counting is off while the array is built: Store_field
   itself calls caml_modify. */
value barriers_sites(value unit)
{
  CAMLparam1(unit);
  CAMLlocal3(arr, pair, name);
  int was = counting;
  size_t i, k = 0, j = 0;
  counting = 0;
  for (i = 0; i < SLOTS; i++)
    if (site[i] != 0) k++;
  arr = caml_alloc(k, 0);
  for (i = 0; i < SLOTS; i++) {
    Dl_info info;
    if (site[i] == 0) continue;
    name = caml_copy_string(dladdr((void *)site[i], &info) && info.dli_sname ? info.dli_sname
                                                                             : "?");
    pair = caml_alloc_tuple(2);
    Store_field(pair, 0, name);
    Store_field(pair, 1, Val_long(hits[i]));
    Store_field(arr, j++, pair);
  }
  counting = was;
  CAMLreturn(arr);
}
