#!/bin/sh
# Lists the runtime symbols each object file references, from the
# relocations in `objdump -dr`: the C primitives (caml_*, libm), the
# runtime's entry points (caml_call_gc, caml_modify, ...) and the
# generated closure helpers (caml_applyN, caml_curryN). Symbols of
# compiled OCaml modules (caml + capital letter) and local labels are
# left out.
#
#   check.sh ALLOWLIST OBJ...   fail on any symbol that ALLOWLIST does not
#                               pair with its object, naming both
#   check.sh --print OBJ...     print "object symbol" lines for ALLOWLIST
set -eu

if ! command -v objdump >/dev/null 2>&1; then
  echo "primitives: objdump not found" >&2
  exit 1
fi

symbols() {
  objdump -dr "$1" | awk '$2 ~ /^R_/ { print $3 }' | sed -E 's/[-+]0x[0-9a-f]+$//' \
    | grep -vE '^(caml[A-Z]|\.)' | sort -u
}

if [ "$1" = --print ]; then
  shift
  for obj in "$@"; do
    name=$(basename "$obj")
    symbols "$obj" | sed "s/^/$name /"
  done
  exit 0
fi

allow=$1
shift
status=0
for obj in "$@"; do
  name=$(basename "$obj")
  for sym in $(symbols "$obj"); do
    if ! grep -qxF "$name $sym" "$allow"; then
      echo "primitives: $name references $sym, which its allowlist ($allow) does not name" >&2
      status=1
    fi
  done
done
exit $status
