#!/bin/sh
# Formatting gate: `dune build @fmt` against the committed .ocamlformat.
#
# The build container does not ship the ocamlformat binary (only the dune
# side of the toolchain), so the check is gated: when ocamlformat is
# missing we skip with a notice instead of failing every build. CI images
# that do install ocamlformat get the real check.
set -e
cd "$(dirname "$0")/.."
if command -v ocamlformat >/dev/null 2>&1; then
  if [ -n "${INSIDE_DUNE:-}" ]; then
    # A dune action may not invoke dune recursively (the build lock is
    # held), so when the @ci alias runs this script we check the sources
    # directly instead of via @fmt.
    find bin examples lib test -name '.*' -type d -prune -o \
      \( -name '*.ml' -o -name '*.mli' \) -print0 \
      | xargs -0 ocamlformat --check
  else
    exec dune build @fmt
  fi
else
  echo "check_fmt: ocamlformat not installed; skipping format check" >&2
  exit 0
fi
