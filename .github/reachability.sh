#!/usr/bin/env bash
# Fails when a non-test function under internal/ is reached by no binary and
# is not on .github/reachability/allowlist.txt. Builds every main package of
# the module and the regression benchmark's driver with inlining off and the
# linker's dependency dump on, then hands the dumps to the lister. Extra
# arguments go to the lister (-list prints the allowlisted functions too).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# The linker writes its dump to stderr, after any compiler errors.
build() { # dump-file module-dir package
  if ! go -C "$2" build -gcflags=all=-l -ldflags=-dumpdep -o "$out/bin" "$3" 2> "$1"; then
    cat "$1" >&2
    exit 1
  fi
}
i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
  build "$out/dump$i.txt" . "$pkg"
  i=$((i + 1))
done
build "$out/bench.txt" bench .
go run ./.github/reachability -allow .github/reachability/allowlist.txt "$@" "$out"/*.txt
