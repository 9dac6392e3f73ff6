#!/usr/bin/env bash
# Fails when a non-test function under internal/ is reached by no binary and
# is not on .github/reachability/allowlist.txt, or when an exported field of
# a *Config, *Spec or *Options struct under internal/ is set by no binary and
# named by no shipped JSON (or a string case arm of a switch on one is named
# by nothing) and is not on .github/reachability/fields.txt. Runs the
# lister's own tests first (go test ./... skips dot directories), then builds
# every main package of the module and the regression benchmark's driver
# with inlining off and the linker's dependency dump on, and hands the dumps
# to the lister. The lister also holds every package's non-test lines to
# its budget in .github/size.txt; a budget raised over the one before the
# change (the uncommitted edit against HEAD, else the last commit against
# its parent) needs a reason on its line. Extra arguments go to the lister
# (-list prints the allowlisted functions and fields too).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
go test ./.github/reachability
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# The linker writes its dump to stderr, after any compiler errors.
# Each dump starts with "# main <import path>" so the lister can tell the
# main packages apart.
build() { # dump-file module-dir package import-path
  if ! go -C "$2" build -gcflags=all=-l -ldflags=-dumpdep -o "$out/bin" "$3" 2> "$out/err.txt"; then
    cat "$out/err.txt" >&2
    exit 1
  fi
  { echo "# main $4"; cat "$out/err.txt"; } > "$1"
}
i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
  build "$out/dump$i.txt" . "$pkg" "$pkg"
  i=$((i + 1))
done
build "$out/bench.txt" bench . rlgraph/bench
rev=HEAD~1
git diff --quiet HEAD -- .github/size.txt 2>/dev/null || rev=HEAD
base=()
if git show "$rev:.github/size.txt" > "$out/size-base.txt" 2>/dev/null; then
  base=(-size-base "$out/size-base.txt")
fi
go run ./.github/reachability -allow .github/reachability/allowlist.txt \
  -fields .github/reachability/fields.txt -size .github/size.txt "${base[@]}" \
  "$@" "$out"/dump*.txt "$out"/bench.txt
