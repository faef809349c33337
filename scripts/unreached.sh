#!/usr/bin/env bash
# unreached.sh — list the functions the product cannot reach.
#
# Usage: scripts/unreached.sh > api/unreached.txt
#
# The product is the aanoc command (cmd/aanoc) and the exported surface of
# the aanoc facade package. Both are built with inlining off
# (-gcflags=all=-l), so that every call leaves a symbol: the command as it
# is, the facade through a generated main, in a temporary module outside the
# tree, that takes the value of every exported function and method `go doc`
# lists for the facade (for an alias type, the methods `go doc` lists for the
# type it names). Every function and method declared in non-test Go outside
# bench/, examples/ and scripts/ whose symbol `go tool nm` finds in neither
# binary is printed, one per line, sorted. A generic one matches any of its
# instantiations: both sides spell the type arguments as [...].
#
# The list is a lower bound of what only tests reach. The linker keeps every
# method that could be called through an interface, and a branch no input
# takes leaves no symbol of its own (DESIGN.md, "Code the product cannot
# reach"). CI diffs the output against api/unreached.txt: the file may only
# shrink, and a new line names a function nothing in the product calls.
set -euo pipefail
cd "$(dirname "$0")/.."

module=$(go list -m)
facade=$(go list -f '{{.Name}}' .)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# roots reads `go doc -all` of one type or package on stdin and prints a Go
# expression per exported function and method, qualified by the facade type
# $1 (empty: functions of the facade itself, methods of its own types).
roots() {
  local as=$1
  if [ -z "$as" ]; then
    sed -n \
      -e "s/^func \([A-Z][A-Za-z0-9_]*\)(.*/$facade.\1/p" \
      -e "s/^func ([A-Za-z0-9_ ]*\*\([A-Za-z0-9_]*\)) \([A-Z][A-Za-z0-9_]*\)(.*/(*$facade.\1).\2/p" \
      -e "s/^func (\([A-Za-z0-9_]* \)\{0,1\}\([A-Za-z0-9_]*\)) \([A-Z][A-Za-z0-9_]*\)(.*/$facade.\2.\3/p"
  else
    sed -n \
      -e "s/^func ([A-Za-z0-9_ ]*\*[A-Za-z0-9_]*) \([A-Z][A-Za-z0-9_]*\)(.*/(*$facade.$as).\1/p" \
      -e "s/^func ([A-Za-z0-9_ ]*) \([A-Z][A-Za-z0-9_]*\)(.*/$facade.$as.\1/p"
  fi
}

{
  go doc -all . | roots ""
  # type Alias = pkg.T: the methods of pkg.T, reached through the alias.
  go doc -all . | sed -n 's/^type \([A-Z][A-Za-z0-9_]*\) = \([a-z][a-z0-9]*\)\.\([A-Z][A-Za-z0-9_]*\)$/\1 \2 \3/p' |
    while read -r alias pkg typ; do
      imp=$(go list -f '{{join .Imports "\n"}}' . | grep -x "$module/.*/$pkg\|$module/$pkg" || true)
      [ -n "$imp" ] || continue
      go doc -all "$imp.$typ" | roots "$alias"
    done
} > "$tmp/roots"

mkdir "$tmp/root"
printf 'module unreachedroot\n\ngo 1.22\n' > "$tmp/root/go.mod"
printf 'go 1.22\n\nuse (\n\t.\n\t%s\n)\n' "$PWD" > "$tmp/root/go.work"
{
  printf 'package main\n\nimport (\n\t"fmt"\n\t"os"\n\n\t"%s"\n)\n\n' "$module"
  printf 'var roots = []any{\n'
  sed 's/.*/\t&,/' "$tmp/roots"
  printf '}\n\nfunc main() {\n\tif len(os.Args) > 1<<20 {\n\t\tfmt.Println(roots...)\n\t}\n}\n'
} > "$tmp/root/main.go"

go build -gcflags=all=-l -o "$tmp/aanoc" ./cmd/aanoc
(cd "$tmp/root" && GOWORK="$tmp/root/go.work" go build -gcflags=all=-l -o "$tmp/facade" .)

# Symbols of both binaries, a generic instantiation's type arguments
# spelt [...].
for bin in "$tmp/aanoc" "$tmp/facade"; do
  go tool nm "$bin" | sed -e 's/^ *[0-9a-f]* *[A-Za-z] //' \
    -e 's/^\([^[]*\)\[.*\]\([^]]*\)$/\1[...]\2/'
done | LC_ALL=C sort -u > "$tmp/symbols"

# Declarations, spelt as the linker spells their symbols.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' \
  ! -path './scripts/*' ! -path '*/testdata/*' | LC_ALL=C sort |
  xargs awk -v module="$module" '
    FNR == 1 {
      dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
      pkg = dir == "." ? module : module "/" substr(dir, 3)
    }
    /^package main$/ { pkg = "main" }
    /^func \(/ {
      recv = $0; sub(/^func \(/, "", recv); sub(/\).*/, "", recv)
      sub(/^[A-Za-z0-9_]+ /, "", recv)
      name = $0; sub(/^func \([^)]*\) /, "", name); sub(/\(.*/, "", name)
      ptr = recv ~ /^\*/; sub(/^\*/, "", recv)
      typ = recv; if (sub(/\[.*/, "", typ)) typ = typ "[...]"
      print pkg "." (ptr ? "(*" typ ")" : typ) "." name
      next
    }
    /^func [A-Za-z0-9_]+[[(]/ {
      name = $0; sub(/^func /, "", name)
      generic = name ~ /^[A-Za-z0-9_]+\[/
      sub(/[[(].*/, "", name)
      if (name != "init") print pkg "." name (generic ? "[...]" : "")
    }
  ' | LC_ALL=C sort -u > "$tmp/decls"

LC_ALL=C comm -23 "$tmp/decls" "$tmp/symbols"
