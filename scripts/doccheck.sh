#!/usr/bin/env bash
# doccheck.sh — print every name the documents cite that the tree lacks.
#
# Usage: scripts/doccheck.sh
#
# Prints one line per unresolved name, as file:line: name, and exits 1 if
# it printed any; prints nothing and exits 0 otherwise. CI runs it.
#
# README.md, DESIGN.md and EXPERIMENTS.md are read for inline code spans
# (fenced blocks are skipped; a trailing "()" and a type argument list
# "[...]" are dropped first). A span that names
#   - pkg.Name or pkg.Type.Member, pkg a package of this module, must be
#     declared there: Name a function, type, constant or variable, Member
#     a field or method of Type (`go doc -cmd -u -all`, one dump per
#     package, so unexported names count);
#   - Type.Member, Type not a package of this module or of the standard
#     library, must be a field or method of a type of that name in some
#     package of the module;
#   - a .go file must exist: a path with a slash from the repository root,
#     a bare file name anywhere in the tree;
#   - TestX, BenchmarkX or FuzzX (a "/subtest" dropped) must be declared in
#     a _test.go file, and TestX* must prefix one that is.
# A dotted bench metric name (a string of bench/metrics.go, such as
# system.run_s) and a file name with another extension (chan2.json) are
# not Go names and are skipped, as is a name qualified by a standard
# library package (sync.Pool).
#
# Every citation of a DESIGN.md section in the tree's Go, shell, YAML and
# Markdown files — the file name, then an optional comma or section sign,
# then the section's name in double quotes, also when the quote wraps onto
# the next line of a comment — must name a heading of DESIGN.md or the
# bold lead of one of its paragraphs. CHANGES.md is skipped: it records
# what the code was when each entry was written. In Markdown, a citation
# inside an inline code span is an example of the form, not a citation,
# and is skipped too.
#
# There is no allowlist: a name that no longer exists is written in plain
# text, not as code.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# decls: one line per declaration of the module, from go doc.
#   P <pkg> <name>             a top-level name of package <pkg>
#   M <pkg> <type> <member>    a field or method of a type
#   E <pkg> <type> <embedded>  an embedded field, or the type an alias names
# Main packages are dumped under the package name "main".
go list -f '{{.Name}} {{.ImportPath}}' ./... | while read -r name path; do
  go doc -cmd -u -all "$path" | awk -v pkg="$name" '
    function ident(s) { match(s, /^[A-Za-z_][A-Za-z0-9_]*/); return substr(s, 1, RLENGTH) }
    function last(s,    n, a) { sub(/^\*/, "", s); sub(/\[.*/, "", s); n = split(s, a, "."); return a[n] }
    block == "group" {
      if ($0 ~ /^\)/) { block = ""; next }
      if ($0 ~ /^\t[A-Za-z_]/) {
        s = substr($0, 2); sub(/[ =].*/, "", s); gsub(/,/, " ", s)
        n = split(s, a, " "); for (i = 1; i <= n; i++) print "P", pkg, a[i]
      }
      next
    }
    block == "struct" || block == "interface" {
      if ($0 ~ /^}/) { block = ""; next }
      if ($0 !~ /^\t[A-Za-z_*]/) next
      s = substr($0, 2); sub(/[ \t]*\/\/.*/, "", s)
      if (block == "interface") {
        if (s ~ /^[A-Za-z_][A-Za-z0-9_]*\(/) print "M", pkg, typ, ident(s)
        else print "E", pkg, typ, last(s)
        next
      }
      if (s ~ /^\*?[A-Za-z_][A-Za-z0-9_.]*(\[.*\])?$/) { print "E", pkg, typ, last(s); print "M", pkg, typ, last(s); next }
      while (s ~ /^[A-Za-z_][A-Za-z0-9_]*, /) { print "M", pkg, typ, ident(s); s = substr(s, RLENGTH + 3) }
      print "M", pkg, typ, ident(s)
      next
    }
    /^func \(/ {
      s = $0; sub(/^func \(/, "", s); r = s; sub(/\).*/, "", r); sub(/^[A-Za-z0-9_]+ /, "", r)
      sub(/^[^)]*\) /, "", s)
      print "M", pkg, last(r), ident(s)
      next
    }
    /^func [A-Za-z_]/ { print "P", pkg, ident(substr($0, 6)); next }
    /^(const|var) \($/ { block = "group"; next }
    /^(const|var) [A-Za-z_]/ {
      s = $0; sub(/^[a-z]+ /, "", s); sub(/[ =].*/, "", s); gsub(/,/, " ", s)
      n = split(s, a, " "); for (i = 1; i <= n; i++) print "P", pkg, a[i]
      next
    }
    /^type [A-Za-z_]/ {
      typ = ident(substr($0, 6)); print "P", pkg, typ
      rest = substr($0, 6 + length(typ)); sub(/^\[[^]]*\]/, "", rest)
      if (rest ~ /^ = /) { sub(/^ = /, "", rest); print "E", pkg, typ, last(rest) }
      else if (rest ~ / struct \{$/) block = "struct"
      else if (rest ~ / interface \{$/) block = "interface"
      next
    }
  '
done > "$tmp/decls"

# Package names of the module (main packages excluded) and of the
# standard library; bench metric names; the tree's Go files and its test
# functions.
go list -f '{{if ne .Name "main"}}{{.Name}}{{end}}' ./... | sed '/^$/d' > "$tmp/modpkgs"
go list std | sed 's,.*/,,' > "$tmp/stdpkgs"
sed -n 's/.*"\([a-z][a-z0-9]*\.[a-z0-9_.]*\)".*/\1/p' bench/metrics.go > "$tmp/metrics"
find . -name '*.go' ! -path './.git/*' | sed 's,^\./,,' > "$tmp/gofiles"
find . -name '*_test.go' ! -path './.git/*' -exec sed -n \
  's/^func \(\(Test\|Benchmark\|Fuzz\)[A-Za-z0-9_]*\)(.*/\1/p' {} + > "$tmp/tests"

# Inline code spans of the three documents, as file<TAB>line<TAB>span.
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  awk -v doc="$doc" '
    /^```/ { fence = !fence; next }
    fence { next }
    {
      s = $0
      while (match(s, /`[^`]+`/)) {
        print doc "\t" FNR "\t" substr(s, RSTART + 1, RLENGTH - 2)
        s = substr(s, RSTART + RLENGTH)
      }
    }
  ' "$doc"
done > "$tmp/spans"

awk -F '\t' '
  FILENAME == ARGV[1] { if ($1 ~ /^P /) { split($0, f, " "); top[f[2] " " f[3]] = 1 }
                        else { split($0, f, " ")
                               if (f[1] == "M") { mem[f[2] " " f[3] " " f[4]] = 1; memany[f[3] " " f[4]] = 1 }
                               else emb[f[2] " " f[3]] = emb[f[2] " " f[3]] " " f[4]
                             }
                        next }
  FILENAME == ARGV[2] { mod[$1] = 1; next }
  FILENAME == ARGV[3] { std[$1] = 1; next }
  FILENAME == ARGV[4] { metric[$1] = 1; next }
  FILENAME == ARGV[5] { file[$1] = 1; n = split($1, a, "/"); base[a[n]] = 1; next }
  FILENAME == ARGV[6] { test[$1] = 1; next }
  function has(p, t, m,    k, e, n, i) {
    # has reports whether type t of package p (any package when p is
    # empty) has member m, through embedded fields and aliases too.
    if (p != "" ? ((p " " t " " m) in mem) : ((t " " m) in memany)) return 1
    if (depth > 4) return 0
    depth++
    for (k in emb) {
      split(k, kk, " ")
      if (kk[2] != t || (p != "" && kk[1] != p)) continue
      n = split(emb[k], e, " ")
      for (i = 1; i <= n; i++) if (has("", e[i], m)) { depth--; return 1 }
    }
    depth--
    return 0
  }
  {
    t = $3; sub(/\(\)$/, "", t); gsub(/\[[^]]*\]/, "", t)
    if (t ~ /^(Test|Benchmark|Fuzz)[A-Za-z0-9_]*(\*|\/.*)?$/) {
      sub(/\/.*/, "", t)
      if (sub(/\*$/, "", t)) {
        ok = 0
        for (k in test) if (index(k, t) == 1) ok = 1
      } else ok = t in test
      if (!ok) print $1 ":" $2 ": " $3
      next
    }
    if (t ~ /^[A-Za-z0-9_.\/-]+\.go$/) {
      if (t ~ /\// ? !(t in file) : !(t in base)) print $1 ":" $2 ": " $3
      next
    }
    if (t !~ /^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+$/) next
    if (t in metric) next
    n = split(t, p, ".")
    if (n > 3) next
    if (p[n] ~ /^(json|jsonl|md|txt|bin|pprof|sha256|yml|sh|mod|sum|csv|out|test|log)$/) next
    if (p[1] in mod) {
      ok = (p[1] " " p[2]) in top
      if (ok && n == 3) ok = has(p[1], p[2], p[3])
    } else if (p[1] in std) {
      next
    } else {
      ok = has("", p[1], p[2])
    }
    if (!ok) print $1 ":" $2 ": " $3
  }
' "$tmp/decls" "$tmp/modpkgs" "$tmp/stdpkgs" "$tmp/metrics" "$tmp/gofiles" "$tmp/tests" "$tmp/spans" > "$tmp/out"

# Section citations: the headings and bold leads DESIGN.md has, then
# every citation in the tree, a wrapped comment joined to its next line.
sed -n -e 's/^#\{1,6\} *\(.*[^ ]\) *$/\1/p' -e 's/^\*\*\([^*]*[^.*]\)\.\{0,1\}\*\*.*/\1/p' DESIGN.md > "$tmp/sections"
find . -type f \( -name '*.go' -o -name '*.sh' -o -name '*.yml' -o -name '*.md' \) \
  ! -path './.git/*' ! -name CHANGES.md | LC_ALL=C sort |
  xargs awk '
    function strip(s) { sub(/^[ \t]*((\/\/|#|\*|>)[ \t]*)?/, "", s); return s }
    # scan prints the citations that start on line n of file f; the
    # next line, stripped of its comment marker, completes a wrapped one.
    # In a Markdown file, a match after an odd number of backticks on its
    # line sits in a code span and is skipped.
    function scan(line, following, f, n,    s, off, c, pre) {
      s = line " " following; off = 0
      while (match(s, /DESIGN\.md(,| §)? "[^"]+"/)) {
        if (off + RSTART > length(line)) break
        c = substr(s, RSTART, RLENGTH); sub(/^[^"]*"/, "", c); sub(/"$/, "", c)
        gsub(/[ \t]+/, " ", c)
        pre = substr(line, 1, off + RSTART - 1)
        if (f !~ /\.md$/ || gsub(/`/, "", pre) % 2 == 0) print f "\t" n "\t" c
        off += RSTART + RLENGTH - 1; s = substr(s, RSTART + RLENGTH)
      }
    }
    FNR == 1 && NR > 1 { scan(prev, "", pf, pn) }
    FNR > 1 { scan(prev, strip($0), FILENAME, FNR - 1) }
    { prev = $0; pf = FILENAME; pn = FNR }
    END { if (NR) scan(prev, "", pf, pn) }
  ' > "$tmp/cites"
awk -F '\t' 'FILENAME == ARGV[1] { sec[$0] = 1; next } !($3 in sec) { sub(/^\.\//, "", $1); print $1 ":" $2 ": DESIGN.md \"" $3 "\"" }' \
  "$tmp/sections" "$tmp/cites" >> "$tmp/out"

cat "$tmp/out"
[ ! -s "$tmp/out" ]
