#!/usr/bin/env bash
# linkcheck.sh: every function declared in a non-test Go file under
# internal/, cmd/ and examples/ must be linked into at least one binary
# (the eleven under cmd/ and examples/, plus bench's), or be named in
# .github/unlinked-allowlist.txt with a reason.
#
# Each binary is built with inlining off (-gcflags=all=-l), so a function
# that is called only where it was inlined still has a symbol; `go tool nm`
# then lists what the linker kept. The declared side is an awk over the
# gofmt'd `^func ` lines. The script fails on an unlinked function that is
# not allowlisted, and on an allowlist entry that is linked or no longer
# declared.
#
# Run from the repository root: bash .github/linkcheck.sh
# With -list it prints every unlinked function, allowlisted or not, with
# its file, line and length (doc comment included), and exits 0.
set -euo pipefail

allowlist=.github/unlinked-allowlist.txt
list=0
[ "${1:-}" = "-list" ] && list=1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Linked: every text symbol of every binary. A main package's symbols are
# renamed from main. to its import path, and generic instantiations lose
# their [shape] arguments so they match the declaration.
bins=$(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./cmd/... ./examples/...)
for dir in $bins bench; do
	rel=${dir#"$PWD"/}
	out="$tmp/bin/$(echo "$rel" | tr / _)"
	mkdir -p "$tmp/bin"
	if [ "$rel" = bench ]; then
		(cd bench && go build -gcflags=all=-l -o "$out" .)
	else
		go build -gcflags=all=-l -o "$out" "./$rel"
	fi
	go tool nm "$out" | awk -v pkg="repro/$rel" '
		$2 == "T" || $2 == "t" {
			s = $0
			sub(/^ *[0-9a-f]+ [Tt] /, "", s)
			if (s ~ /^main\./) s = pkg substr(s, 5)
			if (s !~ /^repro\//) next
			while (s ~ /\[[^][]*\]/) gsub(/\[[^][]*\]/, "", s)
			print s
		}' >>"$tmp/linked.raw"
done
sort -u "$tmp/linked.raw" >"$tmp/linked"

# Declared: name, place and length (its doc comment included) of every
# function in a non-test file, named the way go tool nm names it.
find internal cmd examples -name '*.go' ! -name '*_test.go' | sort | xargs awk '
	FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$/, "", dir); doc = 0; name = "" }
	/^\/\// { if (!doc) doc = FNR; next }
	/^func / {
		s = $0
		sub(/^func /, "", s)
		recv = ""
		if (s ~ /^\(/) {
			r = substr(s, 2, index(s, ")") - 2)
			s = substr(s, index(s, ")") + 2)
			n = split(r, f, " ")
			recv = f[n]
			sub(/\[.*$/, "", recv)
			if (recv ~ /^\*/) recv = "(" recv ")"
			recv = recv "."
		}
		match(s, /^[A-Za-z0-9_]+/)
		fn = substr(s, 1, RLENGTH)
		name = "repro/" dir "." recv fn
		start = doc ? doc : FNR
		if (fn == "init" && recv == "") name = ""
		if ($0 ~ /}$/) { if (name != "") print name "\t" FILENAME ":" FNR "\t" FNR - start + 1; name = "" }
		doc = 0
		next
	}
	/^}/ && name != "" { print name "\t" FILENAME ":" FNR - 0 "\t" FNR - start + 1; name = ""; next }
	{ doc = 0 }
' | sort >"$tmp/declared"

cut -f1 "$tmp/declared" | sort -u >"$tmp/declared.names"
comm -23 "$tmp/declared.names" "$tmp/linked" >"$tmp/unlinked"

if [ "$list" = 1 ]; then
	join -t "$(printf '\t')" "$tmp/unlinked" "$tmp/declared"
	awk -F '\t' 'NR == FNR { u[$1]; next } $1 in u { n++; l += $3 } END { printf "%d unlinked functions, %d lines\n", n, l }' "$tmp/unlinked" "$tmp/declared"
	exit 0
fi

grep -v '^#' "$allowlist" | awk 'NF { print $1 }' | sort >"$tmp/allowed"
fail=0
unlisted=$(comm -23 "$tmp/unlinked" "$tmp/allowed")
if [ -n "$unlisted" ]; then
	echo "linked by no binary (delete it, move it into a _test.go file, or allowlist it in $allowlist with a reason):" >&2
	join -t "$(printf '\t')" <(echo "$unlisted") "$tmp/declared" >&2
	fail=1
fi
stale=$(comm -13 "$tmp/unlinked" "$tmp/allowed")
if [ -n "$stale" ]; then
	echo "stale entries in $allowlist (now linked, or no longer declared):" >&2
	echo "$stale" >&2
	fail=1
fi
dups=$(uniq -d "$tmp/allowed")
if [ -n "$dups" ]; then
	echo "entries listed twice in $allowlist:" >&2
	echo "$dups" >&2
	fail=1
fi
[ "$fail" = 0 ] && echo "every declared function is linked or allowlisted ($(wc -l <"$tmp/allowed") allowlisted)"
exit "$fail"
